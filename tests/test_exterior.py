"""Exterior algebra engine tests: exhaustive on the 63 basis monomials."""

import itertools

import numpy as np
import pytest

from nhflat.exterior import (
    BASIS,
    COFRAME_DIFFERENTIAL,
    DIMS,
    Form,
    compound,
    contract,
    d,
    form_inner,
    hodge,
    pullback,
    volume_coefficient,
    wedge,
    wedge_all,
)


def all_monomials():
    for k in range(1, 7):
        for mono in BASIS[k]:
            yield mono


def test_basis_dimensions():
    assert tuple(DIMS) == (1, 6, 15, 20, 15, 6, 1)
    for k in range(7):
        assert len(BASIS[k]) == DIMS[k]


def test_d_squared_zero_on_all_monomials():
    for mono in all_monomials():
        dd = d(d(Form.monomial(mono)))
        assert dd.max_abs() == 0.0


def test_structure_constants():
    # d e1 = e3^e5, d e3 = -e1^e5, d e5 = e1^e3 and the even copy
    expected = {
        1: ((3, 5), 1.0),
        3: ((1, 5), -1.0),
        5: ((1, 3), 1.0),
        2: ((4, 6), 1.0),
        4: ((2, 6), -1.0),
        6: ((2, 4), 1.0),
    }
    assert COFRAME_DIFFERENTIAL == expected
    for i, (mono, sign) in expected.items():
        assert (d(Form.monomial((i,))) - sign * Form.monomial(mono)).max_abs() == 0


def test_graded_commutativity_exhaustive():
    for a in all_monomials():
        for b in all_monomials():
            fa, fb = Form.monomial(a), Form.monomial(b)
            if len(a) + len(b) > 6:
                continue
            lhs = wedge(fa, fb)
            rhs = (-1.0) ** (len(a) * len(b)) * wedge(fb, fa)
            assert (lhs - rhs).max_abs() == 0.0


def test_antiderivation_law_exhaustive():
    # d(a ^ b) = da ^ b + (-1)^|a| a ^ db on all basis pairs
    for a in all_monomials():
        for b in all_monomials():
            if len(a) + len(b) > 5:
                continue
            fa, fb = Form.monomial(a), Form.monomial(b)
            lhs = d(wedge(fa, fb))
            rhs = wedge(d(fa), fb) + (-1.0) ** len(a) * wedge(fa, d(fb))
            assert (lhs - rhs).max_abs() == 0.0


def test_wedge_associativity_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = Form(1), Form(2), Form(1)
        a.coeffs[:] = rng.standard_normal(DIMS[1])
        b.coeffs[:] = rng.standard_normal(DIMS[2])
        c.coeffs[:] = rng.standard_normal(DIMS[1])
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert (lhs - rhs).max_abs() < 1e-12
        assert (wedge_all(a, b, c) - lhs).max_abs() < 1e-12


def test_contraction_antiderivation():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b = Form(2), Form(3)
        a.coeffs[:] = rng.standard_normal(DIMS[2])
        b.coeffs[:] = rng.standard_normal(DIMS[3])
        for i in range(1, 7):
            lhs = contract(i, wedge(a, b))
            rhs = wedge(contract(i, a), b) + wedge(a, contract(i, b))
            assert (lhs - rhs).max_abs() < 1e-12


def test_volume_coefficient():
    assert volume_coefficient(Form.monomial((1, 2, 3, 4, 5, 6))) == 1.0
    # odd permutation
    f = Form(6)
    f.coeffs[0] = -2.5
    assert volume_coefficient(f) == -2.5


def test_pullback_identity_and_composition():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 6))
    B = rng.standard_normal((6, 6))
    f = Form(3)
    f.coeffs[:] = rng.standard_normal(DIMS[3])
    assert (pullback(np.eye(6), f) - f).max_abs() == 0.0
    lhs = pullback(A, pullback(B, f))
    rhs = pullback(B @ A, f)
    assert (lhs - rhs).max_abs() < 1e-10


def test_pullback_top_degree_is_determinant():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 6))
    vol = Form.monomial((1, 2, 3, 4, 5, 6))
    assert volume_coefficient(pullback(A, vol)) == pytest.approx(
        np.linalg.det(A), rel=1e-10
    )


def test_hodge_euclidean_involution():
    # For the Euclidean metric, ** = (-1)^{k(6-k)} on degree k
    for mono in all_monomials():
        k = len(mono)
        f = Form.monomial(mono)
        twice = hodge(np.eye(6), hodge(np.eye(6), f))
        assert (twice - (-1.0) ** (k * (6 - k)) * f).max_abs() < 1e-12


def test_form_inner_euclidean_orthonormal():
    g = np.eye(6)
    f = Form.monomial((1, 3, 5))
    h = Form.monomial((2, 4, 6))
    assert form_inner(g, f, f) == pytest.approx(1.0)
    assert form_inner(g, f, h) == pytest.approx(0.0)


def test_form_inner_matches_hodge_pairing():
    # <a, b> vol = a ^ *b
    rng = np.random.default_rng(4)
    g = rng.standard_normal((6, 6))
    g = g @ g.T + 6 * np.eye(6)
    for k in (2, 3):
        a, b = Form(k), Form(k)
        a.coeffs[:] = rng.standard_normal(DIMS[k])
        b.coeffs[:] = rng.standard_normal(DIMS[k])
        lhs = volume_coefficient(wedge(a, hodge(g, b)))
        rhs = form_inner(g, a, b) * np.sqrt(np.linalg.det(g))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def _random_form(rng, k):
    f = Form(k)
    f.coeffs[:] = rng.standard_normal(DIMS[k])
    return f


def _permutation_sign(seq):
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def test_wedge_matches_monomial_sum():
    # reference: sum over monomial pairs with the sign of the sorting shuffle
    rng = np.random.default_rng(5)
    for j in range(7):
        for k in range(7 - j):
            x, y = _random_form(rng, j), _random_form(rng, k)
            ref = Form(j + k)
            for m, left in enumerate(BASIS[j]):
                for n, right in enumerate(BASIS[k]):
                    if set(left) & set(right):
                        continue
                    merged = tuple(sorted(left + right))
                    ref.coeffs[BASIS[j + k].index(merged)] += (
                        _permutation_sign(left + right) * x.coeffs[m] * y.coeffs[n]
                    )
            assert (wedge(x, y) - ref).max_abs() < 1e-13


def test_compound_matches_minors():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((6, 6))
    for k in range(7):
        idx = [[a - 1 for a in mono] for mono in BASIS[k]]
        ref = np.array([[np.linalg.det(M[np.ix_(I, J)]) for J in idx] for I in idx])
        # the same determinant of the same submatrix, entry by entry
        np.testing.assert_array_equal(compound(M, k), ref)


def test_compound_cauchy_binet():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6))
    B = rng.standard_normal((6, 6))
    for k in range(7):
        lhs = compound(A @ B, k)
        rhs = compound(A, k) @ compound(B, k)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))
