"""Exterior algebra engine tests: exhaustive on the 63 basis monomials.

The interior product, compound matrices, pullback and Hodge star are
oracles of tests/oracles.py; they are tested here with the engine."""

import itertools

import numpy as np
import pytest

from nhflat.exterior import (
    BASIS,
    COFRAME_DIFFERENTIAL,
    DIMS,
    Form,
    d,
    form_inner,
    inner,
    relative,
    wedge,
)
from oracles import compound, contract, hodge, pullback, volume_coefficient, wedge_all


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


def _random_spd(rng):
    A = rng.standard_normal((6, 6))
    return A @ A.T + 0.5 * np.eye(6)


def test_form_inner_matches_compound():
    # the contraction against the compound-matrix definition x^T C_k(g^-1) y
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = _random_spd(rng)
        C = [compound(np.linalg.inv(g), k) for k in range(7)]
        for k in range(7):
            x, y = _random_form(rng, k), _random_form(rng, k)
            ref = x.coeffs @ C[k] @ y.coeffs
            # size of the uncancelled terms of the sum
            size = np.abs(x.coeffs) @ np.abs(C[k]) @ np.abs(y.coeffs)
            assert abs(form_inner(g, x, y) - ref) <= 1e-13 * size
            norm = x.coeffs @ C[k] @ x.coeffs
            assert abs(form_inner(g, x, x) - norm) <= 1e-13 * norm
    # the contraction is x^T C_k(M) y for any matrix, symmetric or not
    M = rng.standard_normal((6, 6))
    for k in range(7):
        x, y = _random_form(rng, k), _random_form(rng, k)
        C = compound(M, k)
        size = np.abs(x.coeffs) @ np.abs(C) @ np.abs(y.coeffs)
        assert abs(inner(M, x, y) - x.coeffs @ C @ y.coeffs) <= 1e-13 * size


def test_form_inner_checks_metric():
    x = _random_form(np.random.default_rng(9), 2)
    with pytest.raises(ValueError, match="symmetric"):
        form_inner(np.eye(6) + np.triu(np.ones((6, 6)), 1), x, x)
    with pytest.raises(ValueError, match="positive definite"):
        form_inner(-np.eye(6), x, x)


@pytest.mark.parametrize("shape", [(1,), (15,), (3, 3), (6, 6)])
def test_relative_nan_at_any_position(shape):
    # a NaN anywhere in the residual must fail every `relative(...) <= tol`,
    # given as an array or as a list (the 9-list verdicts), and a NaN in a
    # list term must propagate like one in an array term
    for pos in range(int(np.prod(shape))):
        residual = np.ones(shape)
        residual.flat[pos] = np.nan
        assert np.isnan(relative(residual, 1.0))
        assert np.isnan(relative(residual.ravel().tolist(), 1.0))
        assert np.isnan(relative(1.0, residual.ravel().tolist()))
    values = np.linspace(-3.0, 2.0, int(np.prod(shape)))
    assert relative(values.tolist(), 1.0) == relative(values, 1.0) == 3.0
    for k in range(7):
        for pos in range(DIMS[k]):
            residual = Form(k, np.ones(DIMS[k]))
            residual.coeffs[pos] = np.nan
            assert np.isnan(relative(residual, residual, 2.0))
            assert not relative(residual, 1.0) <= 1e300


def test_contract_matches_monomial_loop():
    # reference: remove each index of each monomial with the sign (-1)^j
    rng = np.random.default_rng(10)
    for k in range(1, 7):
        x, v = _random_form(rng, k), rng.standard_normal(6)
        ref = Form(k - 1)
        for n, mono in enumerate(BASIS[k]):
            for j, idx in enumerate(mono):
                rest = BASIS[k - 1].index(mono[:j] + mono[j + 1:])
                ref.coeffs[rest] += (-1) ** j * v[idx - 1] * x.coeffs[n]
        assert (contract(v, x) - ref).max_abs() <= 1e-14 * max(1.0, ref.max_abs())
        for i in range(1, 7):
            e_i = np.eye(6)[i - 1]
            np.testing.assert_array_equal(contract(i, x).coeffs, contract(e_i, x).coeffs)
