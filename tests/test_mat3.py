"""3x3 determinant / adjugate helpers."""

from fractions import Fraction

import numpy as np
import pytest

from nhflat import families, flow
from nhflat.mat3 import adjugate, det3, dot9, flat9, polarized_adjugate
from nhflat.structure import invariant_three_form


def test_det3_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        assert det3(m) == pytest.approx(np.linalg.det(m), rel=1e-10)


def test_adjugate_identity():
    assert np.array_equal(adjugate(np.eye(3)), np.eye(3))


def test_adjugate_fundamental_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        assert np.allclose(m @ adjugate(m), det3(m) * np.eye(3), atol=1e-10)
        assert np.allclose(adjugate(m) @ m, det3(m) * np.eye(3), atol=1e-10)


def test_adjugate_transpose_commutes():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 3))
    assert np.allclose(adjugate(m.T), adjugate(m).T)


def test_polarized_adjugate_is_directional_derivative():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 3))
        eps = 1e-7
        fd = (adjugate(p + eps * x) - adjugate(p - eps * x)) / (2 * eps)
        assert np.allclose(polarized_adjugate(p, x), fd, atol=1e-6)


def test_polarized_adjugate_exact_decomposition():
    # Adj(p + x) = Adj(p) + Adj(x) + polarized term, exactly
    rng = np.random.default_rng(4)
    p = rng.standard_normal((3, 3))
    x = rng.standard_normal((3, 3))
    lhs = adjugate(p + x)
    rhs = adjugate(p) + adjugate(x) + polarized_adjugate(p, x)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_dot9_adds_left_to_right():
    # a left fold loses the 1.0 to 1e16 + 1.0 == 1e16; the builtin sum of
    # Python 3.12 and later compensates and gives 1.0
    assert dot9((1e16, 1.0, -1e16, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (1.0,) * 9) == 0.0
    assert repr(dot9((-0.0,) * 9, (1.0,) * 9)) == "-0.0"


def test_dot9_is_exact_on_fractions():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = [Fraction(v) for v in rng.standard_normal(9).tolist()]
        y = [Fraction(v) for v in rng.standard_normal(9).tolist()]
        got = dot9(x, y)
        assert type(got) is Fraction
        assert got == sum(u * v for u, v in zip(x, y))


BAD_SHAPES = {
    "3x2": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
    "4-list": [1.0, 2.0, 3.0, 4.0],
    "3x3x1": [[[1.0]] * 3] * 3,
    "number": 1.0,
    # a str is neither a row nor a 9-sequence
    "str-rows": ["abc", "def", "ghi"],
    "str-9": "123456789",
}


@pytest.mark.parametrize("m", BAD_SHAPES.values(), ids=BAD_SHAPES.keys())
def test_flat9_rejects_other_shapes(m):
    # a zip over the entries would silently cut to the shorter side
    zero = [[0.0] * 3] * 3
    with pytest.raises(ValueError, match="3x3 matrix"):
        flat9(m)
    with pytest.raises(ValueError, match="3x3 matrix"):
        flow.g2_residual(families.nearly_kahler(4.0), 0.0, 0.0, m, zero)
    with pytest.raises(ValueError, match="3x3 matrix"):
        invariant_three_form(0.0, 0.0, zero, m)
