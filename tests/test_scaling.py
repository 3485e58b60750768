"""Scale covariance of every verdict.

The defining equations are exactly covariant under

    (lambda, a, b, P, Q) -> (c lambda, a / c^3, b / c^3, P / c^2, Q / c^3),

under which w1+ scales by c and s by c^2.  Validity and the torsion class
must therefore not change with c, and w1+ / c and s / c^2 must not move
beyond rounding.  Along a trajectory the time derivatives of
(a, b, Q1, Q2) scale by c^-2, and the relative G2 residuals must not move.
"""

import numpy as np
import pytest

from nhflat import families, flow
from nhflat.structure import NhfStructure, sample_random_structure
from nhflat.torsion import classify, extract_torsion, rotate_to_half_flat

SCALES = np.geomspace(1e-3, 1e3, 13)
RTOL = 1e-9

SAMPLES = [("rotate-family", seed) for seed in range(20)] + [
    ("nearly-kahler", 4.0),
    ("root-solve", 0),
]


def scaled(s, c):
    return NhfStructure(c * s.lam, s.a / c**3, s.b / c**3, s.P / c**2, s.Q / c**3)


def make(kind, arg):
    if kind == "nearly-kahler":
        return families.nearly_kahler(arg)
    return sample_random_structure(arg, method=kind)


def answer(s):
    data = extract_torsion(s)
    return s.validate().passed, data.class_label, data.w1plus, data.s


@pytest.mark.parametrize("kind, arg", SAMPLES, ids=[f"{k}-{a}" for k, a in SAMPLES])
def test_verdicts_scale_covariant(kind, arg):
    base = make(kind, arg)
    valid, label, w1p, s = answer(base)
    assert valid
    # w1+ and s are compared on their own natural sizes, |lambda| and
    # lambda^2, so that a zero w1+ (nearly Kahler, w1w3) is compared too
    w1p_size = max(abs(w1p), abs(base.lam))
    s_size = max(abs(s), base.lam**2)
    for c in SCALES:
        got_valid, got_label, got_w1p, got_s = answer(scaled(base, c))
        assert (got_valid, got_label) == (valid, label), f"c = {c:g}"
        assert abs(got_w1p / c - w1p) <= RTOL * w1p_size, f"c = {c:g}"
        assert abs(got_s / c**2 - s) <= RTOL * s_size, f"c = {c:g}"


@pytest.mark.parametrize("c", SCALES)
def test_rotation_scale_covariant(c):
    # theta is scale free; d(gamma_theta) = 0 holds at every scale
    base = families.w1_family(1.0, 0.5)
    theta, _, residual = rotate_to_half_flat(base)
    theta_c, _, residual_c = rotate_to_half_flat(scaled(base, c))
    assert theta_c == pytest.approx(theta, rel=RTOL)
    assert residual <= 1e-12 and residual_c <= 1e-12


@pytest.mark.parametrize("c", SCALES)
def test_nearly_kahler_predicates_scale_free(c):
    report = classify(scaled(families.nearly_kahler(4.0), c))
    assert report.label == "W1-" and report.nearly_kahler


@pytest.mark.parametrize(
    "member, deriv",
    [
        (families.berger_trajectory, families.berger_derivative),
        (families.sine_cone_trajectory, families.sine_cone_derivative),
    ],
    ids=["berger", "sine-cone"],
)
@pytest.mark.parametrize("t", [0.15, 0.3, 0.6])
def test_g2_pieces_scale_free(member, deriv, t):
    # Berger's pieces are about 1 (it does not solve the equations), the
    # sine cone's about 1e-16
    base, (da, db, dQ1, dQ2) = member(t), deriv(t)
    want = flow.g2_pieces(base, da, db, dQ1, dQ2)
    for c in SCALES:
        k = c**-2
        got = flow.g2_pieces(
            scaled(base, c), k * da, k * db, k * np.asarray(dQ1), k * np.asarray(dQ2)
        )
        for g, w in zip(got, want):
            assert abs(g - w) <= RTOL * max(w, 1.0), f"c = {c:g}"
