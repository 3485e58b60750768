"""Closed-form families and the two trajectories.

The published data for three items disagrees with what the machinery
measures; those tests pin the measured truth and say so:

* sine-cone: the published q(t) has the wrong sign.  The sign encoded here
  is the one whose derivative satisfies the published evolution equations
  (and the published scalar ODEs) starting from the nearly Kahler point.
* zero-scalar roots: the published closed-form s(p) expressions match
  neither the torsion-formula scalar curvature nor the Levi-Civita scalar
  curvature of the family's own displayed metric.  The family locates the
  roots of the honestly extracted s; each branch has exactly one.
* Berger trajectory: the published coefficient functions do not satisfy
  the structure normalization, and the 3-form they induce is not stable
  of the right type (no almost complex structure, indefinite bilinear
  form in the 7-dimensional positivity test).  The data is emitted as
  published; its invalidity is pinned below.
"""

import numpy as np
import pytest

from nhflat import families, flow
from nhflat.structure import NhfStructure, _bracket9
from nhflat.torsion import extract_torsion

SQRT3 = np.sqrt(3.0)


def zero_scalar_closed_s(p: float, formula_sign: int) -> float:
    """The published closed-form scalar curvature candidates for the zero
    scalar curvature family: s = 2 (72 p^4 + 105 p +- 5 sqrt(3)) / (3 p).

    Kept to pin the deviation only: these expressions match neither the
    torsion formula applied to the family nor the Levi-Civita scalar
    curvature of the family's own displayed metric;
    `families.zero_scalar_s` is the expression that does."""
    return 2.0 * (72.0 * p**4 + 105.0 * p + formula_sign * 5.0 * SQRT3) / (3.0 * p)


def ode_residual(s, deriv):
    da, db, dQ1, dQ2 = deriv
    ra, rb, rQ1, rQ2 = flow.flow_rhs(s.lam, s.a, s.b, s.Q1, s.Q2, s.det_p)
    return max(
        abs(da - ra),
        abs(db - rb),
        float(np.max(np.abs(dQ1 - rQ1))),
        float(np.max(np.abs(dQ2 - rQ2))),
    )


class TestNearlyKahler:
    def test_values_lambda4(self):
        s = families.nearly_kahler(4.0)
        assert s.a == pytest.approx(1.0 / 108.0)
        assert s.b == pytest.approx(1.0 / 108.0)
        assert s.P[0, 0] == pytest.approx(SQRT3 / 36.0)
        assert np.max(np.abs(s.Q)) == 0.0

    def test_validates_across_lambda(self):
        for lam in (-3.0, -1.0, 0.5, 2.0, 6.0):
            s = families.nearly_kahler(lam)
            assert s.validate(tol=1e-10).passed

    def test_lambda_zero_rejected(self):
        with pytest.raises(families.FamilyRangeError):
            families.nearly_kahler(0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "lam",
        [1e-110, -1e-110, 1e-60, np.nan,
         pytest.param(np.float64(1e-110), id="numpy-1e-110"),
         pytest.param(np.float64(1e-60), id="numpy-1e-60")],
    )
    def test_unrepresentable_lambda_rejected(self, lam):
        # a numpy scalar raises as a float does, with no RuntimeWarning
        # lambda^3 underflows to 0 at 1e-110; det P overflows at 1e-60
        with pytest.raises(families.FamilyRangeError, match="under- or overflows"):
            families.nearly_kahler(lam)


class TestW1Family:
    def test_range_validation(self):
        with pytest.raises(families.FamilyRangeError):
            families.w1_family(1.0, 0.0)
        with pytest.raises(families.FamilyRangeError):
            families.w1_family(1.0, 10.0)

    def test_endpoint_is_nearly_kahler(self):
        lam = 2.0
        p = 4.0 * SQRT3 / (9.0 * lam * lam)
        s = families.w1_family(lam, p)
        nk = families.nearly_kahler(lam)
        assert np.allclose(s.P, nk.P)
        assert np.max(np.abs(s.Q)) < 1e-8
        assert s.a == pytest.approx(nk.a)

    def test_randomized_sweep_validates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lam = rng.uniform(0.3, 4.0)
            pmax = 4.0 * SQRT3 / (9.0 * lam * lam)
            p = rng.uniform(0.05, 0.99) * pmax * rng.choice([-1.0, 1.0])
            s = families.w1_family(lam, p, sign_q=rng.choice([-1, 1]))
            assert s.validate(tol=1e-9).passed


class TestW1W3Family:
    def test_overflow_rejected(self):
        # b = 512 a^2 / (256 a - 1) overflows
        with pytest.raises(families.FamilyRangeError, match="under- or overflows"):
            families.w1w3_family(1e200)

    def test_range_validation(self):
        with pytest.raises(families.FamilyRangeError):
            families.w1w3_family(1.0 / 256.0)

    def test_sweep_validates(self):
        for a in np.linspace(1.0 / 256.0 + 1e-3, 0.2, 15):
            for sign_p in (-1, 1):
                s = families.w1w3_family(a, sign_p=sign_p)
                assert s.validate(tol=1e-9).passed


class TestZeroScalar:
    def test_each_branch_has_one_root(self):
        # The source material claims two admissible roots on the '-'
        # branch; measured truth (torsion-formula s, cross-checked against
        # direct Levi-Civita curvature) is one per branch, at
        # p = -inner * 5 sqrt(3)/33.
        for branch, inner in (("plus", 1), ("minus", -1)):
            members = families.zero_scalar_family(branch)
            assert len(members) == 1
            p = members[0].P[0, 0]
            assert p == pytest.approx(-inner * 5.0 * SQRT3 / 33.0, abs=1e-12)

    def test_extracted_s_matches_reduction(self):
        for p in (0.2, 0.45, -0.35):
            for inner in (-1, 1):
                if 36 * p * p + inner * 3 * SQRT3 * p < 0:
                    continue
                s = families.zero_scalar_structure(p, inner)
                data = extract_torsion(s)
                assert data.s == pytest.approx(
                    families.zero_scalar_s(p, inner), abs=1e-8
                )

    def test_published_closed_s_does_not_match(self):
        # pins the deviation: the published expressions disagree with the
        # extracted scalar curvature on this family
        p = 0.3
        s = families.zero_scalar_structure(p, 1)
        data = extract_torsion(s)
        assert abs(data.s - zero_scalar_closed_s(p, 1)) > 1.0
        assert abs(data.s - zero_scalar_closed_s(p, -1)) > 1.0

    def test_metric_display(self):
        # published metric display for the family: g(e1,e1) = 2(2p^2-q)^2/p^2,
        # g(e2,e2) = 2(2p^2+q)^2/p^2, g(e1,e2) = (4p^4-q^2)/p^2
        p = 0.3
        s = families.zero_scalar_structure(p, 1)
        q = s.Q[0, 0]
        g = s.metric()
        assert g[0, 0] == pytest.approx(2.0 * (2 * p * p - q) ** 2 / (p * p), abs=1e-8)
        assert g[1, 1] == pytest.approx(2.0 * (2 * p * p + q) ** 2 / (p * p), abs=1e-8)
        assert g[0, 1] == pytest.approx((4.0 * p**4 - q * q) / (p * p), abs=1e-8)

    def test_q_reality_range(self):
        with pytest.raises(families.FamilyRangeError):
            families.zero_scalar_structure(-0.05, 1)  # disc < 0

    def test_bad_branch_name(self):
        with pytest.raises(families.FamilyRangeError):
            families.zero_scalar_family("both")


class TestSineCone:
    def test_t0_is_nearly_kahler(self):
        s = families.sine_cone_trajectory(0.0)
        nk = families.nearly_kahler(4.0)
        assert np.allclose(s.P, nk.P) and np.allclose(s.Q, nk.Q)
        assert s.a == pytest.approx(nk.a)

    def test_validates_on_interval(self):
        for t in np.linspace(-0.35, 0.35, 15):
            s = families.sine_cone_trajectory(t)
            assert s.validate(tol=1e-10).passed

    def test_ode_residual(self):
        for t in np.linspace(-0.3, 0.3, 20):
            s = families.sine_cone_trajectory(t)
            deriv = families.sine_cone_derivative(t)
            assert ode_residual(s, deriv) < 1e-8

    def test_initial_derivative(self):
        # a'(0) = b'(0) = 0 and q'(0) = -sqrt(3)/108; the published
        # trajectory has q'(0) = +sqrt(3)/108, which contradicts its own
        # evolution equations (Q1'(0) = -P/3 is diagonal negative)
        da, db, dQ1, dQ2 = families.sine_cone_derivative(0.0)
        assert da == pytest.approx(0.0, abs=1e-15)
        assert db == pytest.approx(0.0, abs=1e-15)
        dq = 0.5 * (dQ1[0][0] - dQ2[0][0])
        assert dq == pytest.approx(-SQRT3 / 108.0, abs=1e-12)

    def test_w1plus_cotangent_law(self):
        for t in (-0.3, -0.1, 0.15, 0.3):
            s = families.sine_cone_trajectory(t)
            data = extract_torsion(s)
            expected = 6.0 / np.tan(2.0 * t + np.pi / 2.0)
            assert data.w1plus == pytest.approx(expected, abs=1e-9)

    def test_degenerate_time(self):
        with pytest.raises(families.FamilyRangeError):
            families.sine_cone_trajectory(np.pi / 4.0)


class TestBerger:
    """The published Berger data, emitted verbatim, fails validation.

    Exhaustively checked: no sign/transpose/swap variant, no per-entry
    sign pattern, no basis rescaling and no choice of lambda satisfies
    the normalization along the curve, and the induced 3-form gives
    K^2 = +c id (wrong stable orbit: a paracomplex, not complex,
    structure).  The 7-dimensional positivity test on the assembled
    3-form has signature (4,3) instead of definite.  These tests pin the
    measured numbers so any future repair is noticed.
    """

    def test_shape_and_lambda(self):
        s = families.berger_trajectory(np.pi / 6.0)
        assert s.lam == pytest.approx(6.0 / np.sqrt(5.0))
        r5 = np.sqrt(5.0)
        assert s.a == pytest.approx((7.0 - 2.0 * np.cos(np.pi / 2.0)) / (20.0 * r5))
        assert s.P[0, 0] == pytest.approx(np.sin(np.pi / 6.0) / r5)

    def test_published_data_fails_normalization(self):
        for t in (0.3, np.pi / 6.0, 0.8):
            s = families.berger_trajectory(t)
            resid = abs(s.det_p * s.det_p - _bracket9(s.a, s.b, s.m9.q1, s.m9.q2))
            assert resid > 1e-4  # measured ~2.5e-3

    def test_published_data_fails_validation(self):
        s = families.berger_trajectory(0.3)
        report = s.validate(tol=1e-8)
        assert not report.passed
        assert report.residuals["j_squared"] > 1.0  # measured ~8.3

    def test_published_data_fails_ode(self):
        s = families.berger_trajectory(0.3)
        deriv = families.berger_derivative(0.3)
        assert ode_residual(s, deriv) > 1.0  # measured 2.6 - 8.9
