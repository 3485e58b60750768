"""Flow integration, P recovery, G2 residual, CSV output."""

from fractions import Fraction

import numpy as np
import pytest

from nhflat import families, flow
from nhflat.mat3 import adjugate, det3
from nhflat.structure import (
    SingularStructureError,
    abr9,
    random_rotation,
    sample_random_structure,
)


class TestRecoverP:
    def test_identity(self):
        lam = 2.0
        Q1 = Q2 = -0.5 * lam * np.eye(3)
        P, det_p = flow.recover_p(lam, Q1, Q2, 1.0)
        assert np.allclose(P, np.eye(3))
        assert det_p == pytest.approx(1.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            P = rng.standard_normal((3, 3))
            if abs(det3(P)) < 0.05:
                continue
            lam = rng.uniform(0.5, 4.0)
            M = adjugate(P.T)
            split = rng.standard_normal((3, 3))
            Q1 = -0.5 * lam * M + split
            Q2 = -0.5 * lam * M - split
            P2, det_p = flow.recover_p(lam, Q1, Q2, det3(P))
            assert np.max(np.abs(P2 - P)) < 1e-10
            assert det_p == pytest.approx(det3(P))

    def test_orientation_continuity(self):
        P = -np.eye(3)  # det -1
        lam = 1.0
        M = adjugate(P.T)
        Q1 = Q2 = -0.5 * lam * M
        P2, det_p = flow.recover_p(lam, Q1, Q2, -1.0)
        assert det_p == pytest.approx(-1.0)
        assert np.allclose(P2, P)

    def test_nonpositive_detm_rejected(self):
        with pytest.raises(SingularStructureError):
            flow.recover_p(1.0, np.eye(3), np.eye(3), 1.0)  # M = -2 Id


class TestRhs:
    def test_consistency_q1_plus_q2(self):
        # Q1' + Q2' = -(2 lam / det P) R exactly
        from nhflat.structure import compute_abr

        s = sample_random_structure(3)
        da, db, dQ1, dQ2 = flow.flow_rhs(s.lam, s.a, s.b, s.Q1, s.Q2, s.det_p)
        _, _, _, _, R = compute_abr(s.a, s.b, s.Q1, s.Q2)
        assert np.allclose(dQ1 + dQ2, -(2.0 * s.lam / s.det_p) * R, atol=1e-12)

    def test_rhs_equals_gamma_evolution(self):
        # gamma' = d omega - lam J gamma, componentwise on the state
        from nhflat.exterior import d
        from nhflat.structure import invariant_three_form

        s = sample_random_structure(5)
        da, db, dQ1, dQ2 = flow.flow_rhs(s.lam, s.a, s.b, s.Q1, s.Q2, s.det_p)
        dgamma = invariant_three_form(da, db, dQ1, dQ2)
        target = d(s.omega) - s.lam * s.Jgamma
        assert (dgamma - target).max_abs() < 1e-10


class TestIntegrate:
    def test_matches_sine_cone(self):
        s0 = families.nearly_kahler(4.0)
        traj = flow.integrate(s0, 0.0, 0.3, h=1e-3, record_every=50)
        num = traj.structure_at(0.3)
        ref = families.sine_cone_trajectory(0.3)
        assert abs(num.a - ref.a) < 1e-6
        assert abs(num.b - ref.b) < 1e-6
        assert np.max(np.abs(num.P - ref.P)) < 1e-6
        assert np.max(np.abs(num.Q1 - ref.Q1)) < 1e-6
        assert np.max(np.abs(num.Q2 - ref.Q2)) < 1e-6

    def test_backward_integration(self):
        s0 = families.nearly_kahler(4.0)
        traj = flow.integrate(s0, 0.0, -0.25, h=1e-3, record_every=50)
        ref = families.sine_cone_trajectory(-0.25)
        assert np.max(np.abs(traj.structure_at(-0.25).P - ref.P)) < 1e-6

    def test_fourth_order_convergence(self):
        s0 = families.nearly_kahler(4.0)
        errs = []
        steps = [4e-3, 2e-3, 1e-3]
        for h in steps:
            traj = flow.integrate(s0, 0.0, 0.2, h=h, record_every=10**9)
            num = traj.structure_at(0.2)
            ref = families.sine_cone_trajectory(0.2)
            errs.append(
                max(np.max(np.abs(num.Q1 - ref.Q1)), abs(num.a - ref.a))
            )
        order = np.log2(errs[0] / errs[2]) / 2.0
        assert 3.7 <= order <= 4.3

    def test_diagnostics_conserved(self):
        s0 = families.nearly_kahler(4.0)
        traj = flow.integrate(s0, 0.0, 0.3, h=1e-3, record_every=25)
        rec = traj.to_record()
        assert rec["max_norm_resid"] < 1e-6
        assert rec["max_sym_resid"] < 1e-6
        assert rec["max_g2_resid"] < 1e-6

    def test_singularity_halt(self):
        s0 = families.nearly_kahler(4.0)
        with pytest.raises(flow.FlowSingularityError) as err:
            flow.integrate(s0, 0.0, 1.2, h=1e-3, record_every=100)
        # det P = (sqrt(3)/36 cos^2 2t)^3 crosses 1e-6 near t = 0.549
        assert err.value.t == pytest.approx(0.549, abs=0.01)
        assert err.value.trajectory.terminated == "singular"
        assert len(err.value.trajectory.samples) > 0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("t_end, h, n_steps", [(0.01, 0.3, 1), (0.3, 0.007, 43)])
    def test_run_ends_at_t_end_when_h_does_not_divide(self, sign, t_end, h, n_steps):
        # the last step is shortened to end exactly at t_end
        s0 = families.nearly_kahler(4.0)
        traj = flow.integrate(s0, 0.0, sign * t_end, h=h, record_every=10**9)
        assert traj.terminated == "completed"
        assert traj.samples[-1].t == sign * t_end
        assert traj.to_record()["t_end"] == sign * t_end
        ref = families.sine_cone_trajectory(sign * t_end)
        end = traj.samples[-1].structure
        assert np.max(np.abs(end.P - ref.P)) < 1e-6
        # the same run, recording every step: full steps, then the short one
        traj = flow.integrate(s0, 0.0, sign * t_end, h=h, record_every=1)
        times = [sample.t for sample in traj.samples]
        assert len(times) == n_steps + 1
        assert times[:-1] == [sign * k * h for k in range(n_steps)]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_step_count_kept_when_h_divides(self, sign):
        # a span within a relative 1e-9 of 300 steps keeps 300 full steps
        s0 = families.nearly_kahler(4.0)
        for t_end in (0.3, 0.3 * (1 + 1e-12), 0.3 * (1 - 1e-12)):
            traj = flow.integrate(s0, 0.0, sign * t_end, h=1e-3, record_every=100)
            assert [sample.t for sample in traj.samples] == [
                sign * k * 1e-3 for k in (0, 100, 200, 300)
            ]

    def test_invalid_initial_rejected(self):
        from nhflat.structure import InvalidStructureError, NhfStructure

        s = families.nearly_kahler(4.0)
        Q = s.Q.copy()
        Q[0, 1] += 0.05
        bad = NhfStructure(s.lam, s.a, s.b, s.P, Q)
        with pytest.raises(InvalidStructureError):
            flow.integrate(bad, 0.0, 0.1)


    @pytest.mark.parametrize("h", [0.0, -0.0, np.nan, np.inf, -np.inf])
    def test_bad_step_rejected(self, h):
        s0 = families.nearly_kahler(4.0)
        with pytest.raises(ValueError, match="step size"):
            flow.integrate(s0, 0.0, 0.01, h=h)

    @pytest.mark.parametrize(
        "t0, t1, h",
        [(0.0, 1e15, 1e-3), (0.0, -1.0, 1e-9), (-1e308, 1e308, 1.0), (0.0, 1.0, 5e-324)],
    )
    def test_step_count_bound(self, t0, t1, h):
        # checked before any step: these would take more than MAX_STEPS
        with pytest.raises(ValueError, match="at most"):
            flow.check_step(h, 1, t0, t1)

    def test_step_count_at_bound_accepted(self):
        flow.check_step(1e-3, 1, 0.0, flow.MAX_STEPS * 1e-3)
        flow.check_step(-1.0, 1, 0.0, -float(flow.MAX_STEPS))

    @pytest.mark.parametrize("record_every", [0, -3])
    def test_bad_record_every_rejected(self, record_every):
        s0 = families.nearly_kahler(4.0)
        with pytest.raises(ValueError, match="record_every"):
            flow.integrate(s0, 0.0, 0.01, record_every=record_every)


class TestAbrDerivative:
    """_abr_derivative against the exact derivative of the 9-tuple
    polynomials evaluated on Fractions."""

    @staticmethod
    def exact(x, v):
        # f(x + t v) is cubic in t, so the forward 4-point formula
        # f'(0) = (-11 f(0) + 18 f(1) - 9 f(2) + 2 f(3)) / 6 is exact
        xf = [Fraction(t) for t in x]
        vf = [Fraction(t) for t in v]

        def f(k):
            y = [xi + k * vi for xi, vi in zip(xf, vf)]
            A, B, R1, R2 = abr9(y[0], y[1], y[2:11], y[11:])
            return [A, B, *R1, *R2]

        return [
            (-11 * f0 + 18 * f1 - 9 * f2 + 2 * f3) / 6
            for f0, f1, f2, f3 in zip(f(0), f(1), f(2), f(3))
        ]

    def assert_exact(self, x, v):
        got = flow._pack(*flow._abr_derivative(*flow._unpack(x), *flow._unpack(v)))
        want = self.exact(x, v)
        err = max(abs(Fraction(g) - w) for g, w in zip(got, want))
        assert float(err / max(abs(w) for w in want)) <= 1e-12

    @pytest.mark.parametrize("lam", [4.0, 120.0])
    def test_exact_on_scaled_flow_direction(self, lam):
        # the rotated NK point at lambda = 4 scaled by c = lam / 4:
        # (a, b, Q1, Q2) -> c^-3 (a, b, Q1, Q2), time derivatives -> c^-2
        rng = np.random.default_rng(8)
        g, h = random_rotation(rng), random_rotation(rng)
        s = families.nearly_kahler(4.0).rotated(g, h)
        deriv = flow.flow_rhs(s.lam, s.a, s.b, s.Q1, s.Q2, s.det_p)
        c = lam / 4.0
        x = [t / c**3 for t in flow._pack(s.a, s.b, s.Q1, s.Q2)]
        v = [t / c**2 for t in flow._pack(*deriv)]
        self.assert_exact(x, v)

    def test_exact_on_random_direction(self):
        s = sample_random_structure(4)
        rng = np.random.default_rng(9)
        self.assert_exact(flow._pack(s.a, s.b, s.Q1, s.Q2), rng.standard_normal(20).tolist())


class TestG2Residual:
    def test_zero_on_exact_trajectory(self):
        for t in np.linspace(-0.25, 0.25, 9):
            s = families.sine_cone_trajectory(t)
            deriv = families.sine_cone_derivative(t)
            assert flow.g2_residual(s, *deriv) < 1e-6

    def test_constant_trajectory_negative_control(self):
        # a static nearly Kahler slice is not a G2 cone solution; the
        # residual must be decisively nonzero.  (The cited bound of 0.1
        # is for a unit-scale convention; at lambda = 4 scale the measured
        # residual is ~1.6e-2, still 13 orders above the pass threshold.)
        s = families.nearly_kahler(4.0)
        zero = (0.0, 0.0, np.zeros((3, 3)), np.zeros((3, 3)))
        resid = flow.g2_residual(s, *zero)
        assert resid > 1e-2

    def test_djgamma_is_minus_domega_wedge_omega(self):
        # the derived constraint d(J gamma) = -omega' ^ omega along flows
        from nhflat.exterior import d, wedge

        for t in (-0.2, 0.1, 0.25):
            s = families.sine_cone_trajectory(t)
            deriv = families.sine_cone_derivative(t)
            domega, _, _, _ = flow._derivative_forms(s, *deriv)
            lhs = d(s.Jgamma)
            rhs = -1.0 * wedge(domega, s.omega)
            assert (lhs - rhs).max_abs() < 1e-7


class TestTrajectoryOutput:
    def test_csv_header_and_shape(self):
        s0 = families.nearly_kahler(4.0)
        traj = flow.integrate(s0, 0.0, 0.02, h=1e-3, record_every=5)
        text = traj.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(flow.CSV_COLUMNS)
        assert lines[0].startswith("t,a,b,Q1_11")
        assert lines[0].endswith("norm_resid,sym_resid,g2_resid")
        assert len(lines) == 1 + len(traj.samples)
        assert all(len(line.split(",")) == len(flow.CSV_COLUMNS) for line in lines)

    def test_csv_file_and_json_record(self, tmp_path):
        s0 = families.nearly_kahler(4.0)
        traj = flow.integrate(s0, 0.0, 0.02, h=1e-3, record_every=5)
        out = tmp_path / "traj.csv"
        traj.to_csv(out)
        assert out.read_text().startswith("t,a,b")
        rec = traj.to_record()
        assert rec["terminated"] == "completed"
        assert rec["t_end"] == pytest.approx(0.02)
