"""Flow integration, P recovery, G2 residual, CSV output."""

import numpy as np
import pytest

from nhflat import families, flow
from nhflat.exterior import d, relative, wedge
from nhflat.mat3 import adjugate, det3, polarized_adjugate
from nhflat.structure import (
    NhfStructure,
    SingularStructureError,
    build_omega,
    invariant_three_form,
    sample_random_structure,
)
from oracles import de_de_form, structure_at


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
        num = structure_at(traj, 0.3)
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
        assert np.max(np.abs(structure_at(traj, -0.25).P - ref.P)) < 1e-6

    def test_fourth_order_convergence(self):
        s0 = families.nearly_kahler(4.0)
        errs = []
        steps = [4e-3, 2e-3, 1e-3]
        for h in steps:
            traj = flow.integrate(s0, 0.0, 0.2, h=h, record_every=10**9)
            num = structure_at(traj, 0.2)
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

    def test_steps_counts_rk4_steps(self):
        # 50 steps, 6 samples
        s0 = families.nearly_kahler(4.0)
        traj = flow.integrate(s0, 0.0, 0.05, h=1e-3, record_every=10)
        assert len(traj.samples) == 6
        assert traj.to_record()["steps"] == 50

    def test_partial_trajectory_counts_completed_steps(self):
        # the halt raises in the step from t, so the steps before it completed
        s0 = families.nearly_kahler(4.0)
        with pytest.raises(flow.FlowSingularityError) as err:
            flow.integrate(s0, 0.0, 1.2, h=1e-3, record_every=100)
        traj = err.value.trajectory
        assert traj.to_record()["steps"] == round(err.value.t / 1e-3)

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


def p_chain_domega(s, dQ1, dQ2):
    """omega' from P', which follows from M = Adj(P^T) = -(Q1 + Q2)/lambda:
        (det P)' = tr(Adj(M) M') / (2 det P)
        (P^T)'   = (Adj'(M) det P - Adj(M) (det P)') / (det P)^2
    with Adj'(M) in direction M' the polarized adjugate."""
    M = -(s.Q1 + s.Q2) / s.lam
    dM = -(np.asarray(dQ1) + np.asarray(dQ2)) / s.lam
    ddet_p = float(np.trace(adjugate(M) @ dM)) / (2.0 * s.det_p)
    dPT = (polarized_adjugate(M, dM) * s.det_p - adjugate(M) * ddet_p) / s.det_p**2
    return build_omega(dPT.T)


def four_piece_g2_residual(s, da, db, dQ1, dQ2):
    """The G2 residual with all four pieces and (omega^2)' = 2 omega ^ omega'
    from the P' chain."""
    om2 = wedge(s.omega, s.omega)
    dgamma = invariant_three_form(da, db, dQ1, dQ2)
    domega2 = 2.0 * wedge(s.omega, p_chain_domega(s, dQ1, dQ2))
    return max(
        (d(s.gamma) - 0.5 * s.lam * om2).max_abs(),
        (dgamma - d(s.omega) + s.lam * s.Jgamma).max_abs(),
        0.5 * d(om2).max_abs(),
        (0.5 * domega2 + d(s.Jgamma)).max_abs(),
    )


def dt_pieces(s, da, db, dQ1, dQ2):
    """The two dt pieces of `g2_residual`, each relative to its terms."""
    dgamma = invariant_three_form(da, db, dQ1, dQ2)
    domega, ljg = d(s.omega), s.lam * s.Jgamma
    half_domega2 = de_de_form((dQ1 + dQ2) / s.lam)
    djg = d(s.Jgamma)
    return (
        relative(dgamma - domega + ljg, dgamma, domega, ljg),
        relative(half_domega2 + djg, half_domega2, djg),
    )


#: The sample times of `nhflat verify-g2` with its defaults.
VERIFY_G2_TIMES = np.linspace(0.05, 0.3, 20)


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
        for t in (-0.2, 0.1, 0.25):
            s = families.sine_cone_trajectory(t)
            deriv = families.sine_cone_derivative(t)
            domega = p_chain_domega(s, *deriv[2:])
            lhs = d(s.Jgamma)
            rhs = -1.0 * wedge(domega, s.omega)
            assert (lhs - rhs).max_abs() < 1e-7

    def test_dt_pieces_vanish_with_flow_rhs(self):
        # both dt pieces hold on any state once the derivatives come from
        # flow_rhs, so along `integrate` g2_resid cannot see drift
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(200):
            P = rng.standard_normal((3, 3))
            if abs(det3(P)) < 0.05:
                continue
            lam = rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0])
            a, b = rng.standard_normal(2)
            s = NhfStructure(lam, a, b, P, rng.standard_normal((3, 3)))
            assert not s.validate().passed
            deriv = flow.flow_rhs(s.lam, s.a, s.b, s.Q1, s.Q2, s.det_p)
            worst = max(worst, *dt_pieces(s, *deriv))
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "member, deriv, times",
        [
            (families.sine_cone_trajectory, families.sine_cone_derivative,
             np.linspace(-0.25, 0.25, 11)),
            (families.berger_trajectory, families.berger_derivative,
             np.linspace(0.05, 0.3, 11)),
        ],
        ids=["sine-cone", "berger"],
    )
    def test_omega2_derivative_matches_p_chain(self, member, deriv, times):
        for t in times:
            s = member(float(t))
            dQ1, dQ2 = deriv(float(t))[2:]
            want = 2.0 * wedge(s.omega, p_chain_domega(s, dQ1, dQ2))
            got = 2.0 * de_de_form(np.add(dQ1, dQ2) / s.lam)
            assert relative(got - want, want) <= 1e-12

    def test_omega2_derivative_matches_p_chain_in_random_directions(self):
        rng = np.random.default_rng(22)
        for seed in range(20):
            s = sample_random_structure(seed)
            dQ1, dQ2 = rng.standard_normal((2, 3, 3))
            want = 2.0 * wedge(s.omega, p_chain_domega(s, dQ1, dQ2))
            got = 2.0 * de_de_form((dQ1 + dQ2) / s.lam)
            assert relative(got - want, want) <= 1e-12

    @pytest.mark.parametrize(
        "member, deriv",
        [
            (families.sine_cone_trajectory, families.sine_cone_derivative),
            (families.berger_trajectory, families.berger_derivative),
        ],
        ids=["sine-cone", "berger"],
    )
    def test_matches_four_piece_residual(self, member, deriv):
        for t in VERIFY_G2_TIMES:
            s = member(float(t))
            dt = deriv(float(t))
            old = four_piece_g2_residual(s, *dt)
            new = flow.g2_residual(s, *dt)
            # the terms compared: d omega, lambda J gamma and d(J gamma)
            size = max(d(s.omega).max_abs(), abs(s.lam) * s.Jgamma.max_abs(),
                       d(s.Jgamma).max_abs())
            assert abs(new - old) <= 1e-12 * max(old, size)


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


class TestInvalidSamples:
    def test_drift_off_the_valid_set_is_flagged(self):
        # NK at lambda = 4: the normalization drifts above the tolerance
        # near t = 0.4 while the run completes
        s0 = families.nearly_kahler(4.0)
        traj = flow.integrate(s0, 0.0, 0.5, h=1e-3, record_every=10)
        rec = traj.to_record()
        assert traj.terminated == "completed" and len(traj.samples) == 51
        assert [s.passed for s in traj.samples] == [
            s.structure.validate().passed for s in traj.samples
        ]
        assert rec["invalid_samples"] == 11
        assert rec["t_first_invalid"] == pytest.approx(0.4)
        assert all(not s.passed for s in traj.samples if s.t >= 0.4 - 1e-12)

    def test_coarse_step_over_the_cone_tip_is_flagged(self):
        # h = 0.05 steps past the collapse at t = pi/4 and reports
        # completed; every sample after the start fails validate
        s0 = families.nearly_kahler(4.0)
        traj = flow.integrate(s0, 0.0, 1.2, h=0.05)
        rec = traj.to_record()
        assert rec["terminated"] == "completed"
        assert traj.samples[0].passed
        assert not any(s.passed for s in traj.samples[1:])
        assert rec["invalid_samples"] == len(traj.samples) - 1
        assert rec["t_first_invalid"] == pytest.approx(0.05)
        assert rec["max_g2_resid"] < 1e-15  # g2_resid cannot see it

    def test_time_of_each_maximum(self):
        s0 = families.nearly_kahler(4.0)
        traj = flow.integrate(s0, 0.0, 0.5, h=1e-3, record_every=10)
        rec = traj.to_record()
        for name in ("norm_resid", "sym_resid", "g2_resid"):
            values = [getattr(s, name) for s in traj.samples]
            k = values.index(max(values))
            assert rec[f"max_{name}"] == values[k]
            assert rec[f"t_max_{name}"] == traj.samples[k].t
        # the normalization drift grows along the run
        assert rec["t_max_norm_resid"] == pytest.approx(0.5)

    def test_all_valid_run_has_no_invalid_time(self):
        s0 = families.nearly_kahler(4.0)
        rec = flow.integrate(s0, 0.0, 0.05, h=1e-3, record_every=10).to_record()
        assert rec["invalid_samples"] == 0 and rec["t_first_invalid"] is None
