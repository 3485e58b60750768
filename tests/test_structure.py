"""Structure parameterization, derived tensors, validation, sampling."""

from functools import cache

import numpy as np
import pytest

from nhflat.exterior import BASIS, Form, d, is_spd, wedge
from nhflat.mat3 import adjugate, det3
from nhflat import families, structure
from nhflat.structure import (
    InvalidStructureError,
    NhfStructure,
    SamplerExhaustedError,
    SingularStructureError,
    StructureError,
    ValidationReport,
    build_omega,
    invariant_three_form,
    omega_component_matrix,
    random_rotation,
    sample_random_structure,
)
from oracles import (
    contract,
    hitchin_j,
    induced_metric,
    omega_squared,
    pullback,
    volume_coefficient,
)


def random_p(rng):
    while True:
        P = rng.standard_normal((3, 3))
        if abs(det3(P)) > 0.05:
            return P


def test_omega_cubed_is_six_detp_vol():
    rng = np.random.default_rng(0)
    for _ in range(10):
        P = random_p(rng)
        om = build_omega(P)
        om3 = wedge(wedge(om, om), om)
        assert volume_coefficient(om3) == pytest.approx(6.0 * det3(P), rel=1e-10)


def test_omega_component_matrix_matches_monomials():
    # W[i-1, j-1] = coefficient of e^i ^ e^j for i < j, and W is skew
    from nhflat.exterior import BASIS

    rng = np.random.default_rng(6)
    om = Form(2, rng.standard_normal(15))
    W = omega_component_matrix(om)
    want = np.zeros((6, 6))
    for n, (i, j) in enumerate(BASIS[2]):
        want[i - 1, j - 1] = om.coeffs[n]
        want[j - 1, i - 1] = -om.coeffs[n]
    assert np.array_equal(W, want)


def build_delta(P):
    """The symmetric potential with d(delta) = omega^2 and delta ^ omega = 0."""
    adjPT = adjugate(np.asarray(P, dtype=float).T)
    return invariant_three_form(0.0, 0.0, -adjPT, -adjPT)


def test_omega_squared_closed_form():
    # omega^2 = -2 sum Adj(P^T)_ij de^{2i-1} ^ de^{2j}
    rng = np.random.default_rng(1)
    for _ in range(10):
        P = random_p(rng)
        om = build_omega(P)
        assert (wedge(om, om) - omega_squared(P)).max_abs() < 1e-12


def test_delta_primitive_and_potential():
    # d(delta) = omega^2 and delta ^ omega = 0
    rng = np.random.default_rng(2)
    for _ in range(10):
        P = random_p(rng)
        delta = build_delta(P)
        assert (d(delta) - omega_squared(P)).max_abs() < 1e-12
        assert wedge(delta, build_omega(P)).max_abs() < 1e-12


def test_dgamma_identity_any_parameters():
    # d gamma = (lam/2) omega^2 holds identically, valid structure or not
    rng = np.random.default_rng(3)
    for _ in range(10):
        lam = rng.uniform(0.5, 5.0)
        P = random_p(rng)
        Q = rng.standard_normal((3, 3))
        a, b = rng.standard_normal(2)
        gamma = NhfStructure(lam, a, b, P, Q).gamma
        assert (d(gamma) - 0.5 * lam * omega_squared(P)).max_abs() < 1e-10


def test_q1_q2_split():
    rng = np.random.default_rng(4)
    lam = 2.0
    P = random_p(rng)
    Q = rng.standard_normal((3, 3))
    s = NhfStructure(lam, 0.0, 0.0, P, Q)
    Q1, Q2 = s.Q1, s.Q2
    assert np.allclose(Q1 - Q2, 2.0 * Q)
    assert np.allclose(Q1 + Q2, -lam * adjugate(P.T))


class TestValidation:
    def test_nearly_kahler_validates(self):
        s = families.nearly_kahler(4.0)
        report = s.validate(tol=1e-10)
        assert report.passed
        assert report.worst[1] <= 1e-10

    def test_broken_symmetry_fails_with_named_residual(self):
        s = families.nearly_kahler(4.0)
        Q = s.Q.copy()
        Q[0, 1] += 0.05
        bad = NhfStructure(s.lam, s.a, s.b, s.P, Q)
        report = bad.validate()
        assert not report.passed
        assert "qtp_symmetry" in report.failing()

    def test_singular_p_rejected(self):
        # the class and message of the guard of the generated `construct`,
        # det P printed as str() prints it, a complex one included
        eye = np.eye(3).ravel().tolist()
        cases = [
            (np.zeros((3, 3)), "det P = 0.0 is singular"),
            (np.diag([1.0, 1.0, 1e-13]), "det P = 1e-13 is singular"),
            (eye[:8] + [complex(1e-13, 1e-100)], "det P = (1e-13+1e-100j) is singular"),
        ]
        for p, message in cases:
            flat = isinstance(p, list)
            with pytest.raises(SingularStructureError) as raised:
                NhfStructure(4.0, 0.0, 0.0, p, [0.0] * 9 if flat else np.eye(3), _flat=flat)
            assert type(raised.value) is SingularStructureError
            assert str(raised.value) == message
        assert issubclass(SingularStructureError, StructureError)

    def test_gamma_wedge_jgamma_normalization(self):
        # gamma ^ J gamma = (2/3) omega^3 on valid structures
        for seed in range(5):
            s = sample_random_structure(seed)
            lhs = wedge(s.gamma, s.Jgamma)
            rhs = (2.0 / 3.0) * wedge(s.omega, wedge(s.omega, s.omega))
            assert (lhs - rhs).max_abs() < 1e-9

    def test_metric_spd_and_compatible(self):
        s = families.nearly_kahler(4.0)
        g = s.metric()
        assert np.allclose(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0)
        # nearly Kahler metric at lambda = 4: diagonal 1/18, cross -1/36
        assert g[0, 0] == pytest.approx(1.0 / 18.0)
        assert g[0, 1] == pytest.approx(-1.0 / 36.0)


class TestJ:
    def test_j_squared_minus_identity(self):
        for seed in range(10):
            s = sample_random_structure(seed)
            assert np.max(np.abs(s.J @ s.J + np.eye(6))) < 1e-8

    def test_hitchin_oracle_agreement(self):
        for seed in range(30):
            s = sample_random_structure(seed)
            Jh = hitchin_j(s.gamma, s.omega)
            assert np.max(np.abs(Jh - s.J)) < 1e-9

    def test_root_solve_sampler(self):
        for seed in range(5):
            s = sample_random_structure(seed, method="root-solve")
            assert s.validate().passed
            Jh = hitchin_j(s.gamma, s.omega)
            assert np.max(np.abs(Jh - s.J)) < 1e-8

    def test_root_solve_sampler_residuals_many_seeds(self):
        # the Gauss-Newton loop runs until its residuals stop decreasing,
        # i.e. to rounding, far below validate's default 1e-9
        for seed in range(30):
            report = sample_random_structure(seed, method="root-solve").validate()
            assert report.passed
            assert max(report.residuals.values()) <= 1e-10, seed

    def test_jgamma_closed_form_vs_slot_oracle(self):
        # The closed-form J gamma equals 2x the slot application of J to
        # gamma on all three slots; the factor 2 is part of the closed-form
        # normalization, fixed by gamma ^ Jgamma = (2/3) omega^3.
        for seed in range(5):
            s = sample_random_structure(seed)
            slot = pullback(s.J, s.gamma)  # gamma(J., J., J.)
            assert (2.0 * slot - s.Jgamma).max_abs() < 1e-8

    def test_jgamma_wedge_omega_zero(self):
        for seed in range(5):
            s = sample_random_structure(seed)
            assert wedge(s.Jgamma, s.omega).max_abs() < 1e-9


class TestRecord:
    def test_round_trip(self):
        s = sample_random_structure(7)
        t = NhfStructure.from_record(s.to_record())
        assert np.allclose(t.P, s.P) and np.allclose(t.Q, s.Q)
        assert t.a == s.a and t.b == s.b and t.lam == s.lam

    def test_orientation_mismatch_rejected(self):
        rec = families.nearly_kahler(4.0).to_record()
        rec["orientation"] = -rec["orientation"]
        with pytest.raises(StructureError):
            NhfStructure.from_record(rec)

    def test_malformed_record(self):
        with pytest.raises(StructureError):
            NhfStructure.from_record({"lambda": 4.0})

    def test_record_parses_p_and_q_once(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m)
            return matrix9(m)

        rec, matrix9 = sample_random_structure(7).to_record(), structure._matrix9
        monkeypatch.setattr(structure, "_matrix9", counted)
        t = NhfStructure.from_record(rec)
        assert calls == [rec["P"], rec["Q"]]
        assert t.m9.p == [x for row in rec["P"] for x in row]
        assert t.m9.q == [x for row in rec["Q"] for x in row]

    def test_flat_nine_lists_are_not_3x3(self):
        s = families.nearly_kahler(4.0)
        with pytest.raises(StructureError, match="P and Q must be 3x3 matrices"):
            NhfStructure(s.lam, s.a, s.b, s.m9.p, s.m9.q)


class TestEquivariance:
    def test_identity_rotation_fixes_structure(self):
        s = families.w1_family(1.0, 0.5)
        t = s.rotated(np.eye(3), np.eye(3))
        assert np.allclose(t.P, s.P) and np.allclose(t.Q, s.Q)

    def test_rotation_preserves_validity_and_invariants(self):
        rng = np.random.default_rng(11)
        s = families.w1_family(1.0, 0.5)
        for _ in range(20):
            g, h = random_rotation(rng), random_rotation(rng)
            t = s.rotated(g, h)
            assert t.validate().passed
            assert t.det_p == pytest.approx(s.det_p, abs=1e-12)

    def test_sampler_validity_many_seeds(self):
        for seed in range(100):
            s = sample_random_structure(seed)
            report = s.validate(tol=1e-9)
            assert report.passed, (seed, report.worst)
            assert s.metric_spd


class TestCachedValues:
    def test_each_equals_its_formula(self):
        samples = [sample_random_structure(seed) for seed in range(10)]
        samples.append(families.nearly_kahler(-3.0))
        for s in samples:
            R1, R2 = (np.reshape(x, (3, 3)) for x in (s.m9.r1, s.m9.r2))
            assert s.w1plus == float(np.trace(s.P.T @ (R1 + R2))) / (2.0 * s.det_p * s.det_p)
            factors = (s.gamma.coeffs, s.Jgamma.coeffs, s.P, s.Q, s.Q1, s.Q2)
            assert tuple(s.sizes) == tuple(float(np.max(np.abs(m))) for m in factors)
            assert s.sizes.p == float(np.max(np.abs(s.omega.coeffs)))
            assert s.metric_spd is is_spd(induced_metric(s))

    def test_computed_once(self):
        s = sample_random_structure(3)
        assert s.sizes is s.sizes

    def test_indefinite_metric_has_no_inverse(self):
        rng = np.random.default_rng(4)
        draws = (
            NhfStructure(
                4.0, *rng.standard_normal(2), random_p(rng), rng.standard_normal((3, 3))
            )
            for _ in range(100)
        )
        s = next(t for t in draws if not is_spd(induced_metric(t)))
        assert not s.metric_spd and not s.validate().passed
        with pytest.raises(InvalidStructureError):
            np.linalg.inv(s.metric())


def test_nan_residual_fails_and_is_the_worst():
    # a NaN residual fails `<= tol` and outranks every number, wherever it
    # stands among the residuals
    nan = float("nan")
    for residuals in (
        {"j_squared": 2.2e-16, "normalization": nan, "symmetry": 1e-3},
        {"normalization": nan, "j_squared": 2.2e-16, "symmetry": 1e-3},
        {"j_squared": 2.2e-16, "symmetry": 1e-3, "normalization": nan},
    ):
        report = ValidationReport(residuals, True, 1e-9)
        assert not report.passed
        assert report.failing() == [k for k in residuals if k != "j_squared"]
        name, value = report.worst
        assert name == "normalization" and value != value


@pytest.mark.parametrize("entry", range(18))
def test_nan_entry_fails_validation(entry):
    # built directly, not through from_record, which rejects it: a NaN in
    # any entry of P or Q fails every verdict instead of raising from the
    # eigenvalue solver, and shows in the size of its matrix
    from nhflat.torsion import extract_torsion

    base = families.w1_family(1.0, 0.5)
    P, Q = base.P.copy(), base.Q.copy()
    (P if entry < 9 else Q).flat[entry % 9] = np.nan
    s = NhfStructure(base.lam, base.a, base.b, P, Q)
    report = s.validate()
    assert not report.passed and not s.metric_spd
    assert np.isnan(s.sizes.p if entry < 9 else s.sizes.q)
    with pytest.raises(InvalidStructureError):
        extract_torsion(s)


def test_hitchin_j_matches_monomial_loop():
    # reference: K[m - 1, a - 1] from the 5-monomial missing index m of
    # (e_a -| gamma) ^ gamma, one entry at a time
    for seed in range(5):
        s = sample_random_structure(seed)
        K = np.zeros((6, 6))
        for a in range(1, 7):
            f5 = wedge(contract(a, s.gamma), s.gamma)
            for n, mono in enumerate(BASIS[5]):
                missing = 21 - sum(mono)
                K[missing - 1, a - 1] += ((-1) ** (missing - 1)) * f5.coeffs[n]
        J = K / np.sqrt(-np.trace(K @ K) / 6.0)
        g = omega_component_matrix(s.omega) @ J
        if np.linalg.eigvalsh(0.5 * (g + g.T)).min() < 0:
            J = -J
        np.testing.assert_array_equal(hitchin_j(s.gamma, s.omega), J)


# numpy warns on the inf and NaN arithmetic; only exceptions are checked
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e300, 1e-300])
@pytest.mark.parametrize("entry", range(18))
def test_extreme_entry_outcomes(entry, value):
    # built directly, not through from_record: each entry of P or Q of a
    # W1 member set to a non-finite or extreme value.  Construction,
    # validate and extract_torsion end in a verdict or a StructureError,
    # never in another exception (a numpy error).  A non-finite entry, or 1e300 in Q,
    # fails validation with an indefinite metric; 1e300 in P makes P
    # singular by shape.  1e-300 in place of a zero entry leaves the
    # structure valid; in place of a nonzero one it makes P singular, or
    # leaves Q an invalid structure with a positive definite metric.
    from nhflat.torsion import extract_torsion

    base = families.w1_family(1.0, 0.5)
    P, Q = base.P.copy(), base.Q.copy()
    target = P if entry < 9 else Q
    was_zero = target.flat[entry % 9] == 0.0
    target.flat[entry % 9] = value
    singular = entry < 9 and (value == 1e300 or (value == 1e-300 and not was_zero))
    if singular:
        with pytest.raises(SingularStructureError):
            NhfStructure(base.lam, base.a, base.b, P, Q)
        return
    s = NhfStructure(base.lam, base.a, base.b, P, Q)
    report = s.validate()
    if value == 1e-300 and was_zero:
        assert report.passed and s.metric_spd
        assert extract_torsion(s).class_label == "W1"
        return
    assert not report.passed
    assert s.metric_spd is (value == 1e-300)
    with pytest.raises(InvalidStructureError):
        extract_torsion(s)


# -- the root-solve sampler ----------------------------------------------


def test_root_solve_sampler_exhausted(monkeypatch):
    # every draw fails: SamplerExhaustedError after exactly 50 solves
    calls = []

    def fail(*args):
        calls.append(args)
        raise StructureError("no root")

    monkeypatch.setattr(structure, "_solve_p", fail)
    with pytest.raises(SamplerExhaustedError, match="after 50 attempts"):
        sample_random_structure(0, method="root-solve")
    assert len(calls) == 50


def test_unknown_sampling_method():
    with pytest.raises(ValueError, match="unknown sampling method") as exc:
        sample_random_structure(0, method="newton")
    assert not isinstance(exc.value, StructureError)


def root_solve_start(seed):
    """The arguments (lambda, a, b, P, Q) of the `_solve_p` call whose
    result `sample_random_structure(seed, method="root-solve")` returns
    (its last), and that result."""
    calls = []
    solve = structure._solve_p

    def record(*args):
        calls.append(args)
        return solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_solve_p", record)
        s = sample_random_structure(seed, method="root-solve")
    return calls[-1], s


def test_root_solve_point_does_not_depend_on_rounding():
    # one ulp up, then down, on every input of the accepted draw moves the
    # point reached by far less than the solution set's extent; with the
    # central-difference Jacobian 4 of these seeds moved by more than 1e-7
    for seed in range(30):
        (lam, a, b, P, Q), s = root_solve_start(seed)
        p = np.array(s.m9.p)
        for to in (np.inf, -np.inf):
            t = structure._solve_p(lam, *(np.nextafter(x, to) for x in (a, b, P, Q)))
            move = np.max(np.abs(np.array(t.m9.p) - p)) / np.max(np.abs(p))
            assert move <= 1e-7, (seed, to, move)


def test_solve_p_builds_nine_structures_per_jacobian(monkeypatch):
    # 1 start, then per step 9 complex-step columns and 1 trial point
    residuals = NhfStructure.defining_residuals
    calls, solves = [0], [0]
    lstsq = np.linalg.lstsq

    def count_residuals(self):
        calls[0] += 1
        return residuals(self)

    def count_lstsq(*args, **kwargs):
        solves[0] += 1
        return lstsq(*args, **kwargs)

    (lam, a, b, P, Q), _ = root_solve_start(2)
    monkeypatch.setattr(NhfStructure, "defining_residuals", count_residuals)
    monkeypatch.setattr(np.linalg, "lstsq", count_lstsq)
    structure._solve_p(lam, a, b, P, Q)
    assert solves[0] > 0
    assert calls[0] == 1 + 10 * solves[0]


def complex_step(s, k, h):
    """`defining_residuals` of s with P_k moved to P_k + i h."""
    p = list(s.m9.p)
    p[k] = complex(p[k], h)
    return NhfStructure(s.lam, s.a, s.b, p, s.m9.q, _flat=True).defining_residuals()


@cache
def jacobian_samples():
    return tuple(sample_random_structure(seed) for seed in range(20)) + tuple(
        sample_random_structure(seed, method="root-solve") for seed in range(20)
    )


def test_complex_step_jacobian_matches_central_differences():
    # the Jacobian `_solve_p` reads, Im r(P + i h e_k) / h, against
    # central differences with the step eps^(1/3) max|P|, whose error of
    # about eps^(2/3) dominates the difference
    for n, s in enumerate(jacobian_samples()):
        p, q = s.m9.p, s.m9.q
        h = 1e-100 * max(map(abs, p))
        exact = np.array([complex_step(s, k, h) for k in range(9)]).imag / h
        step = np.finfo(float).eps ** (1.0 / 3.0) * max(map(abs, p))

        def residuals(k, sign):
            x = list(p)
            x[k] += sign * step
            return NhfStructure(s.lam, s.a, s.b, x, q, _flat=True).defining_residuals()

        diff = np.array(
            [np.subtract(residuals(k, 1), residuals(k, -1)) for k in range(9)]
        ) / (2.0 * step)
        assert np.max(np.abs(exact - diff)) <= 1e-5 * np.max(np.abs(exact)), n


def test_complex_step_real_parts_are_the_float_residuals():
    # the value path of construction and `defining_residuals` is analytic:
    # a float(), a comparison or a math call on it would change the real
    # parts or raise
    rng = np.random.default_rng(11)
    structures = list(jacobian_samples())
    for _ in range(50):
        lam = rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0])
        a, b = rng.standard_normal(2)
        structures.append(NhfStructure(lam, a, b, random_p(rng), rng.standard_normal((3, 3))))
    for n, s in enumerate(structures):
        r = s.defining_residuals()
        h = 1e-100 * max(map(abs, s.m9.p))
        for k in range(9):
            assert np.real(complex_step(s, k, h)).tolist() == r, (n, k)
