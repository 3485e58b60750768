"""Oracles for the scalar flow kernel.

The RK4 loop below is the per-stage numpy integration over the public
array API (`flow_rhs`, `recover_p`); `flow.integrate` runs the same scheme
on a flat list of floats and must reproduce it at every recorded sample.
The 3x3 helpers and `compute_abr` are checked against numpy's determinant,
the adjugate from 2x2 minors and the explicit matrix formulas.

`composed_abr9`, `composed_recover9` and `composed_stage` are the flow
kernel composed from the `mat3` 9-sequence helpers.  The straight-line
`abr9`, `_recover9` and `_stage` write out the same expressions, so they
must agree with them bit for bit, and so must every trajectory.

`form_g2_residual` is `flow.g2_residual` on forms, by `d`; the coordinate
version must equal it to the bit."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from nhflat import families, flow, structure
from nhflat.exterior import d
from nhflat.flow import g2_residual
from nhflat.mat3 import adjugate, cofactor9, det3, det9, mul9, transpose9
from nhflat.structure import (
    SingularStructureError,
    abr9,
    compute_abr,
    invariant_three_form,
    random_rotation,
    sample_random_structure,
)
from oracles import de_de_form

REL_TOL = 1e-13


def numpy_rk4_states(initial, t0, t1, h, record_every):
    """(t, a, b, Q1, Q2, P) at every recorded step of a numpy RK4 loop."""
    lam = initial.lam
    direction = 1.0 if t1 >= t0 else -1.0
    h = abs(h) * direction
    n_steps = int(round(abs(t1 - t0) / abs(h)))
    a, b = initial.a, initial.b
    Q1, Q2 = initial.Q1.copy(), initial.Q2.copy()
    det_p = initial.det_p

    def rhs(a_, b_, Q1_, Q2_):
        return flow.flow_rhs(lam, a_, b_, Q1_, Q2_, det_p)

    def record(t):
        P, _ = flow.recover_p(lam, Q1, Q2, det_p)
        return t, a, b, Q1.copy(), Q2.copy(), P

    states = [record(t0)]
    for k in range(n_steps):
        k1 = rhs(a, b, Q1, Q2)
        k2 = rhs(*(x + 0.5 * h * dx for x, dx in zip((a, b, Q1, Q2), k1)))
        k3 = rhs(*(x + 0.5 * h * dx for x, dx in zip((a, b, Q1, Q2), k2)))
        k4 = rhs(*(x + h * dx for x, dx in zip((a, b, Q1, Q2), k3)))
        a, b, Q1, Q2 = (
            x + (h / 6.0) * (d1 + 2 * d2 + 2 * d3 + d4)
            for x, d1, d2, d3, d4 in zip((a, b, Q1, Q2), k1, k2, k3, k4)
        )
        _, det_p = flow.recover_p(lam, Q1, Q2, det_p)
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            states.append(record(t0 + (k + 1) * h))
    return states


def assert_matches_oracle(initial, t0, t1, h, record_every):
    traj = flow.integrate(initial, t0, t1, h=h, record_every=record_every)
    states = numpy_rk4_states(initial, t0, t1, h, record_every)
    assert len(traj.samples) == len(states)
    for sample, (t, a, b, Q1, Q2, P) in zip(traj.samples, states):
        s = sample.structure
        assert sample.t == t
        want = np.concatenate([[a, b], Q1.ravel(), Q2.ravel(), P.ravel()])
        got = np.concatenate([[s.a, s.b], s.Q1.ravel(), s.Q2.ravel(), s.P.ravel()])
        assert np.max(np.abs(got - want)) <= REL_TOL * np.max(np.abs(want))


@pytest.mark.parametrize("sign_p", [1, -1])
@pytest.mark.parametrize("t_end", [0.05, -0.05])
def test_integrate_matches_numpy_rk4_rotated_nk(sign_p, t_end):
    rng = np.random.default_rng(11 + sign_p)
    s = families.nearly_kahler(4.0, sign_p).rotated(
        random_rotation(rng), random_rotation(rng)
    )
    assert_matches_oracle(s, 0.0, t_end, 1e-3, 10)


def test_integrate_matches_numpy_rk4_root_solve():
    s = sample_random_structure(3, method="root-solve")
    assert_matches_oracle(s, 0.0, 0.004, 5e-4, 2)


def random_matrices(seed, n=200):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3, 3)) * rng.uniform(0.1, 10.0, size=(n, 1, 1))


def test_det3_matches_numpy_det():
    for m in random_matrices(20):
        scale = np.max(np.abs(m)) ** 3
        assert abs(det3(m) - np.linalg.det(m)) <= 1e-13 * scale


def minor_adjugate(m):
    """Adj(M)[j, i] = (-1)^(i+j) det of M without row i and column j."""
    adj = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            sub = np.delete(np.delete(m, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(sub)
    return adj


def test_adjugate_matches_minors():
    for m in random_matrices(21):
        scale = np.max(np.abs(m)) ** 2
        assert np.max(np.abs(adjugate(m) - minor_adjugate(m))) <= 1e-13 * scale


def test_compute_abr_matches_numpy_formulas():
    rng = np.random.default_rng(22)
    for Q1, Q2 in zip(random_matrices(23), random_matrices(24)):
        a, b = rng.standard_normal(2)
        tr12 = np.trace(Q1.T @ Q2)
        want = (
            a * tr12 - 2.0 * np.linalg.det(Q1) - a * a * b,
            -(b * tr12 - 2.0 * np.linalg.det(Q2) - a * b * b),
            -((a * b + tr12) * Q1 - 2.0 * a * minor_adjugate(Q2.T)
              - 2.0 * Q1 @ Q2.T @ Q1),
            (a * b + tr12) * Q2 - 2.0 * b * minor_adjugate(Q1.T)
            - 2.0 * Q2 @ Q1.T @ Q2,
        )
        A, B, R1, R2, R = compute_abr(a, b, Q1, Q2)
        size = max(abs(a), abs(b), np.max(np.abs(Q1)), np.max(np.abs(Q2))) ** 3
        for got, ref in zip((A, B, R1, R2), want):
            assert np.max(np.abs(np.subtract(got, ref))) <= 1e-13 * size
        assert np.array_equal(R, R1 + R2)



# -- the composed flow kernel -------------------------------------------


def composed_abr9(a, b, q1, q2):
    g = mul9(transpose9(q1), q2)  # Q1^T Q2
    tr12 = g[0] + g[4] + g[8]
    s = a * b + tr12
    A = a * tr12 - 2 * det9(q1) - a * a * b
    B = -(b * tr12 - 2 * det9(q2) - a * b * b)
    ta, tb = 2 * a, 2 * b
    R1 = [
        -(s * x - ta * c - 2 * w)
        for x, c, w in zip(q1, cofactor9(q2), mul9(q1, transpose9(g)))
    ]
    R2 = [s * x - tb * c - 2 * w for x, c, w in zip(q2, cofactor9(q1), mul9(q2, g))]
    return A, B, R1, R2


def composed_recover9(lam, q1, q2, sign):
    m = [-(x + z) / lam for x, z in zip(q1, q2)]
    det_m = det9(m)
    if det_m <= 0:
        raise SingularStructureError(
            f"Adj(P^T) has nonpositive determinant {det_m:.3e}; P is not recoverable"
        )
    det_p = math.sqrt(det_m) * sign
    return [x / det_p for x in cofactor9(m)], det_p


def composed_stage(lam, y, sign, k=None, c=0.0):
    if k is not None:
        y = [v + c * d for v, d in zip(y, k)]
    q1, q2 = y[2:11], y[11:20]
    p, det_p = composed_recover9(lam, q1, q2, sign)
    if abs(det_p) < flow.SINGULAR_DETP:
        raise SingularStructureError(f"det P = {det_p:.3e} below threshold")
    A, B, R1, R2 = composed_abr9(y[0], y[1], q1, q2)
    e = -2.0 * lam / det_p
    return (
        [e * A, e * B]
        + [e * r + x for r, x in zip(R1, p)]
        + [e * r - x for r, x in zip(R2, p)]
    )


def random_states(seed, n=200):
    """n flat states [a, b, *Q1, *Q2] whose entries span 1e-3..1e3 in size."""
    rng = np.random.default_rng(seed)
    sizes = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 20))
    signs = rng.choice([-1.0, 1.0], size=(n, 20))
    return (sizes * signs).tolist()


def test_abr9_equals_composed_on_random_floats():
    for y in random_states(30):
        assert abr9(y[0], y[1], y[2:11], y[11:]) == composed_abr9(
            y[0], y[1], y[2:11], y[11:]
        )


def test_abr9_exact_on_fractions():
    for y in random_states(31, n=20):
        y = [Fraction(v) for v in y]
        got = abr9(y[0], y[1], y[2:11], y[11:])
        assert got == composed_abr9(y[0], y[1], y[2:11], y[11:])
        assert all(type(v) is Fraction for v in [got[0], got[1], *got[2], *got[3]])


def same_outcome(fn, oracle, *args):
    """Whether fn(*args) returns what oracle(*args) returns, or raises a
    SingularStructureError with the same message; and which it was."""
    try:
        want = oracle(*args)
    except SingularStructureError as exc:
        with pytest.raises(SingularStructureError) as got:
            fn(*args)
        return str(got.value) == str(exc), "raised"
    return fn(*args) == want, "returned"


def test_recover9_equals_composed_on_random_floats():
    lams = 10.0 ** np.random.default_rng(32).uniform(-3.0, 3.0, size=200)
    outcomes = []
    for y, lam in zip(random_states(33), lams):
        for sign in (1.0, -1.0):
            same, outcome = same_outcome(
                flow._recover9, composed_recover9, lam, y[2:11], y[11:], sign
            )
            assert same
            outcomes.append(outcome)
    assert outcomes.count("returned") > 100 and "raised" in outcomes


def test_stage_equals_composed_on_random_floats():
    rng = np.random.default_rng(34)
    outcomes = []
    for y, k in zip(random_states(35), random_states(36)):
        lam, c = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-1e-3, 1e-3)
        for args in ((), (k, c)):
            same, outcome = same_outcome(flow._stage, composed_stage, lam, y, 1.0, *args)
            assert same
            outcomes.append(outcome)
    assert outcomes.count("returned") > 100 and "raised" in outcomes


def rows_and_halt(initial, t_end, h, record_every=1):
    """Every recorded row of one integrate run, and (t, message) of its halt."""
    try:
        traj = flow.integrate(initial, 0.0, t_end, h=h, record_every=record_every)
        halt = None
    except flow.FlowSingularityError as exc:
        traj, halt = exc.trajectory, (exc.t, str(exc))
    return [sample.row() for sample in traj.samples], halt


def rows_and_halt_composed(monkeypatch, *args):
    with monkeypatch.context() as m:
        m.setattr(flow, "_stage", composed_stage)
        m.setattr(flow, "_recover9", composed_recover9)
        m.setattr(flow, "abr9", composed_abr9)
        return rows_and_halt(*args)


def rotated_nk(sign_p):
    rng = np.random.default_rng(40 + sign_p)
    return families.nearly_kahler(4.0, sign_p).rotated(
        random_rotation(rng), random_rotation(rng)
    )


@pytest.mark.parametrize("sign_p", [1, -1])
@pytest.mark.parametrize("t_end", [0.3, -0.3, 1.2])
def test_integrate_bit_identical_rotated_nk(monkeypatch, sign_p, t_end):
    initial = rotated_nk(sign_p)
    record_every = 10 if abs(t_end) < 1 else 100
    want = rows_and_halt_composed(monkeypatch, initial, t_end, 1e-3, record_every)
    got = rows_and_halt(initial, t_end, 1e-3, record_every)
    assert got == want
    assert (want[1] is not None) == (t_end == 1.2)  # 1.2 runs into the halt


def test_integrate_bit_identical_root_solve(monkeypatch):
    initial = sample_random_structure(3, method="root-solve")
    for t_end in (0.02, -0.02):
        want = rows_and_halt_composed(monkeypatch, initial, t_end, 1e-3)
        assert rows_and_halt(initial, t_end, 1e-3) == want
        assert want[1] is None


# (initial, t_end, h) -> (t, message) of the halt, as the composed kernel
# gives them: |det P| < SINGULAR_DETP on the NK flow, and det M <= 0 in a
# stage (h = 0.05) and after a step (h = 0.075) on a rotate-family sample
HALTS = [
    (("nk", 1), 1.2, 1e-3, 0.548, "det P = 9.931e-07 below threshold"),
    (("nk", -1), -1.2, 1e-3, -0.548, "det P = -9.931e-07 below threshold"),
    (("rf", 1), 3.0, 0.05, 0.2,
     "Adj(P^T) has nonpositive determinant -1.325e-08; P is not recoverable"),
    (("rf", 1), -3.0, 0.05, -0.15000000000000002,
     "Adj(P^T) has nonpositive determinant -1.507e-06; P is not recoverable"),
    (("rf", 1), 3.0, 0.075, 0.15,
     "Adj(P^T) has nonpositive determinant -1.458e-10; P is not recoverable"),
]


@pytest.mark.parametrize("case", HALTS)
def test_halts_keep_time_and_message(monkeypatch, case):
    (kind, arg), t_end, h, t_halt, reason = case
    if kind == "nk":
        initial = families.nearly_kahler(4.0, arg)
    else:
        initial = sample_random_structure(arg)
    # every step recorded, and none but the first: then only the check
    # after each step sees det M <= 0 at the end of a step
    for record_every in (1, 1000):
        want = rows_and_halt_composed(monkeypatch, initial, t_end, h, record_every)
        got = rows_and_halt(initial, t_end, h, record_every)
        assert got == want
        assert got[1] == (
            t_halt, f"flow reached a singular point near t = {t_halt:.6f}: {reason}"
        )


def test_stage_calls_recover9_and_abr9_once(monkeypatch):
    calls = {"_recover9": 0, "abr9": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(flow, "_recover9", counted("_recover9", flow._recover9))
    monkeypatch.setattr(flow, "abr9", counted("abr9", flow.abr9))
    s = rotated_nk(1)
    y = flow._pack(s.a, s.b, s.Q1, s.Q2)
    k = flow._stage(s.lam, y, 1.0)
    flow._stage(s.lam, y, 1.0, k, 5e-4)
    assert calls == {"_recover9": 2, "abr9": 2}


def test_kernel_makes_no_other_python_call():
    # the Python functions entered while one stage runs, and their callers
    s = rotated_nk(1)
    y = flow._pack(s.a, s.b, s.Q1, s.Q2)
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append((frame.f_back.f_code.co_name, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        flow._stage(s.lam, y, 1.0, y, 5e-4)
    finally:
        sys.setprofile(None)
    calls = [(caller, callee) for caller, callee in seen if callee != "<listcomp>"]
    assert calls[0] == ("test_kernel_makes_no_other_python_call", "_stage")
    assert calls[1:] == [("_stage", "_recover9"), ("_stage", "abr9")]
    assert flow.abr9 is structure.abr9


# -- g2_residual ---------------------------------------------------------------


def form_g2_residual(structure, da, db, dQ1, dQ2):
    """The two dt pieces of `flow.g2_residual` as forms: gamma' - d omega +
    lambda J gamma and (omega^2)'/2 + d(J gamma), by `d` on the invariant
    forms, with their max-norms."""
    lam = structure.lam
    dgamma = invariant_three_form(da, db, dQ1, dQ2)
    half_domega2 = de_de_form((np.asarray(dQ1) + np.asarray(dQ2)) / lam)
    return max(
        (dgamma - d(structure.omega) + lam * structure.Jgamma).max_abs(),
        (half_domega2 + d(structure.Jgamma)).max_abs(),
    )


def assert_g2_residual_bit_identical(monkeypatch, initial, t_end, h=1e-3):
    """Integrate with every step recorded; each g2_residual that integrate
    evaluates, and the one of the flow derivatives of each recorded
    structure, must equal the form oracle.  Returns the number of samples."""
    calls = []

    def checked(s, *dt):
        got = g2_residual(s, *dt)
        calls.append(got == form_g2_residual(s, *dt))
        return got

    with monkeypatch.context() as m:
        m.setattr(flow, "g2_residual", checked)
        traj = flow.integrate(initial, 0.0, t_end, h=h, record_every=1)
    assert len(calls) == len(traj.samples) and all(calls)
    for sample in traj.samples:
        s = sample.structure
        dt = flow.flow_rhs(s.lam, s.a, s.b, s.Q1, s.Q2, s.det_p)
        assert g2_residual(s, *dt) == form_g2_residual(s, *dt)
    return len(traj.samples)


def benchmark_flow_starts(seed=1):
    """The four trajectories of the flow benchmark at `seed`, drawn as it
    draws them: the nearly Kahler point at lambda = 4 for both signs of
    det P, rotated, run forwards and backwards for 300 steps."""
    rng = np.random.default_rng(seed)
    combos = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    starts = []
    for k in rng.permutation(len(combos)):
        sign_p, direction = combos[k]
        s = families.nearly_kahler(4.0, sign_p).rotated(
            random_rotation(rng), random_rotation(rng)
        )
        starts.append((s, direction * 0.3))
    return starts


@pytest.mark.parametrize("k", range(4))
def test_g2_residual_equals_form_oracle_on_benchmark_trajectories(monkeypatch, k):
    initial, t_end = benchmark_flow_starts()[k]
    assert assert_g2_residual_bit_identical(monkeypatch, initial, t_end) == 301


def test_g2_residual_equals_form_oracle_root_solve(monkeypatch):
    initial = sample_random_structure(3, method="root-solve")
    for t_end in (0.02, -0.02):
        assert assert_g2_residual_bit_identical(monkeypatch, initial, t_end) == 21


def test_g2_residual_equals_form_oracle_on_arbitrary_derivatives():
    # not only flow derivatives: random (a', b', Q1', Q2'), as 3x3 arrays
    # and as row-major 9-lists
    rng = np.random.default_rng(31)
    for s in [sample_random_structure(seed) for seed in range(10)]:
        da, db = rng.standard_normal(2)
        dQ1, dQ2 = rng.standard_normal((2, 3, 3))
        want = form_g2_residual(s, da, db, dQ1, dQ2)
        assert g2_residual(s, da, db, dQ1, dQ2) == want
        assert g2_residual(s, da, db, dQ1.ravel().tolist(), dQ2.ravel().tolist()) == want
