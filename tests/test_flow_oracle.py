"""Oracles for the flow's kernels.

The RK4 loop below is the per-stage numpy integration over the public
array API (`flow_rhs`, `recover_p`); `flow.integrate` runs the same scheme
on a flat sequence of floats and must reproduce it at every recorded
sample.  The 3x3 helpers and `compute_abr` are checked against numpy's
determinant, the adjugate from 2x2 minors and the explicit matrix
formulas.

`composed_abr9` and `composed_recover9` are F and the P recovery composed
from the `mat3` 9-sequence helpers, as `flow.abr` and `flow._recover9`
must compute them, bit for bit.  `flow.stage`, one evaluation of the
equations, is written by hand; the flow's kernel `rk4_step` is generated
(``tools/gen_kernels.py``) from `composed_rk4_step` there, whose passes
call `flow.stage`, and must agree with it bit for bit, halts included;
so must every trajectory that `integrate` takes with it, against the
same loop run on the composed step (`rows_and_halt_composed`).  A step
of size 0 is at its start in every pass, so it must return the y' of
`flow.stage` there, and the two |det P| guards must halt on the same
side of `SINGULAR_DETP`.
`stepwise_rows_and_halt` is the RK4 loop on `flow.stage` in its stepwise
order, with no derivative reused; `integrate` must give its rows, and
its halts on every real flow.

`form_g2_residual` is `flow.g2_residual` on forms, by `d`, with the term
sizes read off the forms; the coordinate version must equal it to the
bit."""

import math
import sys

import numpy as np
import pytest

from nhflat import families, flow, structure
from nhflat.exterior import d
from nhflat.flow import abr, g2_residual
from nhflat.mat3 import adjugate, cofactor9, det3, det9, mul9, transpose9
from nhflat.structure import (
    SingularStructureError,
    compute_abr,
    invariant_three_form,
    random_rotation,
    sample_random_structure,
)
from nhflat.tolerance import relative
from oracles import de_de_form, gen

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


def random_states(seed, n=200):
    """n flat states [a, b, *Q1, *Q2] whose entries span 1e-3..1e3 in size."""
    rng = np.random.default_rng(seed)
    sizes = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 20))
    signs = rng.choice([-1.0, 1.0], size=(n, 20))
    return (sizes * signs).tolist()


def composed_f(y):
    """F = (A, B, R1, R2) of `composed_abr9` as one 20-tuple, the layout of
    `abr`."""
    A, B, R1, R2 = composed_abr9(y[0], y[1], y[2:11], y[11:])
    return (A, B, *R1, *R2)


def test_abr9_equals_composed_on_random_floats():
    for y in random_states(30):
        assert abr(y[0], y[1], y[2:11], y[11:]) == composed_f(y)


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


def test_rk4_step_equals_composed_on_random_floats(monkeypatch):
    # the pass of the composed step in which each raise comes, 1 ... 4
    rng = np.random.default_rng(40)
    stage, calls, passes = flow.stage, [], []

    def counted(*args):
        calls.append(None)
        return stage(*args)

    monkeypatch.setattr(flow, "stage", counted)
    for y, dy in zip(random_states(41), random_states(42)):
        lam, h = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 0.0)
        for sign in (1.0, -1.0):
            calls.clear()
            same, outcome = same_outcome(
                flow.rk4_step, gen.composed_rk4_step, lam, sign, y, dy, h
            )
            assert same
            passes.append(len(calls) if outcome == "raised" else 0)
    assert passes.count(0) > 50 and all(k in passes for k in (1, 2, 3, 4))


def zero_step(lam, sign, y, dy):
    """`rk4_step` of size 0 from y: the state it reaches, which must be y,
    and that state's y'."""
    y_next, dy_next = flow.rk4_step(lam, sign, y, dy, 0.0)
    return list(y_next), tuple(dy_next)


def test_zero_step_returns_stage_on_random_floats():
    # every pass of a step of size 0 is at y, so the generated kernel gives
    # the y' of the hand-written equations, or raises as they do
    rng = np.random.default_rng(43)
    outcomes = []
    for y, dy in zip(random_states(44), random_states(45)):
        lam = 10.0 ** rng.uniform(-3.0, 3.0)
        for sign in (1.0, -1.0):
            same, outcome = same_outcome(
                lambda *args: zero_step(*args, dy)[1], flow.stage, lam, sign, y
            )
            assert same
            if outcome == "returned":
                assert zero_step(lam, sign, y, dy)[0] == list(y)
            outcomes.append(outcome)
    assert outcomes.count("returned") > 100 and "raised" in outcomes


@pytest.mark.parametrize("sign_p", [1, -1])
def test_guards_agree_at_the_threshold(sign_p):
    # Q1 and Q2 scaled by c scale det P by c^(3/2): states just below and
    # just above |det P| = SINGULAR_DETP halt, or not, in both forms alike
    s = rotated_nk(sign_p)
    sign = float(sign_p)
    y0 = flow._pack(s.a, s.b, s.Q1, s.Q2)
    det_p0 = flow._recover9(s.lam, y0[2:11], y0[11:], sign)[1]
    for factor, halts in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
        c = (factor * flow.SINGULAR_DETP / abs(det_p0)) ** (2.0 / 3.0)
        y = y0[:2] + [c * v for v in y0[2:]]
        det_p = flow._recover9(s.lam, y[2:11], y[11:], sign)[1]
        assert (abs(det_p) < flow.SINGULAR_DETP) == halts
        same, outcome = same_outcome(
            lambda *args: zero_step(*args, y)[1], flow.stage, s.lam, sign, y
        )
        assert same and outcome == ("raised" if halts else "returned")
        if halts:
            with pytest.raises(SingularStructureError, match="below threshold$"):
                flow.stage(s.lam, sign, y)


def rows_and_halt(initial, t_end, h, record_every=1):
    """Every recorded row of one integrate run, and (t, reason) of its halt."""
    traj = flow.integrate(initial, 0.0, t_end, h=h, record_every=record_every)
    return [sample.row() for sample in traj.samples], traj.halt


def run_composed(m):
    """Make `integrate` run its RK4 loop on `composed_rk4_step`, in the
    monkeypatch context m.  Its passes and `integrate` look `flow.stage`
    up when they run, so a test can patch `flow.stage`."""
    m.setattr(flow, "rk4_step", gen.composed_rk4_step)


def rows_and_halt_composed(monkeypatch, *args):
    with monkeypatch.context() as m:
        run_composed(m)
        m.setattr(flow, "_recover9", composed_recover9)
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


# (initial, t_end, h) -> (t, reason) of the halt, as the composed kernel
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
    # every step recorded, and none but the first: then only the y' of
    # the state a step ends in sees det M <= 0 at the end of a step
    for record_every in (1, 1000):
        want = rows_and_halt_composed(monkeypatch, initial, t_end, h, record_every)
        got = rows_and_halt(initial, t_end, h, record_every)
        assert got == want
        assert got[1] == (t_halt, reason)


def stepwise_rows_and_halt(initial, t_end, h, record_every=1):
    """`rows_and_halt` of the RK4 loop in its stepwise order: each step
    evaluates its k1 afresh, checks after it that P is recoverable, and
    each sample evaluates its own derivative.  `integrate` evaluates each
    state once and must give the same rows, and the same halts but where
    a stage raises first at the state a step ends in: there `integrate`
    halts in that step whether or not the state is recorded."""
    lam, t0, t1 = initial.lam, 0.0, t_end
    h = abs(h) * (1.0 if t1 >= t0 else -1.0)
    ratio = abs(t1 - t0) / abs(h)
    n_steps = round(ratio)
    if abs(ratio - n_steps) <= 1e-9 * ratio:
        h_last, t_last = h, t0 + n_steps * h
    else:
        n_steps = math.ceil(ratio)
        h_last, t_last = t1 - (t0 + (n_steps - 1) * h), t1
    step, half, sixth = h, 0.5 * h, h / 6.0
    y = [initial.a, initial.b] + initial.m9.q1 + initial.m9.q2
    sign = 1.0 if initial.det_p >= 0 else -1.0
    rows = []

    def at(c, k):
        """y' at y + c k."""
        return flow.stage(lam, sign, [v + c * d for v, d in zip(y, k)])

    def sample(t, y):
        q1, q2 = y[2:11], y[11:20]
        p, _ = flow._recover9(lam, q1, q2, sign)
        q = [0.5 * (u - v) for u, v in zip(q1, q2)]
        s = structure.NhfStructure(
            lam, y[0], y[1], (p[0:3], p[3:6], p[6:9]), (q[0:3], q[3:6], q[6:9])
        )
        report = s.validate()
        dy = flow.stage(lam, sign, y)
        rows.append(flow.FlowSample(
            t=t,
            structure=s,
            norm_resid=report.residuals["normalization"],
            sym_resid=report.residuals["qtp_symmetry"],
            g2_resid=g2_residual(s, dy[0], dy[1], dy[2:11], dy[11:20]),
            passed=report.passed,
        ).row())

    t = t0
    try:
        sample(t0, y)
        for k in range(n_steps):
            t = t0 + k * h
            if k == n_steps - 1:
                step, half, sixth = h_last, 0.5 * h_last, h_last / 6.0
            k1 = flow.stage(lam, sign, y)
            k2 = at(half, k1)
            k3 = at(half, k2)
            k4 = at(step, k3)
            y = [
                v + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
                for v, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)
            ]
            flow._recover9(lam, y[2:11], y[11:], sign)
            if k == n_steps - 1:
                sample(t_last, y)
            elif (k + 1) % record_every == 0:
                sample(t0 + (k + 1) * h, y)
    except SingularStructureError as exc:
        return rows, (t, str(exc))
    return rows, None


@pytest.mark.parametrize("case", HALTS)
def test_integrate_equals_stepwise_loop_on_halts(case):
    (kind, arg), t_end, h, t_halt, _ = case
    if kind == "nk":
        initial = families.nearly_kahler(4.0, arg)
    else:
        initial = sample_random_structure(arg)
    for record_every in (1, 1000):
        want = stepwise_rows_and_halt(initial, t_end, h, record_every)
        assert rows_and_halt(initial, t_end, h, record_every) == want
        assert want[1][0] == t_halt


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("record_every", [1, 50])
def test_integrate_equals_stepwise_loop_on_benchmark_trajectories(k, record_every):
    initial, t_end = benchmark_flow_starts()[k]
    want = stepwise_rows_and_halt(initial, t_end, 1e-3, record_every)
    assert rows_and_halt(initial, t_end, 1e-3, record_every) == want
    assert want[1] is None and len(want[0]) == 1 + 300 // record_every


@pytest.mark.parametrize("record_every", [1, 3, 1000])
@pytest.mark.parametrize("n", [0, 4, 10])
def test_integrate_equals_stepwise_loop_where_a_state_halts(monkeypatch, record_every, n):
    # no flow above reaches the threshold first at a state rather than in a
    # step, so a stage is made to raise at the state after step n: the run
    # halts in step n, from (n - 1) h, recorded or not (the stepwise loop
    # halts in the next step where the state is not recorded), and at the
    # start for n = 0.  The states are recorded with the kernel
    # `rk4_step`, which calls no `flow.stage`; both loops then run on it.
    initial, stage, step, states = rotated_nk(1), flow.stage, flow.rk4_step, []

    def recording(lam, sign, y):
        states.append(list(y))
        return stage(lam, sign, y)

    def recording_step(*args):
        y, dy = step(*args)
        states.append(list(y))
        return y, dy

    def halting(lam, sign, y):
        if list(y) == states[n]:
            raise SingularStructureError("det P = 1.000e-06 below threshold")
        return stage(lam, sign, y)

    with monkeypatch.context() as m:
        m.setattr(flow, "stage", recording)
        m.setattr(flow, "rk4_step", recording_step)
        flow.integrate(initial, 0.0, 0.01, h=1e-3)
    assert len(states) == 11
    run_composed(monkeypatch)
    monkeypatch.setattr(flow, "stage", halting)
    rows, _ = stepwise_rows_and_halt(initial, 0.01, 1e-3, record_every)
    traj = flow.integrate(initial, 0.0, 0.01, h=1e-3, record_every=record_every)
    assert [sample.row() for sample in traj.samples] == rows
    assert len(rows) == 1 + (n - 1) // record_every if n else not rows
    steps = max(n - 1, 0)
    assert traj.halt == (steps * 1e-3, "det P = 1.000e-06 below threshold")
    assert traj.steps == steps and traj.terminated == "singular"


@pytest.mark.parametrize("record_every", [1, 1000])
def test_integrate_evaluates_each_state_once(monkeypatch, record_every):
    # k2, k3, k4 and the y' of the new state per step, and y' of the start
    calls = []

    def counted(*args):
        calls.append(None)
        return stage(*args)

    stage = flow.stage
    run_composed(monkeypatch)
    monkeypatch.setattr(flow, "stage", counted)
    n = 40
    traj = flow.integrate(rotated_nk(1), 0.0, n * 1e-3, h=1e-3, record_every=record_every)
    assert traj.steps == n
    assert len(calls) == 4 * n + 1


def test_kernels_enter_no_python_function():
    # the Python functions entered while `rk4_step` runs a step and where
    # it raises
    s = rotated_nk(1)
    y = flow._pack(s.a, s.b, s.Q1, s.Q2)
    dy = flow.stage(s.lam, 1.0, y)
    seen, raised = [], []

    def profile(frame, event, arg):
        if event == "call":
            seen.append((frame.f_back.f_code.co_name, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        flow.rk4_step(s.lam, 1.0, y, dy, 1e-3)
        try:
            flow.rk4_step(s.lam, 1.0, y, y, -2.0)  # first pass at zero: det M = 0
        except SingularStructureError as exc:
            raised.append(str(exc))
    finally:
        sys.setprofile(None)
    here = "test_kernels_enter_no_python_function"
    assert seen == [(here, "rk4_step")] * 2
    assert raised == ["Adj(P^T) has nonpositive determinant 0.000e+00; P is not recoverable"]


def test_kernels_read_fewer_than_256_locals():
    # a local numbered 256 or more costs an extended opcode at every use
    assert flow.rk4_step.__code__.co_nlocals < 256


# -- g2_residual ---------------------------------------------------------------


def form_g2_residual(structure, da, db, dQ1, dQ2):
    """The two dt pieces of `flow.g2_residual` as forms: gamma' - d omega +
    lambda J gamma and (omega^2)'/2 + d(J gamma), by `d` on the invariant
    forms, each relative to the sizes of its terms read off the forms:
    gamma', d omega and lambda J gamma, and de_de_form(Q1'/lambda),
    de_de_form(Q2'/lambda) and the coefficients of J gamma on the slots of
    M1 and M2."""
    lam, jgamma = structure.lam, structure.Jgamma
    dgamma = invariant_three_form(da, db, dQ1, dQ2)
    domega = d(structure.omega)
    half_domega2 = de_de_form((np.asarray(dQ1) + np.asarray(dQ2)) / lam)
    m_slots = invariant_three_form(0.0, 0.0, np.ones((3, 3)), np.ones((3, 3))).coeffs != 0
    return max(
        relative(dgamma - domega + lam * jgamma, dgamma, domega, lam * jgamma),
        relative(
            half_domega2 + d(jgamma),
            de_de_form(np.asarray(dQ1) / lam),
            de_de_form(np.asarray(dQ2) / lam),
            jgamma.coeffs[m_slots],
        ),
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
