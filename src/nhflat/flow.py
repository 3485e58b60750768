"""RK4 integration of the nearly half-flat evolution equations.

The flow evolves (a, b, Q1, Q2); P is not evolved but recovered from the
constraint Q1 + Q2 = -lambda Adj(P^T) at every stage.  A trajectory of
structures sweeps out a nearly parallel G2-structure

    phi = dt ^ omega + gamma,    psi = omega^2 / 2 - dt ^ J gamma

on (t0, t1) x S^3 x S^3 exactly when d phi = lambda psi and d psi = 0,
which is what g2_residual measures, relative to the terms, from the
state and its time derivatives alone (no derivative of P is formed).

Inside `integrate` the state is a flat sequence of 20 Python floats,

    y = (a, b, Q1_11, Q1_12, ..., Q1_33, Q2_11, ..., Q2_33)

with Q1 and Q2 row-major (y[2:11] and y[11:20]).  `stage` evaluates the
equations at a state, from `_recover9` and `abr`, F = (A, B, R1, R2) of
Hitchin's dual map, and is their one written form; all three are
written by hand, here, over the `mat3` helpers.  `rk4_step` takes a
whole RK4 step, its four stages in one call: it is the generated kernel
of ``nhflat._flow_kernels``, which ``tools/gen_kernels.py`` traces from
`stage`, so it computes each stage bit for bit as `stage` does.  The
generator traces construction's F from `abr` too.  Each state's y' is
evaluated once: it is both the derivative of its sample and the k1 of
the next step, so n steps take 4n + 1 stages, the first of them a call
of `stage`.  Where a stage raises, the run stops and `integrate` returns
what it has, marked singular.  The recorded samples, their residuals and
`g2_residual` are computed from the flat state too, so `integrate` does
not import numpy.  `flow_rhs` and `recover_p` are the array wrappers of
the same code.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from nhflat._flow_kernels import rk4_step
from nhflat.mat3 import cofactor9, det9, flat9, mul9, transpose9
from nhflat.structure import InvalidStructureError, NhfStructure, SingularStructureError
from nhflat.tolerance import DEFAULT_TOL, badness, max_abs, relative

if TYPE_CHECKING:
    import numpy as np

#: A stage raises where |det P| is below it (`rk4_step` is generated
#: with its value).
SINGULAR_DETP = 1e-6
#: Most RK4 steps one `integrate` call takes, |t1 - t0| / |h|.
MAX_STEPS = 10**8

CSV_COLUMNS = (
    ["t", "a", "b"]
    + [f"Q1_{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    + [f"Q2_{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    + [f"P_{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    + ["norm_resid", "sym_resid", "g2_resid"]
)


def _recover9(lam, q1, q2, sign):
    """P (row-major list) and det P from Q1, Q2; sign is +1.0 or -1.0.

    M = Adj(P^T) = -(Q1 + Q2)/lambda gives det P = sign sqrt(det M) and,
    from P^T = Adj(M) / det P, P = the cofactor matrix of M over det P.
    Raises SingularStructureError when det M <= 0: then no real P has
    Adj(P^T) = M, since det Adj(P^T) = (det P)^2."""
    m = [-(u + v) / lam for u, v in zip(q1, q2)]
    det_m = det9(m)
    if det_m <= 0:
        raise SingularStructureError(
            f"Adj(P^T) has nonpositive determinant {det_m:.3e}; P is not recoverable"
        )
    det_p = math.sqrt(det_m) * sign
    return [x / det_p for x in cofactor9(m)], det_p


def abr(a, b, q1, q2):
    """F = (A, B, R1, R2) of gamma as a 20-tuple, with gamma and F in the
    coordinate layout of `invariant_three_form`: a, b, then Q1 and Q2
    row-major, and A, B, then R1 and R2 row-major:

        A  =   a tr(Q1^T Q2) - 2 det Q1 - a^2 b
        B  = -(b tr(Q1^T Q2) - 2 det Q2 - a b^2)
        R1 = -((a b + tr(Q1^T Q2)) Q1 - 2 a Adj(Q2^T) - 2 Q1 Q2^T Q1)
        R2 =   (a b + tr(Q1^T Q2)) Q2 - 2 b Adj(Q1^T) - 2 Q2 Q1^T Q2

    J gamma = (2 / det P) F, and the flow's evolution equations
    gamma' = d omega - lambda J gamma read F too: `stage` calls it, and
    the generator traces construction's `construct` and the flow's
    `rk4_step` through it.  It uses only +, - and * and integer
    constants, so it is exact on ``fractions.Fraction`` input; the
    kernels write each constant as a float and equal it, to the bit, on
    floats and complex numbers."""
    g = mul9(transpose9(q1), q2)  # Q1^T Q2
    tr12 = g[0] + g[4] + g[8]
    s = a * b + tr12
    ta, tb = 2 * a, 2 * b
    # Q1 Q2^T Q1 = Q1 g^T and Q2 Q1^T Q2 = Q2 g
    r1 = [
        -(s * x - ta * c - 2 * w)
        for x, c, w in zip(q1, cofactor9(q2), mul9(q1, transpose9(g)))
    ]
    r2 = [s * x - tb * c - 2 * w for x, c, w in zip(q2, cofactor9(q1), mul9(q2, g))]
    return (
        a * tr12 - 2 * det9(q1) - a * a * b,
        -(b * tr12 - 2 * det9(q2) - a * b * b),
        *r1,
        *r2,
    )


def stage(lam, sign, y):
    """One evaluation of the evolution equations at the flat state
    y = (a, b, *Q1, *Q2); returns y' in the same layout:
        (a', b', Q1', Q2') = e (A, B, R1, R2) + (0, 0, P, -P),
    e = -2 lambda / det P, with P and det P those of `_recover9` (sign is
    the sign of det P) and F = (A, B, R1, R2) that of `abr`.  Raises
    SingularStructureError as `_recover9` does, and when
    |det P| < SINGULAR_DETP, before F.  `rk4_step` is traced from it,
    through the same `_recover9` and `abr`."""
    q1, q2 = y[2:11], y[11:20]
    p, det_p = _recover9(lam, q1, q2, sign)
    if abs(det_p) < SINGULAR_DETP:
        raise SingularStructureError(f"det P = {det_p:.3e} below threshold")
    f = abr(y[0], y[1], q1, q2)
    e = -2.0 * lam / det_p
    return (
        e * f[0],
        e * f[1],
        *[e * r + x for r, x in zip(f[2:11], p)],
        *[e * r - x for r, x in zip(f[11:20], p)],
    )


def _sign(det_p: float) -> float:
    return 1.0 if det_p >= 0 else -1.0


def _pack(a, b, Q1, Q2) -> list:
    """The flat state [a, b, *Q1, *Q2] of (a, b, Q1, Q2)."""
    return [float(a), float(b)] + flat9(Q1) + flat9(Q2)


def _unpack(y):
    """(a, b, Q1, Q2) with 3x3 arrays from a flat state."""
    import numpy as np

    return y[0], y[1], np.array(y[2:11]).reshape(3, 3), np.array(y[11:]).reshape(3, 3)


def recover_p(lam: float, Q1: np.ndarray, Q2: np.ndarray, det_p_prev: float):
    """Invert Adj(P^T) = -(Q1 + Q2)/lambda for P.

    (det P)^2 = det Adj(P^T); the sign of det P is chosen to continue the
    previous value, which keeps P continuous along a flow line.

    Nothing in the package calls it; it stays only because the benchmark's
    tracer (``perfbench/tracer.py``) binds it by name, until ROADMAP item 1
    retargets the tracer.  `_recover9` is the computation."""
    import numpy as np

    p, det_p = _recover9(lam, flat9(Q1), flat9(Q2), _sign(det_p_prev))
    return np.array(p).reshape(3, 3), det_p


def flow_rhs(lam: float, a, b, Q1, Q2, det_p_sign: float = 1.0):
    """Time derivatives (a', b', Q1', Q2') of the evolution equations.

    Equivalent to gamma' = d omega - lambda J gamma, expressed on the
    matrix data:
        a'  = -(2 lambda / det P) A
        b'  = -(2 lambda / det P) B
        Q1' = -(2 lambda / det P) R1 + P
        Q2' = -(2 lambda / det P) R2 - P
    """
    return _unpack(stage(lam, _sign(det_p_sign), _pack(a, b, Q1, Q2)))


class FlowSample(NamedTuple):
    """One stored point of an integrated trajectory; norm_resid and
    sym_resid are the structure's relative `validate` residuals and
    `passed` is the verdict of that `validate` report."""

    t: float
    structure: NhfStructure
    norm_resid: float
    sym_resid: float
    g2_resid: float
    passed: bool

    def row(self):
        s, m = self.structure, self.structure.m9
        return (
            [self.t, s.a, s.b]
            + m.q1
            + m.q2
            + m.p
            + [self.norm_resid, self.sym_resid, self.g2_resid]
        )


class Trajectory:
    """The samples of an `integrate` run, how it ended (``terminated``:
    "completed" or "singular") and the RK4 steps taken, recorded or not.
    ``halt`` is (t, reason) of a singular end, the start time of the step
    in which the run stopped and the SingularStructureError message, and
    None for a completed run."""

    def __init__(self, lam: float):
        self.lam = lam
        self.samples = []
        self.terminated = "completed"
        self.halt = None
        self.steps = 0

    def to_csv(self) -> str:
        """The `CSV_COLUMNS` header, then one line per sample, each value
        to 12 significant digits.  No field holds a comma, a quote or a
        newline, so none is quoted."""
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(f"{v:.12g}" for v in s.row()) for s in self.samples]
        return "\n".join(lines) + "\n"

    def to_record(self) -> dict:
        """Summary of the run.  Each ``max_*`` residual, NaN if any sample's
        is, comes with the time ``t_max_*`` of the first sample that attains
        it; ``invalid_samples`` counts the samples whose `validate` failed
        and ``t_first_invalid`` is the time of the first of them (None if
        every sample passed).  A run without samples has the same keys,
        with None for every time and residual."""
        samples = self.samples
        rec = {
            "lambda": self.lam,
            "terminated": self.terminated,
            "t_start": float(samples[0].t) if samples else None,
            "t_end": float(samples[-1].t) if samples else None,
            "steps": self.steps,
        }
        for name in ("norm_resid", "sym_resid", "g2_resid"):
            worst = max(self.samples, key=lambda s: badness(getattr(s, name)), default=None)
            rec[f"max_{name}"] = getattr(worst, name) if worst else None
            rec[f"t_max_{name}"] = worst.t if worst else None
        invalid = [s.t for s in self.samples if not s.passed]
        rec["invalid_samples"] = len(invalid)
        rec["t_first_invalid"] = invalid[0] if invalid else None
        return rec


def g2_pieces(structure: NhfStructure, da, db, dQ1, dQ2) -> tuple:
    """The evolution and closure pieces of d phi = lambda psi and
    d psi = 0 at one time, each relative to its terms (`relative`).

    With phi = dt ^ omega + gamma and psi = omega^2/2 - dt ^ J gamma the
    two equations split into t-slice components:
        d phi - lambda psi = (d6 gamma - (lambda/2) omega^2)
                             + dt ^ (gamma' - d6 omega + lambda J gamma)
        d psi              = (1/2) d6 omega^2
                             + dt ^ ((1/2)(omega^2)' + d6 J gamma)
    The t-slice pieces vanish for any (lambda, a, b, P, Q), so only the dt
    pieces are evaluated; omega^2 = (2/lambda)(Q1 + Q2) on the de ^ de
    slots gives (omega^2)'/2 = de_de_form((Q1' + Q2')/lambda), where
    de_de_form(M) = sum M_ij de^{2i-1} ^ de^{2j}.  The first piece is the
    evolution equation that `stage` evaluates, with the structure's own P.

    Both are computed on coordinates (`structure.invariant_three_form`):
    d omega = (0, 0, P, -P), and d(c, d, M1, M2) = de_de_form(M1 + M2) is
    zero off the de ^ de slots.  So, jg the 20-list of J gamma, the first
    piece is gamma' - d omega + lambda jg over the sizes of gamma', P and
    |lambda| |jg|, and the second (Q1' + Q2')/lambda + M1 + M2 of jg over
    those of Q1'/lambda, Q2'/lambda and jg's M1 and M2; the forms'
    coefficients are these up to sign, to the bit.  dQ1 and dQ2 are 3x3
    arrays or row-major 9-sequences."""
    lam, z, p, jg = structure.lam, structure.sizes, structure.m9.p, structure.jgamma_coords
    da, db, dq1, dq2 = float(da), float(db), flat9(dQ1), flat9(dQ2)
    domega = [0.0, 0.0] + p + [-x for x in p]
    first = [u - w + lam * j for u, w, j in zip([da, db] + dq1 + dq2, domega, jg)]
    second = [(u + v) / lam + (j + k) for u, v, j, k in zip(dq1, dq2, jg[2:11], jg[11:20])]
    n_dq = max_abs(dq1 + dq2)
    return (
        relative(first, abs(da), abs(db), n_dq, z.p, abs(lam) * z.jg),
        relative(second, n_dq / abs(lam), jg[2:]),
    )


def g2_residual(structure: NhfStructure, da, db, dQ1, dQ2) -> float:
    """The larger of the two `g2_pieces`.  With `flow_rhs` derivatives both
    vanish to rounding on any state, valid or not (the evolution equation
    and its exterior derivative), so along `integrate` g2_resid cannot see
    drift off the valid set; norm_resid does."""
    return max(g2_pieces(structure, da, db, dQ1, dQ2))


def check_step(h: float, record_every: int, t0: float, t1: float) -> None:
    """Raise ValueError unless h is finite and nonzero, record_every >= 1,
    the end points t0, t1 are finite and |t1 - t0| / |h| <= MAX_STEPS."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_start and t_end must be finite, got {t0} and {t1}")
    if not math.isfinite(h) or h == 0:
        raise ValueError(f"step size h must be finite and nonzero, got {h}")
    # a product, not |t1 - t0| / |h|, which can overflow
    if abs(t1 - t0) > MAX_STEPS * abs(h):
        raise ValueError(
            f"|t_end - t_start| / |h| must be at most {MAX_STEPS:.0e} steps, "
            f"got {abs(t1 - t0):g} / {abs(h):g}"
        )
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")


def integrate(
    initial: NhfStructure,
    t0: float,
    t1: float,
    h: float = 1e-3,
    record_every: int = 1,
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """RK4 integration of the flow from a valid structure.

    Integrates forward (t1 > t0) or backward (t1 < t0) with fixed step h,
    recording every record_every-th step and the last one.  The initial
    structure must pass `validate(tol)`, else InvalidStructureError, and
    each sample's `passed` is its verdict at `tol`; its g2_resid is the
    relative `g2_residual` of its state and y'.  The run ends
    at t1: when h does not divide t1 - t0 (to a relative 1e-9) the
    last step is shortened.  Raises ValueError for a zero or
    non-finite h, record_every < 1, a non-finite t0 or t1 or more than
    MAX_STEPS steps.

    A singular end is returned, not raised: where a stage raises
    SingularStructureError (|det P| < SINGULAR_DETP, or det M <= 0 so
    that P cannot be recovered), or a sample's P is singular at
    construction (`NhfStructure`), the run stops and the trajectory has
    ``terminated == "singular"`` and ``halt == (t, reason)``: t is the
    start time t0 + k h of the step in which it stopped, whatever
    record_every is, ``steps`` counts the k steps before it and
    ``samples`` the states recorded before it."""
    check_step(h, record_every, t0, t1)
    report = initial.validate(tol)
    if not report.passed:
        raise InvalidStructureError(
            f"initial structure invalid: worst residual {report.worst[1]:.3e}"
            f" ({report.worst[0]})"
        )
    lam = initial.lam
    direction = 1.0 if t1 >= t0 else -1.0
    h = abs(h) * direction
    ratio = abs(t1 - t0) / abs(h)
    n_steps = round(ratio)
    if abs(ratio - n_steps) <= 1e-9 * ratio:
        # h divides the span: n_steps full steps, the last ending at t0 + n h
        h_last, t_last = h, t0 + n_steps * h
    else:
        # one more step, shortened so that the run ends at t1
        n_steps = math.ceil(ratio)
        h_last, t_last = t1 - (t0 + (n_steps - 1) * h), t1

    y = [initial.a, initial.b] + initial.m9.q1 + initial.m9.q2
    sign = _sign(initial.det_p)
    traj = Trajectory(lam)

    def sample(t, y, dy):
        """The sample at (t, y), whose y' is dy."""
        q1, q2 = y[2:11], y[11:20]
        p, _ = _recover9(lam, q1, q2, sign)
        q = [0.5 * (u - v) for u, v in zip(q1, q2)]
        s = NhfStructure(lam, y[0], y[1], p, q, _flat=True)
        report = s.validate(tol)
        return FlowSample(
            t=t,
            structure=s,
            norm_resid=report.residuals["normalization"],
            sym_resid=report.residuals["qtp_symmetry"],
            g2_resid=g2_residual(s, dy[0], dy[1], dy[2:11], dy[11:20]),
            passed=report.passed,
        )

    # dy, each state's y', is evaluated once: it is the derivative of the
    # state's sample and the k1 of the next step.
    t = t0
    try:
        dy = stage(lam, sign, y)
        traj.samples.append(sample(t0, y, dy))
        for k in range(n_steps):
            t = t0 + k * h
            y, dy = rk4_step(lam, sign, y, dy, h if k < n_steps - 1 else h_last)
            if k == n_steps - 1:
                traj.samples.append(sample(t_last, y, dy))
            elif (k + 1) % record_every == 0:
                traj.samples.append(sample(t0 + (k + 1) * h, y, dy))
            traj.steps = k + 1
    except SingularStructureError as exc:
        traj.terminated = "singular"
        traj.halt = (t, str(exc))
    return traj
