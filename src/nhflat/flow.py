"""RK4 integration of the nearly half-flat evolution equations.

The flow evolves (a, b, Q1, Q2); P is not evolved but recovered from the
constraint Q1 + Q2 = -lambda Adj(P^T) at every stage.  A trajectory of
structures sweeps out a nearly parallel G2-structure

    phi = dt ^ omega + gamma,    psi = omega^2 / 2 - dt ^ J gamma

on (t0, t1) x S^3 x S^3 exactly when d phi = lambda psi and d psi = 0,
which is what g2_residual measures, from the state and its time
derivatives alone (no derivative of P is formed).

Inside `integrate` the state is one flat list of 20 Python floats,

    y = [a, b, Q1_11, Q1_12, ..., Q1_33, Q2_11, ..., Q2_33]

with Q1 and Q2 row-major (y[2:11] and y[11:20]).  Each RK4 stage is one
call of `_stage(lam, y, sign, k, c)`, which evaluates the equations at
the shifted state y + c k itself, so the RK4 loop builds no shifted
lists.  A stage calls `_recover9` (P from Q1 + Q2) and `structure.abr9`
(A, B, R1, R2) once each; both are straight-line arithmetic over local
floats, with no numpy call and no call of the `mat3` helpers, whose
expressions they repeat operation for operation.  The recorded samples,
their residuals and `g2_residual` are computed from the list state too,
so `integrate` does not import numpy.  `flow_rhs` and `recover_p` are the
array wrappers of the same code.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from nhflat.mat3 import flat9
from nhflat.structure import (
    InvalidStructureError,
    NhfStructure,
    SingularStructureError,
    abr9,
)
from nhflat.tolerance import max_abs

if TYPE_CHECKING:
    import numpy as np

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


class FlowSingularityError(SingularStructureError):
    """det P collapsed below the singularity threshold during the flow."""

    def __init__(self, message, t=None, trajectory=None):
        super().__init__(message)
        self.t = t
        self.trajectory = trajectory


def _recover9(lam, q1, q2, sign):
    """P (row-major list) and det P from Q1, Q2; sign is +1.0 or -1.0.

    M = Adj(P^T) = -(Q1 + Q2)/lambda gives det P = sign sqrt(det M) and,
    from P^T = Adj(M) / det P, P = the cofactor matrix of M over det P.
    Raises SingularStructureError when det M <= 0: then no real P has
    Adj(P^T) = M, since det Adj(P^T) = (det P)^2.  Written out over local
    variables like `abr9`, rounding as `mat3.det9` and `cofactor9` do."""
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = q1
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = q2
    m00, m01, m02 = -(u00 + v00) / lam, -(u01 + v01) / lam, -(u02 + v02) / lam
    m10, m11, m12 = -(u10 + v10) / lam, -(u11 + v11) / lam, -(u12 + v12) / lam
    m20, m21, m22 = -(u20 + v20) / lam, -(u21 + v21) / lam, -(u22 + v22) / lam
    c00, c01, c02 = m11 * m22 - m12 * m21, m12 * m20 - m10 * m22, m10 * m21 - m11 * m20
    c10, c11, c12 = m02 * m21 - m01 * m22, m00 * m22 - m02 * m20, m01 * m20 - m00 * m21
    c20, c21, c22 = m01 * m12 - m02 * m11, m02 * m10 - m00 * m12, m00 * m11 - m01 * m10
    det_m = m00 * c00 - m01 * (m10 * m22 - m12 * m20) + m02 * c02
    if det_m <= 0:
        raise SingularStructureError(
            f"Adj(P^T) has nonpositive determinant {det_m:.3e}; P is not recoverable"
        )
    det_p = math.sqrt(det_m) * sign
    return [
        c00 / det_p, c01 / det_p, c02 / det_p,
        c10 / det_p, c11 / det_p, c12 / det_p,
        c20 / det_p, c21 / det_p, c22 / det_p,
    ], det_p


def _stage(lam, y, sign, k=None, c=0.0):
    """One evaluation of the evolution equations at the flat state
    y + c k (at y when k is None), y = [a, b, *Q1, *Q2]; returns y' in the
    same layout.

    Runs on plain floats: `_recover9` gives P, `abr9` gives A, B, R1 and
    R2, and
        (a', b', Q1', Q2') = e (A, B, R1, R2) + (0, 0, P, -P),
    e = -2 lambda / det P."""
    if k is not None:
        y = [v + c * d for v, d in zip(y, k)]
    q1, q2 = y[2:11], y[11:20]
    p, det_p = _recover9(lam, q1, q2, sign)
    if abs(det_p) < SINGULAR_DETP:
        raise SingularStructureError(f"det P = {det_p:.3e} below threshold")
    A, B, R1, R2 = abr9(y[0], y[1], q1, q2)
    p00, p01, p02, p10, p11, p12, p20, p21, p22 = p
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R1
    s00, s01, s02, s10, s11, s12, s20, s21, s22 = R2
    e = -2.0 * lam / det_p
    return [
        e * A, e * B,
        e * r00 + p00, e * r01 + p01, e * r02 + p02,
        e * r10 + p10, e * r11 + p11, e * r12 + p12,
        e * r20 + p20, e * r21 + p21, e * r22 + p22,
        e * s00 - p00, e * s01 - p01, e * s02 - p02,
        e * s10 - p10, e * s11 - p11, e * s12 - p12,
        e * s20 - p20, e * s21 - p21, e * s22 - p22,
    ]


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
    return _unpack(_stage(lam, _pack(a, b, Q1, Q2), _sign(det_p_sign)))


@dataclass
class FlowSample:
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


@dataclass
class Trajectory:
    lam: float
    samples: list = field(default_factory=list)
    terminated: str = "completed"
    #: RK4 steps taken, recorded or not.
    steps: int = 0

    def to_csv(self, path=None) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for s in self.samples:
            writer.writerow([f"{v:.12g}" for v in s.row()])
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def to_record(self) -> dict:
        """Summary of the run.  Each ``max_*`` residual comes with the time
        ``t_max_*`` of the first sample that attains it;
        ``invalid_samples`` counts the samples whose `validate` failed and
        ``t_first_invalid`` is the time of the first of them (None if
        every sample passed)."""
        rec = {
            "lambda": self.lam,
            "terminated": self.terminated,
            "t_start": float(self.samples[0].t),
            "t_end": float(self.samples[-1].t),
            "steps": self.steps,
        }
        for name in ("norm_resid", "sym_resid", "g2_resid"):
            worst = max(self.samples, key=lambda s: getattr(s, name))
            rec[f"max_{name}"] = getattr(worst, name)
            rec[f"t_max_{name}"] = worst.t
        invalid = [s.t for s in self.samples if not s.passed]
        rec["invalid_samples"] = len(invalid)
        rec["t_first_invalid"] = invalid[0] if invalid else None
        return rec


def g2_residual(structure: NhfStructure, da, db, dQ1, dQ2) -> float:
    """Max-norm violation of d phi = lambda psi and d psi = 0 at one time.

    With phi = dt ^ omega + gamma and psi = omega^2/2 - dt ^ J gamma the
    two equations split into t-slice components:
        d phi - lambda psi = (d6 gamma - (lambda/2) omega^2)
                             + dt ^ (gamma' - d6 omega + lambda J gamma)
        d psi              = (1/2) d6 omega^2
                             + dt ^ ((1/2)(omega^2)' + d6 J gamma)
    The t-slice pieces vanish for any (lambda, a, b, P, Q), so only the dt
    pieces are evaluated; omega^2 = (2/lambda)(Q1 + Q2) on the de ^ de
    slots gives (omega^2)'/2 = de_de_form((Q1' + Q2')/lambda), where
    de_de_form(M) = sum M_ij de^{2i-1} ^ de^{2j}.
    With `flow_rhs` derivatives both dt pieces vanish to rounding on any
    state, valid or not (the first is the evolution equation, the second
    its exterior derivative), so along `integrate` g2_resid cannot see
    drift off the valid set; norm_resid does.

    Both pieces are computed on coordinates (`structure.invariant_three_form`):
    d omega = (0, 0, P, -P), and d(c, d, M1, M2) = de_de_form(M1 + M2) is
    zero off the de ^ de slots.  So the first piece has the coordinates
    (a', b', Q1' - P, Q2' + P) + lambda jg and the second
    (Q1' + Q2')/lambda + M1 + M2 of jg, jg the 20-list of J gamma.  The
    bases are signed permutations and selections, so these are the
    forms' coefficients up to sign, to the bit.  dQ1 and dQ2 are 3x3
    arrays or row-major 9-sequences."""
    lam, p, jg = structure.lam, structure.m9.p, structure.jgamma_coords
    dq1, dq2 = flat9(dQ1), flat9(dQ2)
    first = (
        [float(da) + lam * jg[0], float(db) + lam * jg[1]]
        + [u - x + lam * j for u, x, j in zip(dq1, p, jg[2:11])]
        + [v + x + lam * j for v, x, j in zip(dq2, p, jg[11:20])]
    )
    second = [(u + v) / lam + (j + k) for u, v, j, k in zip(dq1, dq2, jg[2:11], jg[11:20])]
    return max(max_abs(first), max_abs(second))


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
    validate_initial: bool = True,
) -> Trajectory:
    """RK4 integration of the flow from a valid structure.

    Integrates forward (t1 > t0) or backward (t1 < t0) with fixed step h,
    recording every record_every-th step and the last one.  The run ends
    at t1: when h does not divide t1 - t0 (to a relative 1e-9) the
    last step is shortened.  Raises ValueError for a zero or
    non-finite h, record_every < 1, a non-finite t0 or t1 or more than
    MAX_STEPS steps, and FlowSingularityError (carrying the partial
    trajectory) if |det P| drops below SINGULAR_DETP."""
    check_step(h, record_every, t0, t1)
    if validate_initial:
        report = initial.validate()
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
    step, half, sixth = h, 0.5 * h, h / 6.0

    y = [initial.a, initial.b] + initial.m9.q1 + initial.m9.q2
    sign = _sign(initial.det_p)
    traj = Trajectory(lam=lam)

    def sample(t, y):
        q1, q2 = y[2:11], y[11:20]
        p, _ = _recover9(lam, q1, q2, sign)
        q = [0.5 * (u - v) for u, v in zip(q1, q2)]
        s = NhfStructure(lam, y[0], y[1], (p[0:3], p[3:6], p[6:9]), (q[0:3], q[3:6], q[6:9]))
        report = s.validate()
        dy = _stage(lam, y, sign)
        return FlowSample(
            t=t,
            structure=s,
            norm_resid=report.residuals["normalization"],
            sym_resid=report.residuals["qtp_symmetry"],
            g2_resid=g2_residual(s, dy[0], dy[1], dy[2:11], dy[11:20]),
            passed=report.passed,
        )

    t = t0
    try:
        traj.samples.append(sample(t0, y))
        for k in range(n_steps):
            t = t0 + k * h
            if k == n_steps - 1:
                step, half, sixth = h_last, 0.5 * h_last, h_last / 6.0
            k1 = _stage(lam, y, sign)
            k2 = _stage(lam, y, sign, k1, half)
            k3 = _stage(lam, y, sign, k2, half)
            k4 = _stage(lam, y, sign, k3, step)
            y = [
                v + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
                for v, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)
            ]
            _recover9(lam, y[2:11], y[11:], sign)  # P must stay recoverable
            traj.steps = k + 1
            if k == n_steps - 1:
                traj.samples.append(sample(t_last, y))
            elif (k + 1) % record_every == 0:
                traj.samples.append(sample(t0 + (k + 1) * h, y))
    except SingularStructureError as exc:
        traj.terminated = "singular"
        raise FlowSingularityError(
            f"flow reached a singular point near t = {t:.6f}: {exc}",
            t=t,
            trajectory=traj,
        ) from exc
    return traj
