"""RK4 integration of the nearly half-flat evolution equations.

The flow evolves (a, b, Q1, Q2); P is not evolved but recovered from the
constraint Q1 + Q2 = -lambda Adj(P^T) at every stage.  A trajectory of
structures sweeps out a nearly parallel G2-structure

    phi = dt ^ omega + gamma,    psi = omega^2 / 2 - dt ^ J gamma

on (t0, t1) x S^3 x S^3 exactly when d phi = lambda psi and d psi = 0,
which is what g2_residual measures.

Inside `integrate` the state is one flat list of 20 Python floats,

    y = [a, b, Q1_11, Q1_12, ..., Q1_33, Q2_11, ..., Q2_33]

with Q1 and Q2 row-major (y[2:11] and y[11:20]).  Each RK4 stage is one
call of `_stage` on such a list and makes no numpy call; arrays are
built only for the recorded samples.  `flow_rhs` and `recover_p` are the
array wrappers of the same code.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from nhflat.exterior import d, wedge
from nhflat.mat3 import adjugate, cofactor9, det9, flat9
from nhflat.structure import (
    NhfStructure,
    SingularStructureError,
    abr9,
    build_j_gamma,
    build_omega,
    invariant_three_form,
    normalization_residual,
)

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


def _adj_pt(lam, q1, q2):
    """M = Adj(P^T) = -(Q1 + Q2)/lambda as a row-major list, and det M.

    Raises SingularStructureError when det M <= 0: then no real P has
    Adj(P^T) = M, since det Adj(P^T) = (det P)^2."""
    m = [-(x + z) / lam for x, z in zip(q1, q2)]
    det_m = det9(m)
    if det_m <= 0:
        raise SingularStructureError(
            f"Adj(P^T) has nonpositive determinant {det_m:.3e}; P is not recoverable"
        )
    return m, det_m


def _recover9(lam, q1, q2, sign):
    """P (row-major list) and det P from Q1, Q2; sign is +1.0 or -1.0."""
    m, det_m = _adj_pt(lam, q1, q2)
    det_p = math.sqrt(det_m) * sign
    # P^T = Adj(M) / det P, so P is the cofactor matrix of M over det P
    return [x / det_p for x in cofactor9(m)], det_p


def _stage(lam, y, sign):
    """One evaluation of the evolution equations on the flat state
    y = [a, b, *Q1, *Q2]; returns (y', det P) with y' in the same layout.

    Runs on plain floats: it recovers P from det M and the cofactor of M,
    then evaluates A, B, R1 and R2."""
    q1, q2 = y[2:11], y[11:20]
    p, det_p = _recover9(lam, q1, q2, sign)
    if abs(det_p) < SINGULAR_DETP:
        raise SingularStructureError(f"det P = {det_p:.3e} below threshold")
    A, B, R1, R2 = abr9(y[0], y[1], q1, q2)
    c = -2.0 * lam / det_p
    return (
        [c * A, c * B]
        + [c * r + x for r, x in zip(R1, p)]
        + [c * r - x for r, x in zip(R2, p)]
    ), det_p


def _sign(det_p: float) -> float:
    return 1.0 if det_p >= 0 else -1.0


def _pack(a, b, Q1, Q2) -> list:
    """The flat state [a, b, *Q1, *Q2] of (a, b, Q1, Q2)."""
    return [float(a), float(b)] + flat9(Q1) + flat9(Q2)


def _unpack(y):
    """(a, b, Q1, Q2) with 3x3 arrays from a flat state."""
    return y[0], y[1], np.array(y[2:11]).reshape(3, 3), np.array(y[11:]).reshape(3, 3)


def recover_p(lam: float, Q1: np.ndarray, Q2: np.ndarray, det_p_prev: float):
    """Invert Adj(P^T) = -(Q1 + Q2)/lambda for P.

    (det P)^2 = det Adj(P^T); the sign of det P is chosen to continue the
    previous value, which keeps P continuous along a flow line."""
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
    dy, _ = _stage(lam, _pack(a, b, Q1, Q2), _sign(det_p_sign))
    return _unpack(dy)


@dataclass
class FlowSample:
    """One stored point of an integrated trajectory."""

    t: float
    structure: NhfStructure
    norm_resid: float
    sym_resid: float
    g2_resid: float

    def row(self):
        s = self.structure
        return (
            [self.t, s.a, s.b]
            + list(s.Q1.ravel())
            + list(s.Q2.ravel())
            + list(s.P.ravel())
            + [self.norm_resid, self.sym_resid, self.g2_resid]
        )


@dataclass
class Trajectory:
    lam: float
    samples: list = field(default_factory=list)
    terminated: str = "completed"

    @property
    def times(self):
        return np.array([s.t for s in self.samples])

    def structure_at(self, t: float) -> NhfStructure:
        """Stored structure at the sample time closest to t."""
        k = int(np.argmin(np.abs(self.times - t)))
        return self.samples[k].structure

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
        return {
            "lambda": self.lam,
            "terminated": self.terminated,
            "t_start": float(self.times[0]),
            "t_end": float(self.times[-1]),
            "steps": len(self.samples) - 1,
            "max_norm_resid": max(s.norm_resid for s in self.samples),
            "max_sym_resid": max(s.sym_resid for s in self.samples),
            "max_g2_resid": max(s.g2_resid for s in self.samples),
        }


def _derivative_forms(structure: NhfStructure, da, db, dQ1, dQ2):
    """(omega', gamma', (omega^2)', (J gamma)') for given state derivatives.

    P' is obtained by differentiating through M = Adj(P^T) = -(Q1+Q2)/lam:
        (det P)' = tr(Adj(M) M') / (2 det P)
        (P^T)'   = (Adj'(M) det P - Adj(M) (det P)') / (det P)^2
    where Adj'(M) in direction M' is the polarized adjugate."""
    from nhflat.mat3 import polarized_adjugate

    lam = structure.lam
    M = -(structure.Q1 + structure.Q2) / lam
    dM = -(dQ1 + dQ2) / lam
    det_p = structure.det_p
    ddet_p = float(np.trace(adjugate(M) @ dM)) / (2.0 * det_p)
    dPT = (polarized_adjugate(M, dM) * det_p - adjugate(M) * ddet_p) / det_p**2
    dP = dPT.T

    domega = build_omega(dP)
    dgamma = invariant_three_form(da, db, dQ1, dQ2)
    # (omega^2)' = 2 omega ^ omega'
    domega2 = 2.0 * wedge(structure.omega, domega)
    # (J gamma)' by differentiating (2/det P)(A e135 + B e246 + R1, R2)
    dA, dB, dR1, dR2 = _abr_derivative(
        structure.a, structure.b, structure.Q1, structure.Q2, da, db, dQ1, dQ2
    )
    djgamma = build_j_gamma(dA, dB, dR1, dR2, det_p) - (
        ddet_p / det_p
    ) * structure.Jgamma
    return domega, dgamma, domega2, djgamma


def _abr_derivative(a, b, Q1, Q2, da, db, dQ1, dQ2):
    """Directional derivative of (A, B, R1, R2) at the state in the given
    direction.

    A, B, R1 and R2 are homogeneous cubics in the state, so the 5-point
    central stencil
        f'(0) = (f(-2e) - 8 f(-e) + 8 f(e) - f(2e)) / (12 e)
    is exact for them up to rounding.  The step e is scaled so that e times
    the direction is as large as the state, which keeps that rounding
    relative to the size of the terms."""
    x = _pack(a, b, Q1, Q2)
    v = _pack(da, db, dQ1, dQ2)
    v_size = max(abs(t) for t in v)
    if v_size == 0.0:
        return 0.0, 0.0, np.zeros((3, 3)), np.zeros((3, 3))
    eps = max(abs(t) for t in x) / v_size

    def f(k):
        y = [xi + k * eps * vi for xi, vi in zip(x, v)]
        A, B, R1, R2 = abr9(y[0], y[1], y[2:11], y[11:])
        return [A, B, *R1, *R2]

    m2, m1, p1, p2 = f(-2), f(-1), f(1), f(2)
    return _unpack(
        [
            (l2 - 8.0 * l1 + 8.0 * u1 - u2) / (12.0 * eps)
            for l2, l1, u1, u2 in zip(m2, m1, p1, p2)
        ]
    )


def g2_residual(structure: NhfStructure, da, db, dQ1, dQ2) -> float:
    """Max-norm violation of d phi = lambda psi and d psi = 0 at one time.

    With phi = dt ^ omega + gamma and psi = omega^2/2 - dt ^ J gamma the
    two equations split into t-slice components:
        d phi - lambda psi = (d6 gamma - (lambda/2) omega^2)
                             + dt ^ (gamma' - d6 omega + lambda J gamma)
        d psi              = (1/2) d6 omega^2
                             + dt ^ ((1/2)(omega^2)' + d6 J gamma)
    All four pieces must vanish."""
    lam = structure.lam
    domega, dgamma, domega2, djgamma = _derivative_forms(
        structure, da, db, dQ1, dQ2
    )
    om2 = structure.omega2
    pieces = [
        (d(structure.gamma) - 0.5 * lam * om2).max_abs(),
        (dgamma - d(structure.omega) + lam * structure.Jgamma).max_abs(),
        0.5 * d(om2).max_abs(),
        (0.5 * domega2 + d(structure.Jgamma)).max_abs(),
    ]
    return max(pieces)


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
    recording every record_every-th step.  Raises ValueError for a zero or
    non-finite h, record_every < 1, a non-finite t0 or t1 or more than
    MAX_STEPS steps, and FlowSingularityError (carrying the partial
    trajectory) if |det P| drops below SINGULAR_DETP."""
    check_step(h, record_every, t0, t1)
    if validate_initial:
        report = initial.validate()
        if not report.passed:
            from nhflat.structure import InvalidStructureError

            raise InvalidStructureError(
                f"initial structure invalid: worst residual {report.worst[1]:.3e}"
                f" ({report.worst[0]})"
            )
    lam = initial.lam
    direction = 1.0 if t1 >= t0 else -1.0
    h = abs(h) * direction
    n_steps = int(round(abs(t1 - t0) / abs(h)))
    half, sixth = 0.5 * h, h / 6.0

    y = _pack(initial.a, initial.b, initial.Q1, initial.Q2)
    sign = _sign(initial.det_p)
    traj = Trajectory(lam=lam)

    def sample(t, y):
        a, b, Q1, Q2 = _unpack(y)
        P, det_p = recover_p(lam, Q1, Q2, sign)
        Q = 0.5 * (Q1 - Q2)
        s = NhfStructure(lam, a, b, P, Q)
        da, db, dQ1, dQ2 = flow_rhs(lam, a, b, Q1, Q2, det_p)
        return FlowSample(
            t=t,
            structure=s,
            norm_resid=normalization_residual(a, b, Q1, Q2, det_p),
            sym_resid=float(np.max(np.abs(Q.T @ P - P.T @ Q))),
            g2_resid=g2_residual(s, da, db, dQ1, dQ2),
        )

    t = t0
    try:
        traj.samples.append(sample(t0, y))
        for k in range(n_steps):
            t = t0 + k * h
            k1, _ = _stage(lam, y, sign)
            k2, _ = _stage(lam, [v + half * d for v, d in zip(y, k1)], sign)
            k3, _ = _stage(lam, [v + half * d for v, d in zip(y, k2)], sign)
            k4, _ = _stage(lam, [v + h * d for v, d in zip(y, k3)], sign)
            y = [
                v + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
                for v, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)
            ]
            _adj_pt(lam, y[2:11], y[11:])  # P must stay recoverable
            if (k + 1) % record_every == 0 or k == n_steps - 1:
                traj.samples.append(sample(t0 + (k + 1) * h, y))
    except SingularStructureError as exc:
        traj.terminated = "singular"
        raise FlowSingularityError(
            f"flow reached a singular point near t = {t:.6f}: {exc}",
            t=t,
            trajectory=traj,
        ) from exc
    return traj
