"""Intrinsic torsion of invariant nearly half-flat structures.

The nonvanishing torsion forms are w1+ (scalar), w1- = 3 lambda / 4
(forced by the defining equation), w2- (a primitive (1,1) 2-form) and
w3 (a 3-form in the 12-dimensional module).  They are pinned down by

    d(omega)   = w1+ gamma + (3 lambda / 4) J gamma + w3
    d(J gamma) = -(2/3) w1+ omega^2 + w2- ^ omega

and the module memberships w3 ^ omega = w3 ^ gamma = w3 ^ J gamma = 0,
w2- ^ gamma = 0, w2- ^ omega^2 = 0.

Both equations are solved in closed form on the matrix data; no linear
system is solved.  d(omega) = invariant_three_form(0, 0, P, -P) exactly,
so w3 is one invariant 3-form of the 3x3 data (`w3_form`).  For w2-, the
right-hand side t = d(J gamma) + (2/3) w1+ omega^2 lies in the span of
the de^{2i-1} ^ de^{2j} (its other 6 coordinates are exactly 0 for
invariant forms), t = de_de_form(T).  Polarizing
omega^2 = de_de_form(-2 Adj(P^T)) gives

    build_omega(X) ^ omega = de_de_form(-D Adj(P^T)[X^T]),

and with A = P^T, S = -T the derivative of the adjugate,

    D Adj(A)[H] = det A (tr(A^-1 H) A^-1 - A^-1 H A^-1),

inverts to H = tau A - A S A / det P with tau = tr(S A) / (2 det P);
w2- = build_omega(H^T) (`w2_minus_form`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

import numpy as np

from nhflat.exterior import Form, d, inner, relative, wedge
from nhflat.mat3 import mul9, transpose9
from nhflat.structure import (
    DEFAULT_TOL,
    InvalidStructureError,
    NhfStructure,
    build_omega,
    de_de_coords,
    invariant_three_form,
)

CLASSIFY_TOL = 1e-7

CLASS_LABELS = ("W1-", "W1", "W1-+W3", "W1+W3", "W1-+W2-+W3", "W1+W2-+W3")


@dataclass
class TorsionData:
    w1plus: float
    w1minus: float
    w2minus: Form
    w3: Form
    s: float
    class_label: str
    residuals: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "w1plus": self.w1plus,
            "w1minus": self.w1minus,
            "w2minus": self.w2minus.coeffs.tolist(),
            "w3": self.w3.coeffs.tolist(),
            "s": self.s,
            "class": self.class_label,
            "residuals": dict(self.residuals),
        }


def w1_plus(structure: NhfStructure) -> float:
    """w1+ = tr(P^T R) / (2 (det P)^2), computed once per structure."""
    return structure.w1plus


def w3_form(
    structure: NhfStructure, tol: float = DEFAULT_TOL, with_residual: bool = False
):
    """w3 = d(omega) - w1+ gamma - (3 lambda/4) J gamma, with membership check.

    d(omega) = invariant_three_form(0, 0, P, -P) exactly and J gamma is
    (2/det P)(A, B, R1, R2) on gamma's slots, so w3 is the invariant
    3-form of the coordinates below, with c = 3 lambda / (2 det P):

        e135: -w1+ a - c A,          de^{2i-1} ^ e^{2j}: P - w1+ Q1 - c R1,
        e246: -w1+ b - c B,          e^{2i-1} ^ de^{2j}: -P - w1+ Q2 - c R2.

    w3 ^ omega, w3 ^ gamma and w3 ^ J gamma must vanish relative to the
    size of w3's uncancelled terms times the size of the other factor.
    With ``with_residual`` returns (w3, that relative residual)."""
    s, w1p, z, m = structure, structure.w1plus, structure.sizes, structure.m9
    c = 1.5 * s.lam / s.det_p
    w3 = invariant_three_form(
        -w1p * s.a - c * s.A,
        -w1p * s.b - c * s.B,
        [p - w1p * q - c * r for p, q, r in zip(m.p, m.q1, m.r1)],
        [-p - w1p * q - c * r for p, q, r in zip(m.p, m.q2, m.r2)],
    )
    # the size of w3 is that of its terms d(omega), w1+ gamma, (3/4) lambda J gamma
    size = max(z.om, abs(w1p) * z.gam, 0.75 * abs(s.lam) * z.jg)
    bad = max(
        relative(wedge(w3, s.omega), size * z.om),
        relative(wedge(w3, s.gamma), size * z.gam),
        relative(wedge(w3, s.Jgamma), size * z.jg),
    )
    if not bad <= tol:
        raise InvalidStructureError(
            f"w3 membership residual {bad:.3e} exceeds tolerance"
        )
    return (w3, bad) if with_residual else w3


def w2_minus_form(
    structure: NhfStructure, tol: float = DEFAULT_TOL, with_residual: bool = False
):
    """w2- from w2- ^ omega = t, t = d(J gamma) + (2/3) w1+ omega^2, in
    closed form; then checks that w2- is primitive: w2- ^ gamma = 0 and
    w2- ^ omega^2 = 0.

    beta |-> beta ^ omega is invertible on 2-forms when omega is
    nondegenerate (the Lefschetz isomorphism), and here its inverse is
    explicit.  t lies in the span of the de^{2i-1} ^ de^{2j}: its other 6
    coordinates are exactly 0 for invariant forms, so t = de_de_form(T)
    with T read off t by `de_de_coords`.  omega^2 = de_de_form(-2 Adj(P^T))
    polarizes to build_omega(X) ^ omega = de_de_form(-D Adj(P^T)[X^T]), D
    the derivative.  With A = P^T, inverting

        D Adj(A)[H] = det A (tr(A^-1 H) A^-1 - A^-1 H A^-1) = S = -T

    gives tr(A^-1 H) = tau = tr(S A) / (2 det P) and
    H = tau A - A S A / det P, and w2- = build_omega(H^T), that is

        H^T = P T^T P / det P - (tr(T^T P) / (2 det P)) P.

    T is read from the J gamma form, not from R1 and R2, so that w2- and
    its check follow the J gamma the structure holds.  The
    primitivity residuals are relative like `w3_form`'s membership check
    and raise InvalidStructureError above `tol`.  With ``with_residual``
    returns (w2-, the relative primitivity residual)."""
    w1p, z, p, dp = structure.w1plus, structure.sizes, structure.m9.p, structure.det_p
    gam, om2 = structure.gamma, structure.omega2
    t = de_de_coords(d(structure.Jgamma) + (2.0 / 3.0) * w1p * om2)
    tau = sum(map(mul, t, p)) / (2.0 * dp)
    ptp = mul9(mul9(p, transpose9(t)), p)
    beta = build_omega([x / dp - tau * y for x, y in zip(ptp, p)])
    # beta is sized by the target's terms d(J gamma) and (2/3) w1+ omega^2
    # over |omega| too: where w2- = 0, beta itself is roundoff
    size = max(beta.max_abs(), max(z.jg, (2.0 / 3.0) * abs(w1p) * z.om * z.om) / z.om)
    bad = max(
        relative(wedge(beta, gam), size * z.gam),
        relative(wedge(beta, om2), size * z.om * z.om),
    )
    if not bad <= tol:
        raise InvalidStructureError(
            f"w2- primitivity residual {bad:.3e} exceeds tolerance"
        )
    return (beta, bad) if with_residual else beta


def scalar_curvature(
    structure: NhfStructure, torsion=None, tol: float = DEFAULT_TOL
) -> float:
    """s = (10/3)(w1+)^2 + 15 lambda^2 / 8 - |w2-|^2 / 2 - |w3|^2 / 2.

    Norms are the tensor norms induced by the structure metric, both taken
    with the structure's one checked inverse metric.  Without `torsion`,
    w2- and w3 are computed here and checked at `tol`."""
    if torsion is None:
        w1p = structure.w1plus
        w2m = w2_minus_form(structure, tol)
        w3 = w3_form(structure, tol)
    else:
        w1p, w2m, w3 = torsion.w1plus, torsion.w2minus, torsion.w3
    ginv = structure.metric_inverse
    n2 = inner(ginv, w2m, w2m)
    n3 = inner(ginv, w3, w3)
    return (
        (10.0 / 3.0) * w1p * w1p
        + 15.0 * structure.lam**2 / 8.0
        - 0.5 * n2
        - 0.5 * n3
    )


def extract_torsion(structure: NhfStructure, tol: float = DEFAULT_TOL) -> TorsionData:
    """All torsion data plus the relative residuals of the two checks that
    pin it down: "domega" is the w3 membership residual of `w3_form`,
    "djgamma" the w2- primitivity residual of `w2_minus_form`."""
    w3, rec_domega = w3_form(structure, tol, with_residual=True)
    w2m, rec_djgamma = w2_minus_form(structure, tol, with_residual=True)
    data = TorsionData(
        w1plus=structure.w1plus,
        w1minus=0.75 * structure.lam,
        w2minus=w2m,
        w3=w3,
        s=0.0,
        class_label="",
        residuals={"domega": rec_domega, "djgamma": rec_djgamma},
    )
    data.s = scalar_curvature(structure, data)
    data.class_label = classify(structure, tol=max(tol, CLASSIFY_TOL)).label
    return data


@dataclass
class ClassReport:
    label: str
    nearly_kahler: bool
    w1plus_zero: bool
    w3_zero: bool
    w2minus_zero: bool
    predicate_residuals: dict


def _matrix_predicates(structure: NhfStructure):
    """Relative residuals of the closed-form torsion-vanishing conditions,
    on the structure's 9-lists (`NhfStructure.m9`).

    Each residual is divided by the size of the terms being compared
    (`relative`), so the verdict is scale invariant; the w1+ = 0 test is
    |w1+| / |lambda|, the rate w1+ against the rate w1- = 3 lambda / 4."""
    s, z, m = structure, structure.sizes, structure.m9
    lam, dp, w1p = s.lam, s.det_p, s.w1plus

    # the size of a scalar multiple c X is |c| times the size of X
    k = 2.0 * dp / (3.0 * lam)
    nk = relative(
        [s.A, s.B]
        + [r - k * p for r, p in zip(m.r1, m.p)]
        + [r + k * p for r, p in zip(m.r2, m.p)],
        z.r1, z.r2, abs(k) * z.p, s.A, s.B,
    )
    w1p_zero = relative(w1p, lam)
    # w2- = 0: R = (tr(P^T R) / (3 det P)) Adj(P^T), where tr(P^T R) is
    # 2 (det P)^2 w1+.  R is sized by R1 and R2, not by itself: R = R1 + R2
    # cancels to roundoff on w1w3 members, where the cancelled size would
    # inflate the residual.
    cw = (2.0 / 3.0) * dp * w1p
    r_w1 = [cw * x for x in m.adj_pt]
    cocoupled = relative(
        [r1 + r2 - x for r1, r2, x in zip(m.r1, m.r2, r_w1)], z.r1, z.r2, r_w1
    )
    # w3 = 0: the four displayed conditions on A, B, R1, R2
    c = (2.0 / 3.0) * dp * w1p / lam
    e, tp, tq = 1.0 / (3.0 * lam), 2.0 * dp, 2.0 * dp * w1p
    t1 = [e * (tp * p - tq * q) for p, q in zip(m.p, m.q1)]
    t2 = [e * (tp * p + tq * q) for p, q in zip(m.p, m.q2)]
    coupled = relative(
        [s.A + c * s.a, s.B + c * s.b]
        + [r - t for r, t in zip(m.r1, t1)]
        + [r + t for r, t in zip(m.r2, t2)],
        z.r1, z.r2, t1, t2, s.A, s.B, c * s.a, c * s.b,
    )
    return {
        "nearly_kahler": nk,
        "w1plus_zero": w1p_zero,
        "w2minus_zero": cocoupled,
        "w3_zero": coupled,
    }


def classify(structure: NhfStructure, tol: float = CLASSIFY_TOL) -> ClassReport:
    """Torsion class label from the matrix-level predicates."""
    res = _matrix_predicates(structure)
    w1p0 = res["w1plus_zero"] <= tol
    w30 = res["w3_zero"] <= tol
    w2m0 = res["w2minus_zero"] <= tol
    nk = res["nearly_kahler"] <= tol
    if w30:
        # w3 = 0 forces w2- = 0 for these structures
        label = "W1-" if w1p0 else "W1"
    elif w2m0:
        label = "W1-+W3" if w1p0 else "W1+W3"
    else:
        label = "W1-+W2-+W3" if w1p0 else "W1+W2-+W3"
    return ClassReport(
        label=label,
        nearly_kahler=nk,
        w1plus_zero=w1p0,
        w3_zero=w30,
        w2minus_zero=w2m0,
        predicate_residuals=res,
    )


def rotate_to_half_flat(structure: NhfStructure, tol: float = DEFAULT_TOL):
    """Rotate gamma inside its stable orbit to a closed form.

    Requires w2- = 0.  Returns (theta, gamma_theta, relative residual of
    d gamma_theta = 0) with theta = arctan(3 lambda / (4 w1+)); theta = pi/2
    when w1+ = 0.  Both "= 0" verdicts are those of `classify`."""
    report = classify(structure, tol=max(tol, CLASSIFY_TOL))
    if "W2-" in report.label:
        raise InvalidStructureError(
            f"w2- is not zero (relative residual "
            f"{report.predicate_residuals['w2minus_zero']:.3e}); "
            "no closed rotation exists"
        )
    if report.w1plus_zero:
        theta = 0.5 * np.pi
    else:
        theta = float(np.arctan(3.0 * structure.lam / (4.0 * w1_plus(structure))))
    cos_gamma = np.cos(theta) * structure.gamma
    sin_jgamma = np.sin(theta) * structure.Jgamma
    gamma_theta = cos_gamma + sin_jgamma
    return theta, gamma_theta, relative(d(gamma_theta), cos_gamma, sin_jgamma)
