"""Intrinsic torsion of invariant nearly half-flat structures.

The nonvanishing torsion forms are w1+ (scalar), w1- = 3 lambda / 4
(forced by the defining equation), w2- (a primitive (1,1) 2-form) and
w3 (a 3-form in the 12-dimensional module).  They are pinned down by

    d(omega)   = w1+ gamma + (3 lambda / 4) J gamma + w3
    d(J gamma) = -(2/3) w1+ omega^2 + w2- ^ omega

and the module memberships w3 ^ omega = w3 ^ gamma = w3 ^ J gamma = 0,
w2- ^ gamma = 0, w2- ^ omega^2 = 0.

Everything is computed in closed form on the matrix data: no linear
system is solved, and no form is wedged, differentiated or contracted
with the metric.  An invariant 3-form has the coordinates (c, d, M1, M2)
of `invariant_three_form`, a 20-list, and a 2-form in the span of
omega's slots the 9-list X of `build_omega`; the bases are a signed
permutation and a signed selection, so the coordinates are a form's
coefficients up to sign.  de_de_form(M) below is sum M_ij de^{2i-1} ^
de^{2j}.  The torsion forms are computed as such coordinate lists of
Python floats (`w3_coords`, `w2_minus_coords`), so `extract_torsion`,
`classify` and `scalar_curvature` do not import numpy; `w3_form`,
`w2_minus_form` and `TorsionData` build the forms from them.

w3.  d(omega) = invariant_three_form(0, 0, P, -P) exactly, so w3 is one
invariant 3-form of the 3x3 data (`w3_coords`).

w2-.  d(c, d, M1, M2) = de_de_form(M1 + M2) exactly, so the right-hand
side t = d(J gamma) + (2/3) w1+ omega^2 is de_de_form(T), with T = M1 + M2
of J gamma minus (4/3) w1+ Adj(P^T).  Polarizing
omega^2 = de_de_form(-2 Adj(P^T)) gives

    build_omega(X) ^ omega = de_de_form(-D Adj(P^T)[X^T]),

and with A = P^T, S = -T the derivative of the adjugate,

    D Adj(A)[H] = det A (tr(A^-1 H) A^-1 - A^-1 H A^-1),

inverts to H = tau A - A S A / det P with tau = tr(S A) / (2 det P);
w2- = build_omega(H^T) (`w2_minus_coords`).

The module memberships are checked on coordinates, vol(.) the e123456
coefficient:

* (c, d, M1, M2) ^ build_omega(X) has the 6 coefficients above the
  diagonal of M1^T X - X^T M1 and of M2 X^T - X M2^T
  (`structure.three_form_wedge_omega`): w3 ^ omega, w2- ^ gamma, and
  J gamma ^ omega in `NhfStructure.validate`;
* vol(x ^ y) = x1 y0 - x0 y1 + sum_k (x[2+k] y[11+k] - x[11+k] y[2+k])
  for two 20-lists (`structure.three_form_volume`): w3 ^ gamma and
  w3 ^ J gamma;
* vol(build_omega(X) ^ de_de_form(M)) = -sum_k X_k M_k: w2- ^ omega^2,
  with M = -2 Adj(P^T).

The norms in the scalar curvature need no inverse metric, because both
forms lie in known SU(3)-modules (Chiossi and Salamon, "The intrinsic
torsion of SU(3) and G2 structures", 2002).  vol(omega^3) = 6 det P.
w2- is a primitive (1,1)-form, so *w2- = -w2- ^ omega and

    |w2-|^2 = -6 vol(w2- ^ w2- ^ omega) / vol(omega^3)
            = -2 <Adj(X^T), P> / det P,   <X, Y> = tr(X^T Y).

w3 lies in the 12-dimensional module.  There *w3 = J w3, J acting on
forms by applying the endomorphism J of the coframe to every slot (the
oracle `pullback(J, .)` of tests/oracles.py), and there the derivative
of the dual map gamma -> J gamma = (2 / det P) F(gamma) at fixed det P,
with F = (A, B, R1, R2) of `structure.abr9`, is -2 J (Hitchin, "Stable
forms and special metrics", 2001).  So, for the 20-list y of w3,

    |w3|^2 = 6 vol(w3 ^ J w3) / vol(omega^3) = -vol(y ^ D F[y]) / (det P)^2
           = -D^2 lambda[y, y] / (2 (det P)^2),

since vol(y ^ D F[y]) is half the second derivative of the
normalization bracket lambda, Hitchin's quartic invariant of the 3-form
(`structure.bracket_hessian9`).  The positive definiteness of g is
decided on its 3x3 blocks (`NhfStructure.metric_spd`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import TYPE_CHECKING

from nhflat.mat3 import cofactor9, mul9, transpose9
from nhflat.structure import (
    DEFAULT_TOL,
    InvalidStructureError,
    NhfStructure,
    bracket_hessian9,
    build_omega,
    invariant_three_form,
    omega_coeffs,
    three_form_coeffs,
    three_form_volume,
    three_form_wedge_omega,
)
from nhflat.tolerance import max_abs, relative

if TYPE_CHECKING:
    from nhflat.exterior import Form

CLASSIFY_TOL = 1e-7

CLASS_LABELS = ("W1-", "W1", "W1-+W3", "W1+W3", "W1-+W2-+W3", "W1+W2-+W3")


@dataclass
class TorsionData:
    """The torsion of a structure.  w2- and w3 are held as coordinates, the
    row-major 9-list X of w2- = build_omega(X) and the 20-list of w3 (see
    `structure.invariant_three_form`); the forms `w2minus` and `w3` are
    built from them on access."""

    w1plus: float
    w1minus: float
    w2minus_coords: list
    w3_coords: list
    s: float
    class_label: str
    residuals: dict = field(default_factory=dict)

    @property
    def w2minus(self) -> Form:
        return build_omega(self.w2minus_coords)

    @property
    def w3(self) -> Form:
        y = self.w3_coords
        return invariant_three_form(y[0], y[1], y[2:11], y[11:20])

    def to_record(self) -> dict:
        return {
            "w1plus": self.w1plus,
            "w1minus": self.w1minus,
            "w2minus": omega_coeffs(self.w2minus_coords),
            "w3": three_form_coeffs(self.w3_coords),
            "s": self.s,
            "class": self.class_label,
            "residuals": dict(self.residuals),
        }


def w1_plus(structure: NhfStructure) -> float:
    """w1+ = tr(P^T R) / (2 (det P)^2), computed once per structure."""
    return structure.w1plus


def w3_coords(structure: NhfStructure, tol: float = DEFAULT_TOL):
    """The 20-list of w3 = d(omega) - w1+ gamma - (3 lambda/4) J gamma and
    the relative residual of its membership check; raises
    InvalidStructureError when that residual exceeds `tol`.

    d(omega) = invariant_three_form(0, 0, P, -P) exactly and J gamma is
    (2/det P)(A, B, R1, R2) on gamma's slots, so w3 has the coordinates
    below, with c = 3 lambda / (2 det P):

        e135: -w1+ a - c A,          de^{2i-1} ^ e^{2j}: P - w1+ Q1 - c R1,
        e246: -w1+ b - c B,          e^{2i-1} ^ de^{2j}: -P - w1+ Q2 - c R2.

    w3 ^ omega, w3 ^ gamma and w3 ^ J gamma must vanish relative to the
    size of w3's uncancelled terms times the size of the other factor;
    they are computed on coordinates (see the module docstring), J gamma's
    read off `NhfStructure.jgamma_coords`."""
    s, w1p, z, m = structure, structure.w1plus, structure.sizes, structure.m9
    c = 1.5 * s.lam / s.det_p
    y1 = [p - w1p * q - c * r for p, q, r in zip(m.p, m.q1, m.r1)]
    y2 = [-p - w1p * q - c * r for p, q, r in zip(m.p, m.q2, m.r2)]
    y = [-w1p * s.a - c * s.A, -w1p * s.b - c * s.B] + y1 + y2
    # the size of w3 is that of its terms d(omega), w1+ gamma, (3/4) lambda J gamma
    size = max(z.om, abs(w1p) * z.gam, 0.75 * abs(s.lam) * z.jg)
    gamma = [s.a, s.b] + m.q1 + m.q2
    bad = max(
        relative(three_form_wedge_omega(y1, y2, m.p), size * z.om),
        relative(three_form_volume(y, gamma), size * z.gam),
        relative(three_form_volume(y, s.jgamma_coords), size * z.jg),
    )
    if not bad <= tol:
        raise InvalidStructureError(
            f"w3 membership residual {bad:.3e} exceeds tolerance"
        )
    return y, bad


def w3_form(structure: NhfStructure, tol: float = DEFAULT_TOL) -> Form:
    """w3 as a form, from `w3_coords`, with its membership check."""
    y = w3_coords(structure, tol)[0]
    return invariant_three_form(y[0], y[1], y[2:11], y[11:20])


def w2_minus_coords(structure: NhfStructure, tol: float = DEFAULT_TOL):
    """The row-major 9-list X of w2- = build_omega(X), from w2- ^ omega = t,
    t = d(J gamma) + (2/3) w1+ omega^2, in closed form, and the relative
    residual of the check that w2- is primitive: w2- ^ gamma = 0 and
    w2- ^ omega^2 = 0; raises InvalidStructureError when that residual
    exceeds `tol`.

    beta |-> beta ^ omega is invertible on 2-forms when omega is
    nondegenerate (the Lefschetz isomorphism), and here its inverse is
    explicit.  t lies in the span of the de^{2i-1} ^ de^{2j}: its other 6
    coordinates are exactly 0 for invariant forms, and t = de_de_form(T)
    with T = M1 + M2 - (4/3) w1+ Adj(P^T), (c, d, M1, M2) the coordinates of
    J gamma, since d(c, d, M1, M2) = de_de_form(M1 + M2) and
    omega^2 = de_de_form(-2 Adj(P^T)).  The latter polarizes to
    build_omega(X) ^ omega = de_de_form(-D Adj(P^T)[X^T]), D
    the derivative.  With A = P^T, inverting

        D Adj(A)[H] = det A (tr(A^-1 H) A^-1 - A^-1 H A^-1) = S = -T

    gives tr(A^-1 H) = tau = tr(S A) / (2 det P) and
    H = tau A - A S A / det P, and w2- = build_omega(H^T), that is

        H^T = P T^T P / det P - (tr(T^T P) / (2 det P)) P.

    T is read from the coordinates of J gamma, not from R1 and R2, so that
    w2- and its check follow the J gamma the structure holds.  The
    primitivity residuals, computed on coordinates (see the module
    docstring), are relative like `w3_coords`' membership check."""
    w1p, z, m, dp = structure.w1plus, structure.sizes, structure.m9, structure.det_p
    p = m.p
    jg = structure.jgamma_coords
    k = (4.0 / 3.0) * w1p
    t = [x + y - k * c for x, y, c in zip(jg[2:11], jg[11:20], m.adj_pt)]
    tau = sum(map(mul, t, p)) / (2.0 * dp)
    ptp = mul9(mul9(p, transpose9(t)), p)
    x = [u / dp - tau * v for u, v in zip(ptp, p)]
    # beta is sized by the target's terms d(J gamma) and (2/3) w1+ omega^2
    # over |omega| too: where w2- = 0, beta itself is roundoff
    size = max(max_abs(x), max(z.jg, (2.0 / 3.0) * abs(w1p) * z.om * z.om) / z.om)
    bad = max(
        relative(three_form_wedge_omega(m.q1, m.q2, x), size * z.gam),
        relative(2.0 * sum(map(mul, x, m.adj_pt)), size * z.om * z.om),
    )
    if not bad <= tol:
        raise InvalidStructureError(
            f"w2- primitivity residual {bad:.3e} exceeds tolerance"
        )
    return x, bad


def w2_minus_form(structure: NhfStructure, tol: float = DEFAULT_TOL) -> Form:
    """w2- as a form, from `w2_minus_coords`, with its primitivity check."""
    return build_omega(w2_minus_coords(structure, tol)[0])


def _w2_minus_norm2(structure: NhfStructure, x) -> float:
    """|w2-|^2 = -2 <Adj(X^T), P> / det P of the primitive (1,1)-form
    w2- = build_omega(X), X a row-major 9-list (see the module
    docstring)."""
    return -2.0 * sum(map(mul, cofactor9(x), structure.m9.p)) / structure.det_p


def _w3_norm2(structure: NhfStructure, y) -> float:
    """|w3|^2 = -D^2 lambda[y, y] / (2 (det P)^2) of the w3 in the
    12-dimensional module with the 20-list y (see the module docstring)."""
    s, m, dp = structure, structure.m9, structure.det_p
    return -bracket_hessian9(s.a, s.b, m.q1, m.q2, y) / (2.0 * dp * dp)


def _scalar(structure: NhfStructure, w1p: float, x, y) -> float:
    """s from w1+ and the coordinates x of w2- and y of w3; raises
    InvalidStructureError when g is not positive definite."""
    if not structure.metric_spd:
        raise InvalidStructureError("induced metric is not positive definite")
    n2 = _w2_minus_norm2(structure, x)
    n3 = _w3_norm2(structure, y)
    return (
        (10.0 / 3.0) * w1p * w1p
        + 15.0 * structure.lam**2 / 8.0
        - 0.5 * n2
        - 0.5 * n3
    )


def scalar_curvature(structure: NhfStructure, tol: float = DEFAULT_TOL) -> float:
    """s = (10/3)(w1+)^2 + 15 lambda^2 / 8 - |w2-|^2 / 2 - |w3|^2 / 2.

    The norms are those of the structure metric, in closed form on the
    coordinates of the forms (`_w2_minus_norm2`, `_w3_norm2`); w2- and w3
    are computed here and checked at `tol`.  Raises InvalidStructureError
    when g is not positive definite."""
    x = w2_minus_coords(structure, tol)[0]
    y = w3_coords(structure, tol)[0]
    return _scalar(structure, structure.w1plus, x, y)


def extract_torsion(structure: NhfStructure, tol: float = DEFAULT_TOL) -> TorsionData:
    """All torsion data plus the relative residuals of the two checks that
    pin it down: "domega" is the w3 membership residual of `w3_coords`,
    "djgamma" the w2- primitivity residual of `w2_minus_coords`."""
    y, rec_domega = w3_coords(structure, tol)
    x, rec_djgamma = w2_minus_coords(structure, tol)
    w1p = structure.w1plus
    return TorsionData(
        w1plus=w1p,
        w1minus=structure.w1_minus,
        w2minus_coords=x,
        w3_coords=y,
        s=_scalar(structure, w1p, x, y),
        class_label=classify(structure, tol=max(tol, CLASSIFY_TOL)).label,
        residuals={"domega": rec_domega, "djgamma": rec_djgamma},
    )


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
    when w1+ = 0.  Both "= 0" verdicts are those of `classify`.
    gamma_theta = cos(theta) gamma + sin(theta) J gamma is returned as its
    20-list (see `structure.invariant_three_form`); d of the 3-form with the
    20-list (c, d, M1, M2) is de_de_form(M1 + M2), so the residual is read
    off M1 + M2."""
    report = classify(structure, tol=max(tol, CLASSIFY_TOL))
    if "W2-" in report.label:
        raise InvalidStructureError(
            f"w2- is not zero (relative residual "
            f"{report.predicate_residuals['w2minus_zero']:.3e}); "
            "no closed rotation exists"
        )
    if report.w1plus_zero:
        theta = 0.5 * math.pi
    else:
        theta = math.atan(3.0 * structure.lam / (4.0 * structure.w1plus))
    m = structure.m9
    cos_gamma = [math.cos(theta) * x for x in [structure.a, structure.b] + m.q1 + m.q2]
    sin_jgamma = [math.sin(theta) * x for x in structure.jgamma_coords]
    gamma_theta = [u + v for u, v in zip(cos_gamma, sin_jgamma)]
    d_gamma_theta = [u + v for u, v in zip(gamma_theta[2:11], gamma_theta[11:20])]
    return theta, gamma_theta, relative(d_gamma_theta, cos_gamma, sin_jgamma)
