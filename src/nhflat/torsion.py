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
Python floats, with the size of the terms they are compared with, in one
call of the generated kernel `torsion_pass` (``nhflat._torsion_kernels``,
traced from its composed form in ``tools/gen_kernels.py``), which takes
w1+ = `NhfStructure.w1plus` as an input, so that its ZeroDivisionError
is raised there, before the kernel runs.  The kernel computes:

* w3's 20-list y, its membership residual, |w3|^2 and the residual of
  w3 = 0;
* w2-'s 9-list X, its primitivity residual, |w2-|^2 and the residual of
  w2- = 0;
* the residuals of w1+ = 0 and of nearly Kahler, the larger of those of
  w1+ = 0 and w3 = 0.

It compares nothing.  The comparisons with `tol` are made here, in
Python, in this order: the w3 membership, then the w2- primitivity, then
the SPD verdict (`extract_torsion`), and the three "= 0" verdicts of the
class (`classify`).  The scalar curvature, whose lambda**2 raises
OverflowError where a product would give inf, is computed here too.
`extract_torsion` is the one pass over a structure: it calls the kernel
once, checks the module memberships, and reads the scalar curvature and
the torsion class off the same lists, all at the caller's `tol`;
`scalar_curvature` is its `s`.  `classify`, `w3_form` and
`w2_minus_form` call the kernel once each too.  None of this imports
numpy; `w3_form`, `w2_minus_form` and `TorsionData` build the forms from
the lists.  A form vanishes exactly when its coordinates do, so w3 = 0
is relative(y, size) <= tol for the 20-list y of w3, and w2- = 0
likewise for its 9-list X (`classify`).

w3.  d(omega) = invariant_three_form(0, 0, P, -P) exactly, so w3 is one
invariant 3-form of the 3x3 data (the generator's `composed_torsion_pass`).

w2-.  d(c, d, M1, M2) = de_de_form(M1 + M2) exactly, so the right-hand
side t = d(J gamma) + (2/3) w1+ omega^2 is de_de_form(T), with T = M1 + M2
of J gamma minus (4/3) w1+ Adj(P^T).  Polarizing
omega^2 = de_de_form(-2 Adj(P^T)) gives

    build_omega(X) ^ omega = de_de_form(-D Adj(P^T)[X^T]),

and with A = P^T, S = -T the derivative of the adjugate,

    D Adj(A)[H] = det A (tr(A^-1 H) A^-1 - A^-1 H A^-1),

inverts to H = tau A - A S A / det P with tau = tr(S A) / (2 det P);
w2- = build_omega(H^T) (the generator's `composed_torsion_pass`).

The module memberships are checked on coordinates, vol(.) the e123456
coefficient:

* (c, d, M1, M2) ^ build_omega(X) has the 6 coefficients above the
  diagonal of M1^T X - X^T M1 and of M2 X^T - X M2^T
  (the generator's `three_form_wedge_omega`): w3 ^ omega, w2- ^ gamma,
  and J gamma ^ omega in the kernel `construct`;
* vol(x ^ y) = x1 y0 - x0 y1 + sum_k (x[2+k] y[11+k] - x[11+k] y[2+k])
  for two 20-lists (the generator's `three_form_volume`): w3 ^ gamma
  and w3 ^ J gamma;
* vol(build_omega(X) ^ de_de_form(M)) = -sum_k X_k M_k: w2- ^ omega^2,
  with M = -2 Adj(P^T).

The norms in the scalar curvature need no inverse metric, because both
forms lie in known SU(3)-modules (Chiossi and Salamon, "The intrinsic
torsion of SU(3) and G2 structures", 2002).  vol(omega^3) = 6 det P.
w2- is a primitive (1,1)-form, so *w2- = -w2- ^ omega and

    |w2-|^2 = -6 vol(w2- ^ w2- ^ omega) / vol(omega^3)
            = -2 <Adj(X^T), P> / det P,

with <X, Y> = tr(X^T Y) the inner product `mat3.dot9`, which adds its
terms in one order on every Python, as every sum here does.

w3 lies in the 12-dimensional module.  There *w3 = J w3, J acting on
forms by applying the endomorphism J of the coframe to every slot (the
oracle `pullback(J, .)` of tests/oracles.py), and there the derivative
of the dual map gamma -> J gamma = (2 / det P) F(gamma) at fixed det P,
with F = (A, B, R1, R2) of `flow.abr`, is -2 J (Hitchin, "Stable
forms and special metrics", 2001).  So, for the 20-list y of w3,

    |w3|^2 = 6 vol(w3 ^ J w3) / vol(omega^3) = -vol(y ^ D F[y]) / (det P)^2
           = -D^2 lambda[y, y] / (2 (det P)^2),

since vol(y ^ D F[y]) is half the second derivative of the
normalization bracket lambda, Hitchin's quartic invariant of the 3-form
(the generator's `composed_bracket_hessian`, which the kernel
`torsion_pass` computes).  The positive definiteness of g is decided on
its 3x3 blocks (`NhfStructure.metric_spd`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from nhflat._torsion_kernels import torsion_pass
from nhflat.structure import (
    DEFAULT_TOL,
    InvalidStructureError,
    NhfStructure,
    build_omega,
    invariant_three_form,
    omega_coeffs,
    three_form_coeffs,
)
from nhflat.tolerance import relative

if TYPE_CHECKING:
    from nhflat.exterior import Form

CLASS_LABELS = ("W1-", "W1", "W1-+W3", "W1+W3", "W1-+W2-+W3", "W1+W2-+W3")


class ClassReport(NamedTuple):
    """The label of `classify`, its four verdicts and their residuals."""

    label: str
    nearly_kahler: bool
    w1plus_zero: bool
    w3_zero: bool
    w2minus_zero: bool
    predicate_residuals: dict


class TorsionData(NamedTuple):
    """The torsion of a structure.  w2- and w3 are held as coordinates, the
    row-major 9-list X of w2- = build_omega(X) and the 20-list of w3 (see
    `structure.invariant_three_form`); the forms `w2minus` and `w3` are
    built from them on access.  `report` is their `classify` verdict."""

    w1plus: float
    w1minus: float
    w2minus_coords: list
    w3_coords: list
    s: float
    report: ClassReport
    residuals: dict

    @property
    def class_label(self) -> str:
        return self.report.label

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


def _torsion_pass(structure: NhfStructure):
    """The generated kernel `torsion_pass` on the structure's values: w3's
    20-list y, its membership residual, |w3|^2 and the residual of
    w3 = 0; w2-'s 9-list X, its primitivity residual, |w2-|^2 and the
    residual of w2- = 0; and the residuals of w1+ = 0 and of nearly
    Kahler.  J gamma is read off `NhfStructure.jgamma_coords`, not off R1
    and R2, so that w3, w2- and their checks follow the J gamma the
    structure holds.  Raises where `NhfStructure.w1plus` does."""
    s, m = structure, structure.m9
    return torsion_pass(
        s.lam, s.a, s.b, s.det_p, s.w1plus, m.p, m.q1, m.q2, m.r1, m.r2,
        s.A, s.B, s.jgamma_coords, s.sizes, m.adj_pt,
    )


def _checked(residual: float, check: str, tol: float) -> float:
    """The residual of a module-membership check; raises
    InvalidStructureError when it exceeds `tol` (a NaN does)."""
    if not residual <= tol:
        raise InvalidStructureError(f"{check} residual {residual:.3e} exceeds tolerance")
    return residual


def w3_form(structure: NhfStructure, tol: float = DEFAULT_TOL) -> Form:
    """w3 as a form, from the kernel `torsion_pass`, with its membership
    check at `tol`."""
    y, bad = _torsion_pass(structure)[:2]
    _checked(bad, "w3 membership", tol)
    return invariant_three_form(y[0], y[1], y[2:11], y[11:20])


def w2_minus_form(structure: NhfStructure, tol: float = DEFAULT_TOL) -> Form:
    """w2- as a form, from the kernel `torsion_pass`, with its primitivity
    check at `tol`."""
    x, bad = _torsion_pass(structure)[4:6]
    _checked(bad, "w2- primitivity", tol)
    return build_omega(x)


def scalar_curvature(structure: NhfStructure, tol: float = DEFAULT_TOL) -> float:
    """s = (10/3)(w1+)^2 + 15 lambda^2 / 8 - |w2-|^2 / 2 - |w3|^2 / 2, the
    `s` of `extract_torsion`, which checks w2- and w3 at `tol`.  Raises
    InvalidStructureError when g is not positive definite."""
    return extract_torsion(structure, tol).s


def extract_torsion(structure: NhfStructure, tol: float = DEFAULT_TOL) -> TorsionData:
    """The one pass that computes and checks the torsion: one call of the
    kernel `torsion_pass`, its checks at `tol` ("domega" the w3 membership
    residual, "djgamma" the w2- primitivity residual), and s and the
    `classify` report at `tol` off the same coordinates.  Raises
    InvalidStructureError when a check fails or g is not positive
    definite."""
    result = _torsion_pass(structure)
    y, w3_bad, n3, _, x, w2_bad, n2 = result[:7]
    rec_domega = _checked(w3_bad, "w3 membership", tol)
    rec_djgamma = _checked(w2_bad, "w2- primitivity", tol)
    if not structure.metric_spd:
        raise InvalidStructureError("induced metric is not positive definite")
    w1p = structure.w1plus
    return TorsionData(
        w1plus=w1p,
        w1minus=structure.w1_minus,
        w2minus_coords=x,
        w3_coords=y,
        s=(10.0 / 3.0) * w1p * w1p + 15.0 * structure.lam**2 / 8.0 - 0.5 * n2 - 0.5 * n3,
        report=_report(result, tol),
        residuals={"domega": rec_domega, "djgamma": rec_djgamma},
    )


def _report(result, tol) -> ClassReport:
    """`classify` on the residuals of w3 = 0, w2- = 0, w1+ = 0 and nearly
    Kahler that the kernel `torsion_pass` computed (`result`)."""
    w3_res, w2m_res, w1p_res, nk_res = result[3], result[7], result[8], result[9]
    w1p0, w30, w2m0 = w1p_res <= tol, w3_res <= tol, w2m_res <= tol
    # CLASS_LABELS in pairs (w1+ = 0, w1+ != 0); w3 = 0 forces w2- = 0 here
    pair = 0 if w30 else 1 if w2m0 else 2
    return ClassReport(
        label=CLASS_LABELS[2 * pair + (not w1p0)],
        nearly_kahler=w1p0 and w30,
        w1plus_zero=w1p0,
        w3_zero=w30,
        w2minus_zero=w2m0,
        predicate_residuals={
            "nearly_kahler": nk_res,
            "w1plus_zero": w1p_res,
            "w2minus_zero": w2m_res,
            "w3_zero": w3_res,
        },
    )


def classify(structure: NhfStructure, tol: float = DEFAULT_TOL) -> ClassReport:
    """The torsion class: which of w1+, w3 and w2- vanish.

    A torsion form vanishes exactly when its coordinates do, so w3 = 0 and
    w2- = 0 are decided on the coordinates that the kernel `torsion_pass`
    computes, relative to the size of their terms, and w1+ = 0 as
    |w1+| / |lambda| <= tol, the rate w1+ against the rate
    w1- = 3 lambda / 4.  Nearly Kahler is w1+ = 0 and w3 = 0, the label
    W1-; its residual is the larger of those two, NaN if either is.  The
    membership checks are `extract_torsion`'s and validity is
    `validate`'s."""
    return _report(_torsion_pass(structure), tol)


def rotate_to_half_flat(structure: NhfStructure, tol: float = DEFAULT_TOL):
    """Rotate gamma inside its stable orbit to a closed form.

    Requires w2- = 0.  Returns (theta, gamma_theta, relative residual of
    d gamma_theta = 0) with theta = arctan(3 lambda / (4 w1+)); theta = pi/2
    when w1+ = 0.  Both "= 0" verdicts are those of `classify`.
    gamma_theta = cos(theta) gamma + sin(theta) J gamma is returned as its
    20-list (see `structure.invariant_three_form`); d of the 3-form with the
    20-list (c, d, M1, M2) is de_de_form(M1 + M2), so the residual is read
    off M1 + M2."""
    report = classify(structure, tol)
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
