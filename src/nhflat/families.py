"""Closed-form solution families and the two exact trajectories.

These are the reference points everything else is tested against: the
unique invariant nearly Kahler structure, the one-parameter families with
torsion in W1 and in W1- + W3, the zero scalar curvature solutions, and
the Berger / sine-cone trajectories that solve the evolution equations.
"""

from __future__ import annotations

import functools

import numpy as np

from nhflat.structure import NhfStructure, StructureError

SQRT3 = np.sqrt(3.0)


class FamilyRangeError(StructureError):
    """Parameter outside the family's admissible range."""


def _closed_form(build):
    """Family constructor that raises FamilyRangeError, not an arithmetic
    error or a member with a non-finite entry or det P, where its closed
    form under- or overflows (nearly_kahler at lambda = 1e-110: lambda^3 is
    0; at lambda = 1e-60: det P is inf)."""

    @functools.wraps(build)
    def member(*args, **kwargs):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                s = build(*args, **kwargs)
            finite = all(
                np.isfinite(v).all() for v in (s.lam, s.a, s.b, s.det_p, s.P, s.Q)
            )
        except ArithmeticError:
            finite = False
        if not finite:
            raise FamilyRangeError(
                f"{build.__name__}: the closed form under- or overflows at these parameters"
            )
        return s

    return member


@_closed_form
def nearly_kahler(lam: float, sign_p: int = 1) -> NhfStructure:
    """The unique invariant nearly Kahler solution at scale lambda.

    P = +-(4 sqrt(3) / (9 lambda^2)) Id, Q = 0, a = b = 16 / (27 lambda^3)."""
    if lam == 0:
        raise FamilyRangeError("lambda must be nonzero")
    p = sign_p * 4.0 * SQRT3 / (9.0 * lam * lam)
    ab = 16.0 / (27.0 * lam**3)
    return NhfStructure(lam, ab, ab, p * np.eye(3), np.zeros((3, 3)))


@_closed_form
def w1_family(lam: float, p: float, sign_q: int = 1) -> NhfStructure:
    """Torsion in W1 only: P = p Id, Q = q Id, a = b = lambda p^2,
    q = +- p sqrt(12 sqrt(3) |p| - 27 lambda^2 p^2) / 6, |p| in
    (0, 4 sqrt(3) / (9 lambda^2))."""
    disc = 12.0 * SQRT3 * abs(p) - 27.0 * lam * lam * p * p
    if p == 0 or disc < 0:
        raise FamilyRangeError(
            f"|p| must lie in (0, {4.0 * SQRT3 / (9.0 * lam * lam):.6g})"
        )
    q = sign_q * p * np.sqrt(disc) / 6.0
    ab = lam * p * p
    return NhfStructure(lam, ab, ab, p * np.eye(3), q * np.eye(3))


@_closed_form
def w1w3_family(a: float, sign_p: int = 1) -> NhfStructure:
    """w1+ = w2- = 0 (so d J gamma = 0), at lambda = 4, for a > 1/256:
    b = 512 a^2/(256 a - 1), q = 128 a^2/(256 a - 1), p = +-8a/sqrt(256 a - 1)."""
    den = 256.0 * a - 1.0
    if den <= 0:
        raise FamilyRangeError("requires a > 1/256")
    b = 512.0 * a * a / den
    q = 128.0 * a * a / den
    p = sign_p * 8.0 * a / np.sqrt(den)
    return NhfStructure(4.0, a, b, p * np.eye(3), q * np.eye(3))


def _zero_scalar_q(p: float, inner_sign: int) -> float:
    disc = 36.0 * p * p + inner_sign * 3.0 * SQRT3 * p
    if disc < 0:
        raise FamilyRangeError("q is not real at this p")
    return p * np.sqrt(disc) / 3.0


@_closed_form
def zero_scalar_structure(p: float, inner_sign: int, sign_q: int = 1) -> NhfStructure:
    """Single member of the a = b = 0, P = p Id, Q = q Id, lambda = 4 family
    with q^2 = 4 p^4 + inner_sign * p^3 / sqrt(3)."""
    q = sign_q * _zero_scalar_q(p, inner_sign)
    return NhfStructure(4.0, 0.0, 0.0, p * np.eye(3), q * np.eye(3))


def zero_scalar_s(p: float, inner_sign: int) -> float:
    """Scalar curvature of the torsion formula along the family.

    Equals 10 q^2 / p^4 - 18, which reduces to 22 + inner * 10 sqrt(3)/(3p);
    the constant -48 is half the squared w3-norm, which is constant along
    the whole family (cross-checked against full extraction in the tests)."""
    return 22.0 + inner_sign * 10.0 * SQRT3 / (3.0 * p)


def zero_scalar_family(branch: str):
    """All admissible zero scalar curvature solutions on one inner branch.

    branch is 'plus' or 'minus', selecting the sign inside the q square
    root.  The scalar curvature 22 + inner * 10 sqrt(3)/(3p) along the
    branch has the single root p = -inner * 5 sqrt(3)/33; it is dropped if q
    would be imaginary there or the structure fails validation."""
    inner = {"plus": 1, "minus": -1}.get(branch)
    if inner is None:
        raise FamilyRangeError(f"branch must be 'plus' or 'minus', got {branch!r}")
    p = -inner * 5.0 * SQRT3 / 33.0
    if 36.0 * p * p + inner * 3.0 * SQRT3 * p >= 0:
        s = zero_scalar_structure(p, inner)
        if s.validate().passed:
            return [s]
    raise FamilyRangeError(f"no admissible zero-scalar root on branch {branch!r}")


@_closed_form
def berger_trajectory(t: float) -> NhfStructure:
    """The cohomogeneity-one slice of the homogeneous nearly parallel
    structure on the Berger space, lambda = 6/sqrt(5), t in (0, pi/3)."""
    r5 = np.sqrt(5.0)
    a = (7.0 - 2.0 * np.cos(3.0 * t)) / (20.0 * r5)
    b = -(7.0 + 2.0 * np.cos(3.0 * t)) / (20.0 * r5)
    angles = np.array([t, t - 2.0 * np.pi / 3.0, t + 2.0 * np.pi / 3.0])
    P = np.diag(np.sin(angles)) / r5
    Q = np.diag(np.cos(angles)) / (5.0 * r5)
    return NhfStructure(6.0 / r5, a, b, P, Q)


def berger_derivative(t: float):
    """Analytic t-derivative of (a, b, Q1, Q2) along the Berger trajectory."""
    r5 = np.sqrt(5.0)
    lam = 6.0 / r5
    da = 6.0 * np.sin(3.0 * t) / (20.0 * r5)
    db = 6.0 * np.sin(3.0 * t) / (20.0 * r5)
    angles = np.array([t, t - 2.0 * np.pi / 3.0, t + 2.0 * np.pi / 3.0])
    dP = np.diag(np.cos(angles)) / r5
    dQ = -np.diag(np.sin(angles)) / (5.0 * r5)
    # Adj of a diagonal matrix is the product of the other two entries;
    # its derivative follows by the product rule
    s = np.sin(angles)
    c = np.cos(angles)
    dadj = (
        np.diag(
            [
                c[1] * s[2] + s[1] * c[2],
                c[0] * s[2] + s[0] * c[2],
                c[0] * s[1] + s[0] * c[1],
            ]
        )
        / 5.0
    )
    dQ1 = dQ - 0.5 * lam * dadj
    dQ2 = -dQ - 0.5 * lam * dadj
    return da, db, dQ1, dQ2


@_closed_form
def sine_cone_trajectory(t: float, sign_p: int = 1) -> NhfStructure:
    """The trajectory through the nearly Kahler point at t = 0, lambda = 4:
    a = b = cos^4(2t)/108, p = (sqrt 3/36) cos^2(2t),
    q = -(sqrt 3/216) cos^3(2t) sin(2t).  Lifts to the sine-cone metric.

    The sign of q is the one that actually solves the evolution equations
    from the nearly Kahler point (q'(0) = -1/(36 sqrt 3) < 0) and gives
    w1+ = 6 cot(2t + pi/2)."""
    c = np.cos(2.0 * t)
    if abs(c) < 1e-12:
        raise FamilyRangeError("degenerate time: cos(2t) = 0")
    ab = c**4 / 108.0
    p = sign_p * SQRT3 / 36.0 * c * c
    q = -sign_p * SQRT3 / 216.0 * c**3 * np.sin(2.0 * t)
    return NhfStructure(4.0, ab, ab, p * np.eye(3), q * np.eye(3))


def sine_cone_derivative(t: float, sign_p: int = 1):
    """Analytic t-derivative of (a, b, Q1, Q2) along the sine-cone path."""
    lam = 4.0
    c, s = np.cos(2.0 * t), np.sin(2.0 * t)
    dab = -8.0 * c**3 * s / 108.0
    dp = sign_p * SQRT3 / 36.0 * (-4.0 * c * s)
    dq = -sign_p * SQRT3 / 216.0 * (-6.0 * c * c * s * s + 2.0 * c**4)
    p = sign_p * SQRT3 / 36.0 * c * c
    # Adj(P^T) = p^2 Id for P = p Id, so d/dt Adj = 2 p p' Id
    dadj = 2.0 * p * dp * np.eye(3)
    dQ1 = dq * np.eye(3) - 0.5 * lam * dadj
    dQ2 = -dq * np.eye(3) - 0.5 * lam * dadj
    return dab, dab, dQ1, dQ2
