"""Closed-form solution families and the two exact trajectories.

These are the reference points everything else is tested against: the
unique invariant nearly Kahler structure, the one-parameter families with
torsion in W1 and in W1- + W3, the zero scalar curvature solutions, and
the Berger / sine-cone trajectories that solve the evolution equations.

Runs on `math` and Python floats: P and Q are handed to `NhfStructure` as
nested 3x3 lists, and the derivatives of the trajectories return dQ1 and
dQ2 in that layout, the one of a record's P and Q.  A multiple x Id is
`_eye(x)`, whose off-diagonal entries are x * 0: a record of a member
with x < 0 has -0.0 there.
"""

from __future__ import annotations

import functools
import math

from nhflat.structure import NhfStructure, StructureError

SQRT3 = math.sqrt(3.0)


class FamilyRangeError(StructureError):
    """Parameter outside the family's admissible range."""


def _eye(x) -> list:
    """x Id as nested lists."""
    return [[x * (i == j) for j in range(3)] for i in range(3)]


def _diag(values) -> list:
    """The diagonal matrix of three values as nested lists."""
    return [[v if i == j else 0.0 for j in range(3)] for i, v in enumerate(values)]


def _closed_form(build):
    """Family constructor that raises FamilyRangeError, not an arithmetic
    error or a member with a non-finite entry or det P, where its closed
    form under- or overflows (nearly_kahler at lambda = 1e-110: lambda^3 is
    0; at lambda = 1e-60: det P is inf).  The arguments, all numbers, are
    taken as Python floats, so that a numpy scalar raises as a float does;
    the ValueError caught is that of `math.cos` at an infinite angle."""

    @functools.wraps(build)
    def member(*args, **kwargs):
        try:
            s = build(*map(float, args), **{k: float(v) for k, v in kwargs.items()})
            m = s.m9
            finite = all(map(math.isfinite, [s.lam, s.a, s.b, s.det_p] + m.p + m.q))
        except StructureError:
            raise
        except (ArithmeticError, ValueError):
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
    return NhfStructure(lam, ab, ab, _eye(p), _eye(0.0))


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
    q = sign_q * p * math.sqrt(disc) / 6.0
    ab = lam * p * p
    return NhfStructure(lam, ab, ab, _eye(p), _eye(q))


@_closed_form
def w1w3_family(a: float, sign_p: int = 1) -> NhfStructure:
    """w1+ = w2- = 0 (so d J gamma = 0), at lambda = 4, for a > 1/256:
    b = 512 a^2/(256 a - 1), q = 128 a^2/(256 a - 1), p = +-8a/sqrt(256 a - 1)."""
    den = 256.0 * a - 1.0
    if den <= 0:
        raise FamilyRangeError("requires a > 1/256")
    b = 512.0 * a * a / den
    q = 128.0 * a * a / den
    p = sign_p * 8.0 * a / math.sqrt(den)
    return NhfStructure(4.0, a, b, _eye(p), _eye(q))


def _zero_scalar_q(p: float, inner_sign: int) -> float:
    disc = 36.0 * p * p + inner_sign * 3.0 * SQRT3 * p
    if disc < 0:
        raise FamilyRangeError("q is not real at this p")
    return p * math.sqrt(disc) / 3.0


@_closed_form
def zero_scalar_structure(p: float, inner_sign: int, sign_q: int = 1) -> NhfStructure:
    """Single member of the a = b = 0, P = p Id, Q = q Id, lambda = 4 family
    with q^2 = 4 p^4 + inner_sign * p^3 / sqrt(3)."""
    q = sign_q * _zero_scalar_q(p, inner_sign)
    return NhfStructure(4.0, 0.0, 0.0, _eye(p), _eye(q))


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
    r5 = math.sqrt(5.0)
    a = (7.0 - 2.0 * math.cos(3.0 * t)) / (20.0 * r5)
    b = -(7.0 + 2.0 * math.cos(3.0 * t)) / (20.0 * r5)
    angles = (t, t - 2.0 * math.pi / 3.0, t + 2.0 * math.pi / 3.0)
    P = _diag([math.sin(x) / r5 for x in angles])
    Q = _diag([math.cos(x) / (5.0 * r5) for x in angles])
    return NhfStructure(6.0 / r5, a, b, P, Q)


def berger_derivative(t: float):
    """Analytic t-derivative of (a, b, Q1, Q2) along the Berger trajectory."""
    r5 = math.sqrt(5.0)
    h = 0.5 * (6.0 / r5)  # lambda / 2
    da = 6.0 * math.sin(3.0 * t) / (20.0 * r5)
    angles = (t, t - 2.0 * math.pi / 3.0, t + 2.0 * math.pi / 3.0)
    s = [math.sin(x) for x in angles]
    c = [math.cos(x) for x in angles]
    dq = [-x / (5.0 * r5) for x in s]
    # Adj of a diagonal matrix is the product of the other two entries;
    # its derivative follows by the product rule
    dadj = [(c[j] * s[k] + s[j] * c[k]) / 5.0 for j, k in ((1, 2), (0, 2), (0, 1))]
    dQ1 = _diag([x - h * y for x, y in zip(dq, dadj)])
    dQ2 = _diag([-x - h * y for x, y in zip(dq, dadj)])
    return da, da, dQ1, dQ2


@_closed_form
def sine_cone_trajectory(t: float, sign_p: int = 1) -> NhfStructure:
    """The trajectory through the nearly Kahler point at t = 0, lambda = 4:
    a = b = cos^4(2t)/108, p = (sqrt 3/36) cos^2(2t),
    q = -(sqrt 3/216) cos^3(2t) sin(2t).  Lifts to the sine-cone metric.

    The sign of q is the one that actually solves the evolution equations
    from the nearly Kahler point (q'(0) = -1/(36 sqrt 3) < 0) and gives
    w1+ = 6 cot(2t + pi/2)."""
    c = math.cos(2.0 * t)
    if abs(c) < 1e-12:
        raise FamilyRangeError("degenerate time: cos(2t) = 0")
    ab = c**4 / 108.0
    p = sign_p * SQRT3 / 36.0 * c * c
    q = -sign_p * SQRT3 / 216.0 * c**3 * math.sin(2.0 * t)
    return NhfStructure(4.0, ab, ab, _eye(p), _eye(q))


def sine_cone_derivative(t: float, sign_p: int = 1):
    """Analytic t-derivative of (a, b, Q1, Q2) along the sine-cone path."""
    lam = 4.0
    c, s = math.cos(2.0 * t), math.sin(2.0 * t)
    dab = -8.0 * c**3 * s / 108.0
    dp = sign_p * SQRT3 / 36.0 * (-4.0 * c * s)
    dq = -sign_p * SQRT3 / 216.0 * (-6.0 * c * c * s * s + 2.0 * c**4)
    p = sign_p * SQRT3 / 36.0 * c * c
    # Adj(P^T) = p^2 Id for P = p Id, so d/dt Adj = 2 p p' Id
    dadj = 2.0 * p * dp
    return dab, dab, _eye(dq - 0.5 * lam * dadj), _eye(-dq - 0.5 * lam * dadj)
