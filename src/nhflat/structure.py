"""Matrix parameterization (lambda, a, b, P, Q) of invariant nearly
half-flat SU(3)-structures on S3 x S3 and the derived tensors.

A structure is described by a nonzero constant lambda, two reals a, b and
two real 3x3 matrices P, Q.  The 2-form is omega = sum P_ij e^{2i-1}^e^{2j};
the 3-form gamma carries (a, b) on e135, e246 and the matrices

    Q1 = Q - (lambda/2) Adj(P^T),    Q2 = -Q - (lambda/2) Adj(P^T)

on the de^{2i-1}^e^{2j} and e^{2i-1}^de^{2j} slots.  Validity requires
Q^T P symmetric and the normalization (det P)^2 = bracket(a, b, Q1, Q2),
which make the induced J an almost complex structure; additionally
omega ^ J gamma = 0 must hold (it is not implied by the first two
conditions: it removes the (2,0) + (0,2) part of omega, making the metric
symmetric), plus positive definiteness of the metric.  The validator
checks all of these.

Conventions fixed here and relied on throughout the package:

* J is stored as the endomorphism of the tangent space, columns are the
  images of the dual frame vectors e_1..e_6.  The closed-form block
  expression acts on the coframe and is the transpose of this matrix.
* g(X, Y) = omega(X, JY), i.e. g = W J with W the component matrix of
  omega; positive definite exactly on valid structures.
* Both signs of det P are admitted; the sign is the orientation flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from functools import cached_property
from typing import NamedTuple

import numpy as np

from nhflat.exterior import (
    DEFAULT_TOL,
    DIM,
    BASIS,
    COFRAME_DIFFERENTIAL,
    Form,
    contract,
    inverse_metric,
    is_spd,
    max_abs,
    relative,
    term_size,
    volume_coefficient,
    wedge,
    wedge_all,
)
from nhflat.mat3 import adjugate, cofactor9, det9, flat9, is_spd9, mul9, transpose9

#: P is singular when |det P| <= SINGULAR_DETP * max|P|^3.
SINGULAR_DETP = 1e-12


class StructureError(ValueError):
    """Base error for structure construction and validation."""


class SingularStructureError(StructureError):
    """det P is (numerically) zero; the parameterization degenerates."""


class InvalidStructureError(StructureError):
    """The parameters violate the validity constraints beyond tolerance."""


def _e(i: int) -> Form:
    return Form.monomial((i,))


def _de(i: int) -> Form:
    pair, sign = COFRAME_DIFFERENTIAL[i]
    return Form.monomial(pair, sign)


# Fixed basis matrices of the invariant forms; column 3 i + j holds the
# (i, j) entry's monomial combination (0-based i, j).
_OMEGA_BASIS = np.column_stack(
    [wedge(_e(2 * i + 1), _e(2 * j + 2)).coeffs for i in range(3) for j in range(3)]
)
_DE_DE_BASIS = np.column_stack(
    [wedge(_de(2 * i + 1), _de(2 * j + 2)).coeffs for i in range(3) for j in range(3)]
)
# columns: e135, e246, de^{2i-1}^e^{2j}, e^{2i-1}^de^{2j}
_THREE_FORM_BASIS = np.column_stack(
    [Form.monomial((1, 3, 5)).coeffs, Form.monomial((2, 4, 6)).coeffs]
    + [wedge(_de(2 * i + 1), _e(2 * j + 2)).coeffs for i in range(3) for j in range(3)]
    + [wedge(_e(2 * i + 1), _de(2 * j + 2)).coeffs for i in range(3) for j in range(3)]
)


# the bases back: a form's 20-list (c135, c246, M1, M2) and 9-list X
_THREE_FORM_COORDS = np.ascontiguousarray(_THREE_FORM_BASIS.T)
_OMEGA_COORDS = np.ascontiguousarray(_OMEGA_BASIS.T)


def invariant_three_form(c135: float, c246: float, M1, M2) -> Form:
    """c135 e135 + c246 e246 + sum M1_ij de^{2i-1}^e^{2j} + M2_ij e^{2i-1}^de^{2j}."""
    M1 = np.asarray(M1, dtype=float)
    M2 = np.asarray(M2, dtype=float)
    return Form(3, _THREE_FORM_BASIS @ np.concatenate([[c135, c246], M1.ravel(), M2.ravel()]))


def build_omega(P) -> Form:
    """omega = sum P_ij e^{2i-1} ^ e^{2j}."""
    return Form(2, _OMEGA_BASIS @ np.asarray(P, dtype=float).reshape(9))


def _dot(x, y) -> float:
    return sum(map(mul, x, y))


def three_form_coords(x: Form) -> list:
    """The 20-list (c135, c246, M1, M2) of a 3-form x, row-major M1 and M2,
    so that x = invariant_three_form(c135, c246, M1, M2) when x lies in
    their span.  The basis is a signed permutation, so this is exact."""
    return (_THREE_FORM_COORDS @ x.coeffs).tolist()


def omega_coords(x: Form) -> list:
    """The row-major 9-list X of a 2-form x, so that x = build_omega(X)
    when x lies in the span of the e^{2i-1} ^ e^{2j}; a signed selection
    of 9 of the 15 coefficients, so exact."""
    return (_OMEGA_COORDS @ x.coeffs).tolist()


def three_form_wedge_omega(m1, m2, x) -> list:
    """The 6 coefficients, in basis order, of the 5-form
    invariant_three_form(c135, c246, M1, M2) ^ build_omega(X), with M1, M2
    and X row-major 9-sequences; c135 and c246 drop out.  They are the
    entries above the diagonal of M1^T X - X^T M1 and of M2 X^T - X M2^T,
    with signs."""
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = m1
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = m2
    x00, x01, x02, x10, x11, x12, x20, x21, x22 = x
    return [
        # with U = M1^T X - X^T M1, V = M2 X^T - X M2^T, they are
        # U01, -V01, -U02, V02, U12 and -V12
        (u00 * x01 + u10 * x11 + u20 * x21) - (u01 * x00 + u11 * x10 + u21 * x20),
        (v10 * x00 + v11 * x01 + v12 * x02) - (v00 * x10 + v01 * x11 + v02 * x12),
        (u02 * x00 + u12 * x10 + u22 * x20) - (u00 * x02 + u10 * x12 + u20 * x22),
        (v00 * x20 + v01 * x21 + v02 * x22) - (v20 * x00 + v21 * x01 + v22 * x02),
        (u01 * x02 + u11 * x12 + u21 * x22) - (u02 * x01 + u12 * x11 + u22 * x21),
        (v20 * x10 + v21 * x11 + v22 * x12) - (v10 * x20 + v11 * x21 + v12 * x22),
    ]


def three_form_volume(x, y) -> float:
    """The e123456 coefficient of the wedge of the invariant 3-forms with
    20-lists x and y (see `three_form_coords`)."""
    return x[1] * y[0] - x[0] * y[1] + _dot(x[2:11], y[11:20]) - _dot(x[11:20], y[2:11])


def de_de_form(M) -> Form:
    """sum M_ij de^{2i-1} ^ de^{2j}."""
    return Form(4, _DE_DE_BASIS @ np.ravel(np.asarray(M, dtype=float)))


def omega_squared(P) -> Form:
    """Closed form of omega^2: -2 sum Adj(P^T)_ij de^{2i-1} ^ de^{2j}."""
    return de_de_form(-2.0 * adjugate(np.asarray(P, dtype=float).T))


def q1_q2(lam: float, P, Q):
    """Q1 = Q - (lambda/2) Adj(P^T) and Q2 = -Q - (lambda/2) Adj(P^T)."""
    adjPT = adjugate(np.asarray(P, dtype=float).T)
    Q = np.asarray(Q, dtype=float)
    return Q - 0.5 * lam * adjPT, -Q - 0.5 * lam * adjPT


def build_gamma(lam: float, a: float, b: float, P, Q) -> Form:
    """gamma = a e135 + b e246 + sum (Q1)_ij de^{2i-1}^e^{2j} + (Q2)_ij e^{2i-1}^de^{2j}.

    Satisfies d(gamma) = (lam/2) omega^2 identically, for any parameters."""
    Q1, Q2 = q1_q2(lam, P, Q)
    return invariant_three_form(a, b, Q1, Q2)


def abr9(a, b, q1, q2):
    """A, B and the row-major 9-lists R1, R2 of the state (a, b, Q1, Q2),
    with Q1, Q2 given as row-major 9-sequences:

        A  =   a tr(Q1^T Q2) - 2 det Q1 - a^2 b
        B  = -(b tr(Q1^T Q2) - 2 det Q2 - a b^2)
        R1 = -((a b + tr(Q1^T Q2)) Q1 - 2 a Adj(Q2^T) - 2 Q1 Q2^T Q1)
        R2 =   (a b + tr(Q1^T Q2)) Q2 - 2 b Adj(Q1^T) - 2 Q2 Q1^T Q2

    Written out over local variables, since every RK4 stage of the flow
    runs it: each entry is the expression `mat3.det9`, `cofactor9` and
    `mul9` would give, so the result is the same to the last bit.  Uses
    only +, - and *, so it is exact on ``fractions.Fraction`` input."""
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = q1
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = q2
    # g = Q1^T Q2
    g00 = u00 * v00 + u10 * v10 + u20 * v20
    g01 = u00 * v01 + u10 * v11 + u20 * v21
    g02 = u00 * v02 + u10 * v12 + u20 * v22
    g10 = u01 * v00 + u11 * v10 + u21 * v20
    g11 = u01 * v01 + u11 * v11 + u21 * v21
    g12 = u01 * v02 + u11 * v12 + u21 * v22
    g20 = u02 * v00 + u12 * v10 + u22 * v20
    g21 = u02 * v01 + u12 * v11 + u22 * v21
    g22 = u02 * v02 + u12 * v12 + u22 * v22
    # cofactor matrices Adj(Q1^T) = (k..) and Adj(Q2^T) = (c..)
    k00, k01, k02 = u11 * u22 - u12 * u21, u12 * u20 - u10 * u22, u10 * u21 - u11 * u20
    k10, k11, k12 = u02 * u21 - u01 * u22, u00 * u22 - u02 * u20, u01 * u20 - u00 * u21
    k20, k21, k22 = u01 * u12 - u02 * u11, u02 * u10 - u00 * u12, u00 * u11 - u01 * u10
    c00, c01, c02 = v11 * v22 - v12 * v21, v12 * v20 - v10 * v22, v10 * v21 - v11 * v20
    c10, c11, c12 = v02 * v21 - v01 * v22, v00 * v22 - v02 * v20, v01 * v20 - v00 * v21
    c20, c21, c22 = v01 * v12 - v02 * v11, v02 * v10 - v00 * v12, v00 * v11 - v01 * v10
    # det9's expansion along the first row; its middle minor is the
    # negated cofactor, written out so that the sum rounds as in det9
    det1 = u00 * k00 - u01 * (u10 * u22 - u12 * u20) + u02 * k02
    det2 = v00 * c00 - v01 * (v10 * v22 - v12 * v20) + v02 * c02
    tr12 = g00 + g11 + g22
    s = a * b + tr12
    A = a * tr12 - 2 * det1 - a * a * b
    B = -(b * tr12 - 2 * det2 - a * b * b)
    ta, tb = 2 * a, 2 * b
    # Q1 Q2^T Q1 = Q1 g^T and Q2 Q1^T Q2 = Q2 g
    R1 = [
        -(s * u00 - ta * c00 - 2 * (u00 * g00 + u01 * g01 + u02 * g02)),
        -(s * u01 - ta * c01 - 2 * (u00 * g10 + u01 * g11 + u02 * g12)),
        -(s * u02 - ta * c02 - 2 * (u00 * g20 + u01 * g21 + u02 * g22)),
        -(s * u10 - ta * c10 - 2 * (u10 * g00 + u11 * g01 + u12 * g02)),
        -(s * u11 - ta * c11 - 2 * (u10 * g10 + u11 * g11 + u12 * g12)),
        -(s * u12 - ta * c12 - 2 * (u10 * g20 + u11 * g21 + u12 * g22)),
        -(s * u20 - ta * c20 - 2 * (u20 * g00 + u21 * g01 + u22 * g02)),
        -(s * u21 - ta * c21 - 2 * (u20 * g10 + u21 * g11 + u22 * g12)),
        -(s * u22 - ta * c22 - 2 * (u20 * g20 + u21 * g21 + u22 * g22)),
    ]
    R2 = [
        s * v00 - tb * k00 - 2 * (v00 * g00 + v01 * g10 + v02 * g20),
        s * v01 - tb * k01 - 2 * (v00 * g01 + v01 * g11 + v02 * g21),
        s * v02 - tb * k02 - 2 * (v00 * g02 + v01 * g12 + v02 * g22),
        s * v10 - tb * k10 - 2 * (v10 * g00 + v11 * g10 + v12 * g20),
        s * v11 - tb * k11 - 2 * (v10 * g01 + v11 * g11 + v12 * g21),
        s * v12 - tb * k12 - 2 * (v10 * g02 + v11 * g12 + v12 * g22),
        s * v20 - tb * k20 - 2 * (v20 * g00 + v21 * g10 + v22 * g20),
        s * v21 - tb * k21 - 2 * (v20 * g01 + v21 * g11 + v22 * g21),
        s * v22 - tb * k22 - 2 * (v20 * g02 + v21 * g12 + v22 * g22),
    ]
    return A, B, R1, R2


def compute_abr(a: float, b: float, Q1, Q2):
    """The scalars A, B and matrices R1, R2, R entering J gamma and the flow."""
    A, B, R1, R2 = abr9(float(a), float(b), flat9(Q1), flat9(Q2))
    R1 = np.array(R1).reshape(3, 3)
    R2 = np.array(R2).reshape(3, 3)
    return A, B, R1, R2, R1 + R2


def _bracket9(a: float, b: float, q1, q2) -> float:
    """`normalization_bracket` of Q1, Q2 given as row-major 9-sequences,
    as `validate` computes it:

        -(a b - tr(Q1^T Q2))^2 - 4 (a det Q2 + b det Q1) + 4 tr Adj(Q1^T Q2)"""
    g = mul9(transpose9(q1), q2)
    t = a * b - (g[0] + g[4] + g[8])
    c = cofactor9(g)  # its diagonal is that of Adj(g)
    return -(t * t) - 4.0 * (a * det9(q2) + b * det9(q1)) + 4.0 * (c[0] + c[4] + c[8])


def bracket_hessian9(a: float, b: float, q1, q2, y) -> float:
    """The second derivative D^2 lambda[y, y] of the bracket lambda =
    `_bracket9` at (a, b, Q1, Q2) in the direction of the 20-list
    y = (ya, yb, Y1, Y2) (see `three_form_coords`); 3x3 data as row-major
    9-sequences.  With g = Q1^T Q2, dg = Y1^T Q2 + Q1^T Y2, u = Y1^T Y2,
    h = a b - tr g and e = ya b + a yb - tr dg, by the product rule

        -2 e^2 - 4 h (ya yb - tr u) + 4 (tr dg)^2 + 8 tr g tr u
        - 4 tr(dg^2) - 8 tr(g u)
        - 8 (ya <Adj(Q2^T), Y2> + yb <Adj(Q1^T), Y1>
             + a <Q2, Adj(Y2^T)> + b <Q1, Adj(Y1^T)>),

    <X, Y> = tr(X^T Y), since D det(M)[Y] = <Adj(M^T), Y> and
    D^2 det(M)[Y, Y] = 2 <M, Adj(Y^T)>.  Written out, not by differences,
    which would lose the digits of the small factors.

    It is 2 vol(y ^ D F[y]), vol the e123456 coefficient and F = (A, B,
    R1, R2) of `abr9`, because vol(y ^ F(x)) = D lambda(x)[y] / 2: as in
    Hitchin's construction of the dual map gamma -> J gamma =
    (2 / det P) F(gamma), F is the symplectic gradient of the quartic
    invariant lambda / 2."""
    ya, yb, y1, y2 = y[0], y[1], y[2:11], y[11:20]
    q1t, y1t = transpose9(q1), transpose9(y1)
    g = mul9(q1t, q2)
    u = mul9(y1t, y2)
    dg = [x + z for x, z in zip(mul9(y1t, q2), mul9(q1t, y2))]
    t, tu, dt = g[0] + g[4] + g[8], u[0] + u[4] + u[8], dg[0] + dg[4] + dg[8]
    e = ya * b + a * yb - dt
    h = a * b - t
    return (
        -2.0 * e * e
        - 4.0 * h * (ya * yb - tu)
        + 4.0 * dt * dt
        + 8.0 * t * tu
        - 4.0 * _dot(dg, transpose9(dg))
        - 8.0 * _dot(g, transpose9(u))
        - 8.0 * (
            ya * _dot(cofactor9(q2), y2)
            + yb * _dot(cofactor9(q1), y1)
            + a * _dot(q2, cofactor9(y2))
            + b * _dot(q1, cofactor9(y1))
        )
    )


def normalization_bracket(a: float, b: float, Q1, Q2) -> float:
    """`_bracket9` of Q1, Q2 given as 3x3 arrays: (det P)^2 equals it
    exactly when J^2 = -id."""
    return _bracket9(a, b, flat9(Q1), flat9(Q2))


def _j_blocks9(a: float, b: float, q1, q2):
    """The blocks of the matrix (det P) J^T of the state (a, b, Q1, Q2) on
    the odd/even rows and columns, as row-major 9-lists, with Q1, Q2 given
    as row-major 9-sequences:

        oo =  (a b - tr(Q1^T Q2)) Id + 2 Q2 Q1^T,   oe = -2 (a Q2 - Adj(Q1^T)),
        eo =  2 (b Q1^T - Adj(Q2)),   ee = -(a b - tr(Q1^T Q2)) Id - 2 Q1^T Q2,

    the (i, j) entry of each at (2 i, 2 j), (2 i, 2 j + 1), (2 i + 1, 2 j)
    and (2 i + 1, 2 j + 1) of the matrix (see `_interleave`).  Written out
    over local variables like `abr9`, with the products, cofactors and
    rounding of `mat3.mul9` and `cofactor9`."""
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = q1
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = q2
    # g = Q1^T Q2 and h = Q2 Q1^T
    g00 = u00 * v00 + u10 * v10 + u20 * v20
    g01 = u00 * v01 + u10 * v11 + u20 * v21
    g02 = u00 * v02 + u10 * v12 + u20 * v22
    g10 = u01 * v00 + u11 * v10 + u21 * v20
    g11 = u01 * v01 + u11 * v11 + u21 * v21
    g12 = u01 * v02 + u11 * v12 + u21 * v22
    g20 = u02 * v00 + u12 * v10 + u22 * v20
    g21 = u02 * v01 + u12 * v11 + u22 * v21
    g22 = u02 * v02 + u12 * v12 + u22 * v22
    h00 = v00 * u00 + v01 * u01 + v02 * u02
    h01 = v00 * u10 + v01 * u11 + v02 * u12
    h02 = v00 * u20 + v01 * u21 + v02 * u22
    h10 = v10 * u00 + v11 * u01 + v12 * u02
    h11 = v10 * u10 + v11 * u11 + v12 * u12
    h12 = v10 * u20 + v11 * u21 + v12 * u22
    h20 = v20 * u00 + v21 * u01 + v22 * u02
    h21 = v20 * u10 + v21 * u11 + v22 * u12
    h22 = v20 * u20 + v21 * u21 + v22 * u22
    # cofactor matrices Adj(Q1^T) = (k..) and Adj(Q2^T) = (c..)
    k00, k01, k02 = u11 * u22 - u12 * u21, u12 * u20 - u10 * u22, u10 * u21 - u11 * u20
    k10, k11, k12 = u02 * u21 - u01 * u22, u00 * u22 - u02 * u20, u01 * u20 - u00 * u21
    k20, k21, k22 = u01 * u12 - u02 * u11, u02 * u10 - u00 * u12, u00 * u11 - u01 * u10
    c00, c01, c02 = v11 * v22 - v12 * v21, v12 * v20 - v10 * v22, v10 * v21 - v11 * v20
    c10, c11, c12 = v02 * v21 - v01 * v22, v00 * v22 - v02 * v20, v01 * v20 - v00 * v21
    c20, c21, c22 = v01 * v12 - v02 * v11, v02 * v10 - v00 * v12, v00 * v11 - v01 * v10
    t = a * b - (g00 + g11 + g22)
    oo = [
        2 * h00 + t, 2 * h01, 2 * h02,
        2 * h10, 2 * h11 + t, 2 * h12,
        2 * h20, 2 * h21, 2 * h22 + t,
    ]
    oe = [
        -2 * (a * v00 - k00), -2 * (a * v01 - k01), -2 * (a * v02 - k02),
        -2 * (a * v10 - k10), -2 * (a * v11 - k11), -2 * (a * v12 - k12),
        -2 * (a * v20 - k20), -2 * (a * v21 - k21), -2 * (a * v22 - k22),
    ]
    eo = [
        2 * (b * u00 - c00), 2 * (b * u10 - c10), 2 * (b * u20 - c20),
        2 * (b * u01 - c01), 2 * (b * u11 - c11), 2 * (b * u21 - c21),
        2 * (b * u02 - c02), 2 * (b * u12 - c12), 2 * (b * u22 - c22),
    ]
    ee = [
        -2 * g00 - t, -2 * g01, -2 * g02,
        -2 * g10, -2 * g11 - t, -2 * g12,
        -2 * g20, -2 * g21, -2 * g22 - t,
    ]
    return oo, oe, eo, ee


def _interleave(blocks) -> np.ndarray:
    """The 6x6 array whose (2 i + r, 2 j + c) entry is entry (i, j) of
    blocks[2 r + c], for four row-major 9-lists."""
    return np.array(blocks).reshape(2, 2, 3, 3).transpose(2, 0, 3, 1).reshape(6, 6)


# (row, column) of the upper-triangle entry of each 2-monomial
_PAIR_ROWS, _PAIR_COLS = (np.array(ix) - 1 for ix in zip(*BASIS[2]))


def omega_component_matrix(omega: Form) -> np.ndarray:
    """Skew component matrix W with W[k,l] = omega(e_k, e_l)."""
    W = np.zeros((6, 6))
    W[_PAIR_ROWS, _PAIR_COLS] = omega.coeffs
    W[_PAIR_COLS, _PAIR_ROWS] = -omega.coeffs
    return W


def hitchin_j(gamma: Form, omega: Form) -> np.ndarray:
    """Almost complex structure from the stable-form construction
    K(X) = (X -| gamma) ^ gamma, an independent check of the closed-form J.

    Normalized by tr(K^2) and sign-fixed so that omega(., J.) is positive
    definite."""
    if gamma.degree != 3 or omega.degree != 2:
        raise ValueError("hitchin_j expects a 3-form and a 2-form")
    om3 = volume_coefficient(wedge_all(omega, omega, omega))
    n_om = omega.max_abs()
    if relative(om3, n_om * n_om * n_om) <= SINGULAR_DETP:
        raise SingularStructureError("omega^3 = 0")
    f5 = np.column_stack(
        [wedge(contract(a, gamma), gamma).coeffs for a in range(1, DIM + 1)]
    )
    # BASIS[5] lists the 5-monomials missing index 6, 5, ..., 1; row m - 1
    # of K is the coefficient of the one missing m, with sign (-1)^(m - 1)
    K = f5[::-1]
    K[1::2] *= -1.0
    tr2 = float(np.trace(K @ K))
    if tr2 >= 0:
        raise InvalidStructureError("gamma is not stable (tr K^2 >= 0)")
    J = K / np.sqrt(-tr2 / 6.0)
    if not is_spd(omega_component_matrix(omega) @ J):
        J = -J
    return J


def metric_from(omega: Form, J: np.ndarray) -> np.ndarray:
    """g(X, Y) = omega(X, JY) as a 6x6 matrix."""
    return omega_component_matrix(omega) @ J


@dataclass
class ValidationReport:
    residuals: dict
    metric_spd: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.metric_spd and all(v <= self.tol for v in self.residuals.values())

    @property
    def worst(self):
        name = max(self.residuals, key=lambda k: self.residuals[k])
        return name, self.residuals[name]

    def failing(self):
        bad = [k for k, v in self.residuals.items() if v > self.tol]
        if not self.metric_spd:
            bad.append("metric_spd")
        return bad


class Lists9(NamedTuple):
    """Row-major 9-lists of P, Q, Adj(P^T), Q1, Q2, R1 and R2, the matrix
    data the verdicts read."""

    p: list
    q: list
    adj_pt: list
    q1: list
    q2: list
    r1: list
    r2: list


# where omega, gamma, J gamma, J, Q1, Q2, (A, B), R1, R2, P and Q start in
# the coefficients that `NhfStructure.sizes` concatenates
_SIZE_OFFSETS = np.array([0, 15, 35, 55, 91, 100, 109, 111, 120, 129, 138])


class Sizes(NamedTuple):
    """Largest |entry| of each factor the validity and torsion verdicts
    compare (see `exterior.relative`)."""

    om: float
    gam: float
    jg: float
    p: float
    q: float
    q1: float
    q2: float
    r1: float
    r2: float
    j: float


class NhfStructure:
    """An invariant nearly half-flat structure with its derived cache.

    The forms and J are computed on construction, and so are the 3x3 data
    P, Q, Adj(P^T), Q1, Q2, R1 and R2, both as arrays and as the row-major
    9-lists `m9` that the verdicts read; the values that more than one
    verdict reads (`omega2`, `w1plus`, `sizes`, `metric_spd`) are computed
    on first use, and so are the metric `g` and its inverse
    `metric_inverse`.  The SPD verdict `metric_spd` is decided on 3x3
    blocks, products of P with the blocks of J, without g; no verdict
    reads g or `metric_inverse`, which are there for callers.  Nothing is mutated after
    that, so instances are safe to share between threads (two threads may
    both compute a value on first use; they get the same value).
    Construction only rejects singular det P; use :meth:`validate` to test
    the remaining constraints (so that invalid records can still be
    diagnosed)."""

    def __init__(self, lam: float, a: float, b: float, P, Q):
        if lam == 0:
            raise StructureError("lambda must be nonzero")
        self.lam = float(lam)
        self.a = float(a)
        self.b = float(b)
        P = np.asarray(P, dtype=float)
        Q = np.asarray(Q, dtype=float)
        if P.shape != (3, 3) or Q.shape != (3, 3):
            raise StructureError("P and Q must be 3x3 matrices")
        p, q = P.ravel().tolist(), Q.ravel().tolist()
        self.det_p = det9(p)
        # a test of the shape of P, independent of its scale
        n_p = max_abs(p)
        if relative(self.det_p, n_p * n_p * n_p) <= SINGULAR_DETP:
            raise SingularStructureError(f"det P = {self.det_p} is singular")
        self.orientation = 1 if self.det_p > 0 else -1
        # Adj(P^T), Q1, Q2 (as `q1_q2`) and A, B, R1, R2 (as `compute_abr`)
        adj = list(cofactor9(p))
        h = 0.5 * self.lam
        q1 = [x - h * c for x, c in zip(q, adj)]
        q2 = [-x - h * c for x, c in zip(q, adj)]
        self.A, self.B, r1, r2 = abr9(self.a, self.b, q1, q2)
        self.m9 = Lists9(p, q, adj, q1, q2, r1, r2)
        # one array of (a, b, Q1, Q2), (A, B, R1, R2), P, Q, Adj(P^T) and
        # R: the coordinates of gamma and of (det P / 2) J gamma, then the
        # rest of the 3x3 data; the public arrays are views of it
        self._data = data = np.array(
            [self.a, self.b] + q1 + q2 + [self.A, self.B] + r1 + r2 + p + q + adj
            + [x + y for x, y in zip(r1, r2)]
        )
        self.Q1, self.Q2 = data[2:20].reshape(2, 3, 3)
        self.R1, self.R2 = data[22:40].reshape(2, 3, 3)
        self.P, self.Q, self.adj_pt, self.R = data[40:].reshape(4, 3, 3)
        self.omega = build_omega(self.P)
        # gamma and J gamma = (2/det P)(A, B, R1, R2) by one basis product;
        # the basis is a signed permutation, so scaling after it is exact
        # (up to the sign of a zero)
        forms = data[:40].reshape(2, 20) @ _THREE_FORM_BASIS.T
        forms[1] *= 2.0 / self.det_p
        self.gamma, self.Jgamma = Form(3, forms[0]), Form(3, forms[1])
        # lenient J: residual recorded, reported through validate
        self._j9 = _j_blocks9(self.a, self.b, q1, q2)
        self.J = _interleave(self._j9).T / self.det_p
        self.j_squared_residual = max_abs(self.J @ self.J + np.eye(6))

    # -- derived values, computed on first use ---------------------------

    @property
    def w1_minus(self) -> float:
        return 0.75 * self.lam

    @cached_property
    def omega2(self) -> Form:
        """omega ^ omega."""
        return wedge(self.omega, self.omega)

    @cached_property
    def w1plus(self) -> float:
        """w1+ = tr(P^T R) / (2 (det P)^2)."""
        return float(np.trace(self.P.T @ self.R)) / (2.0 * self.det_p * self.det_p)

    @cached_property
    def sizes(self) -> Sizes:
        """Sizes of omega, gamma, J gamma, P, Q, Q1, Q2, R1, R2 and J."""
        factors = np.concatenate(
            (
                self.omega.coeffs,
                self.gamma.coeffs,
                self.Jgamma.coeffs,
                self.J.ravel(),
                self._data[2:58],  # Q1, Q2, A, B, R1, R2, P, Q
            )
        )
        om, gam, jg, j, q1, q2, _, r1, r2, p, q = np.maximum.reduceat(
            np.abs(factors), _SIZE_OFFSETS
        ).tolist()
        return Sizes(om, gam, jg, p, q, q1, q2, r1, r2, j)

    @cached_property
    def g(self) -> np.ndarray:
        """The induced metric g = W J as a 6x6 array, positive definite or
        not (see `metric`)."""
        return metric_from(self.omega, self.J)

    @cached_property
    def metric_spd(self) -> bool:
        """Whether g is positive definite, decided on 3x3 blocks by
        `mat3.is_spd9`, without g.  On the odd and on the even coframe
        indices W = [[0, P], [-P^T, 0]] and (det P) J = [[oo^T, eo^T],
        [oe^T, ee^T]] (`_j_blocks9`), so (det P)(g + g^T) has the blocks

            P oe^T + oe P^T,   P ee^T - oo P,   -(P^T eo^T + eo P),

        taken here times the sign of det P."""
        oo, oe, eo, ee = self._j9
        p = self.m9.p if self.det_p > 0 else [-x for x in self.m9.p]
        x = mul9(p, transpose9(oe))
        y = mul9(transpose9(p), transpose9(eo))
        return is_spd9(
            [u + v for u, v in zip(x, transpose9(x))],
            [u - v for u, v in zip(mul9(p, transpose9(ee)), mul9(oo, p))],
            [-(u + v) for u, v in zip(y, transpose9(y))],
        )

    @cached_property
    def metric_inverse(self) -> np.ndarray:
        """g^-1 by `exterior.inverse_metric`; raises InvalidStructureError
        if g is not positive definite and ValueError if it is not
        symmetric."""
        return inverse_metric(self.metric(), spd=True)

    def omega_cubed(self) -> Form:
        return wedge(self.omega, self.omega2)

    def metric(self) -> np.ndarray:
        """The induced metric; raises if it is not positive definite."""
        if not self.metric_spd:
            raise InvalidStructureError("induced metric is not positive definite")
        return self.g.copy()

    def metric_is_spd(self) -> bool:
        return self.metric_spd

    def defining_residuals(self) -> np.ndarray:
        """The defining conditions of a valid structure but the positive
        definiteness of g, as 10 residuals: the 3 entries above the
        diagonal of Q^T P - P^T Q, (det P)^2 minus the bracket, and the 6
        coefficients of J gamma ^ omega.  Each is divided by the size of
        the terms it compares, as `exterior.relative` divides, so none
        changes under the scaling (lambda, a, b, P, Q) -> (c lambda,
        a/c^3, b/c^3, P/c^2, Q/c^3)."""
        # sizes of the factors (products, not powers: a float power raises
        # on overflow where a product gives inf)
        z, m = self.sizes, self.m9
        n_a, n_b = abs(self.a), abs(self.b)
        n_ab = n_a * n_b + z.q1 * z.q2  # a b - tr(Q1^T Q2)
        dp2 = self.det_p * self.det_p
        # Q^T P - P^T Q = G - G^T, G = Q^T P: zero on the diagonal and
        # antisymmetric, so its three entries above the diagonal
        g = mul9(transpose9(m.q), m.p)
        size = term_size(z.q * z.p)
        res = [(g[1] - g[3]) / size, (g[2] - g[6]) / size, (g[5] - g[7]) / size]
        # (det P)^2 against each term of the bracket
        res.append((dp2 - _bracket9(self.a, self.b, m.q1, m.q2)) / term_size(
            dp2, n_ab * n_ab, n_a * z.q2 * z.q2 * z.q2, n_b * z.q1 * z.q1 * z.q1,
            z.q1 * z.q2 * z.q1 * z.q2,
        ))
        jg = three_form_coords(self.Jgamma)
        size = term_size(z.jg * z.om)
        res += [x / size for x in three_form_wedge_omega(jg[2:11], jg[11:], m.p)]
        return np.array(res)

    def validate(self, tol: float = DEFAULT_TOL) -> ValidationReport:
        """The largest |residual| of each block of `defining_residuals`,
        as `qtp_symmetry`, `normalization` and `jgamma_wedge_omega`, and,
        reported apart as `metric_spd`, whether g is positive definite.
        The J^2 = -id residual, computed at construction, is reported too;
        J is scale free, so it is taken as it is.

        Not checked, because they follow: d gamma = (lambda/2) omega^2 holds
        for any parameters, and gamma ^ omega = 0, gamma ^ J gamma =
        (2/3) omega^3 and the symmetry of g follow from the defining
        conditions."""
        r = self.defining_residuals().tolist()
        res = {
            "qtp_symmetry": max_abs(r[:3]),
            "normalization": abs(r[3]),
            "j_squared": self.j_squared_residual,
            "jgamma_wedge_omega": max_abs(r[4:]),
        }
        return ValidationReport(residuals=res, metric_spd=self.metric_spd, tol=tol)

    # -- serialization ---------------------------------------------------

    def to_record(self) -> dict:
        return {
            "lambda": self.lam,
            "a": self.a,
            "b": self.b,
            "P": self.P.tolist(),
            "Q": self.Q.tolist(),
            "orientation": self.orientation,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "NhfStructure":
        """Structure of a record; StructureError if a field is missing or
        malformed or a number is not finite."""
        try:
            lam = float(rec["lambda"])
            a = float(rec["a"])
            b = float(rec["b"])
            P = np.asarray(rec["P"], dtype=float)
            Q = np.asarray(rec["Q"], dtype=float)
            want = rec.get("orientation")
            want = None if want is None else int(want)
        except (KeyError, TypeError, ValueError) as exc:
            raise StructureError(f"malformed structure record: {exc}") from exc
        if not all(map(math.isfinite, [lam, a, b] + P.ravel().tolist() + Q.ravel().tolist())):
            fields = (("lambda", lam), ("a", a), ("b", b), ("P", P), ("Q", Q))
            name = next(name for name, value in fields if not np.isfinite(value).all())
            raise StructureError(f"malformed structure record: {name} is not finite")
        s = cls(lam, a, b, P, Q)
        if want is not None and want != s.orientation:
            raise StructureError(
                f"record orientation {want} contradicts sign(det P) = {s.orientation}"
            )
        return s

    def rotated(self, gmat, hmat) -> "NhfStructure":
        """Transport by (g, h) in SO(3) x SO(3): P -> g P h^T, Q -> g Q h^T."""
        gmat = np.asarray(gmat, dtype=float)
        hmat = np.asarray(hmat, dtype=float)
        return NhfStructure(
            self.lam, self.a, self.b, gmat @ self.P @ hmat.T, gmat @ self.Q @ hmat.T
        )

    def __repr__(self):
        return (
            f"NhfStructure(lambda={self.lam:g}, a={self.a:g}, b={self.b:g}, "
            f"detP={self.det_p:g}, orientation={self.orientation:+d})"
        )


def random_rotation(rng) -> np.ndarray:
    """Haar-ish random SO(3) element via QR with positive determinant."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class SamplerExhaustedError(StructureError):
    """root-solve sampling failed to find a valid structure."""


def _sample_family_member(rng) -> NhfStructure:
    from nhflat import families

    pick = rng.integers(0, 5)
    if pick == 0:
        lam = rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0])
        return families.nearly_kahler(lam)
    if pick == 1:
        lam = rng.uniform(0.5, 3.0)
        pmax = 4.0 * np.sqrt(3.0) / (9.0 * lam * lam)
        p = rng.uniform(0.15, 0.95) * pmax
        return families.w1_family(lam, p, sign_q=rng.choice([-1, 1]))
    if pick == 2:
        a = 1.0 / 256.0 + rng.uniform(0.002, 0.05)
        return families.w1w3_family(a, sign_p=rng.choice([-1, 1]))
    if pick == 3:
        p = rng.uniform(0.1, 0.6) * rng.choice([-1.0, 1.0])
        sign = int(rng.choice([-1, 1]))
        if 36.0 * p * p + sign * 3.0 * np.sqrt(3.0) * p < 0:
            sign = -sign
        return families.zero_scalar_structure(p, sign, sign_q=int(rng.choice([-1, 1])))
    t = rng.uniform(-0.35, 0.35)
    return families.sine_cone_trajectory(t)


#: Central-difference step of the root-solve sampler, relative to max|P|:
#: eps^(1/3) leaves an error of about eps^(2/3) in the Jacobian.
_DIFF_STEP = np.finfo(float).eps ** (1.0 / 3.0)
#: The valid P form a set of positive dimension, where the Jacobian has
#: singular values that are 0 up to that error; lstsq drops those below
#: sqrt(eps) times the largest.
_RCOND = np.finfo(float).eps ** 0.5


def _solve_p(lam: float, a: float, b: float, P, Q) -> NhfStructure:
    """The root-solve iteration of `sample_random_structure` from P; the
    structure where the largest |residual| stopped decreasing."""

    def residuals(x):
        return NhfStructure(lam, a, b, x.reshape(3, 3), Q).defining_residuals()

    s = NhfStructure(lam, a, b, P, Q)
    r = s.defining_residuals()
    while True:
        x = s.P.ravel()
        h = _DIFF_STEP * max_abs(x)
        jac = np.array([residuals(x + e) - residuals(x - e) for e in h * np.eye(9)]).T
        step = np.linalg.lstsq(jac / (2.0 * h), -r, rcond=_RCOND)[0]
        t = NhfStructure(lam, a, b, (x + step).reshape(3, 3), Q)
        r_t = t.defining_residuals()
        if not max_abs(r_t) < max_abs(r):
            return s
        s, r = t, r_t


def sample_random_structure(seed, method: str = "rotate-family", max_retries: int = 50):
    """Random valid structure for property tests.

    "rotate-family" transports a random closed-form family member by a
    random SO(3) x SO(3) rotation (always valid, by equivariance).
    "root-solve" perturbs a, b, Q and P of a rotated family member by
    about 10% each and solves the defining conditions
    (`NhfStructure.defining_residuals`) for P, keeping lambda, a, b and Q:
    min-norm Gauss-Newton steps (`np.linalg.lstsq` on a central-difference
    Jacobian over the 9 entries of P) from the perturbed P, until the
    largest |residual| stops decreasing.  The point reached is accepted
    when it passes `validate`; a draw that is not accepted, or meets a
    singular P on the way, is retried, up to `max_retries` draws."""
    rng = np.random.default_rng(seed)
    if method == "rotate-family":
        base = _sample_family_member(rng)
        return base.rotated(random_rotation(rng), random_rotation(rng))
    if method != "root-solve":
        raise ValueError(f"unknown sampling method: {method}")

    for _ in range(max_retries):
        base = _sample_family_member(rng).rotated(
            random_rotation(rng), random_rotation(rng)
        )
        eps = 0.1
        a = base.a * (1.0 + eps * rng.standard_normal())
        b = base.b * (1.0 + eps * rng.standard_normal())
        Q = base.Q * (1.0 + eps * rng.standard_normal((3, 3)))
        P = base.P * (1.0 + eps * rng.standard_normal((3, 3)))
        try:
            s = _solve_p(base.lam, a, b, P, Q)
        except StructureError:
            continue
        if s.validate().passed:
            return s
    raise SamplerExhaustedError(f"no valid structure after {max_retries} attempts")
