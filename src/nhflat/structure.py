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
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from nhflat.coframe import BASIS, BASIS_INDEX, COFRAME_DIFFERENTIAL, DIMS, _merge
from nhflat.mat3 import cofactor9, det9, flat9, is_spd9, mul9, transpose9
from nhflat.tolerance import DEFAULT_TOL, max_abs, relative, term_size

if TYPE_CHECKING:
    import numpy as np

    from nhflat.exterior import Form

#: P is singular when |det P| <= SINGULAR_DETP * max|P|^3.
SINGULAR_DETP = 1e-12


class StructureError(ValueError):
    """Base error for structure construction and validation."""


class SingularStructureError(StructureError):
    """det P is (numerically) zero; the parameterization degenerates."""


class InvalidStructureError(StructureError):
    """The parameters violate the validity constraints beyond tolerance."""


def _e(i: int):
    """e^i as (monomial, sign)."""
    return (i,), 1


def _de(i: int):
    """de^i as (monomial, sign)."""
    return COFRAME_DIFFERENTIAL[i]


def _wedge_table(factors) -> tuple:
    """(position, sign) in the basis of its degree of the product of each
    pair of signed monomials: the product is sign * that basis monomial."""
    table = []
    for (left, s_left), (right, s_right) in factors:
        mono, sign = _merge(left, right)
        table.append((BASIS_INDEX[len(mono)][mono], s_left * s_right * sign))
    return tuple(table)


# The bases of the invariant forms as signed-permutation tables: entry n of
# the coordinate list of a form is the coefficient of its basis form, a
# single monomial times a sign, at (position, sign) = table[n].  Entry
# 3 i + j (0-based i, j) of a 3x3 matrix is the one of its (i, j) slot.
_OMEGA_TABLE = _wedge_table(
    (_e(2 * i + 1), _e(2 * j + 2)) for i in range(3) for j in range(3)
)
# entries: e135, e246, de^{2i-1}^e^{2j}, e^{2i-1}^de^{2j}
_THREE_FORM_TABLE = (
    (BASIS_INDEX[3][(1, 3, 5)], 1),
    (BASIS_INDEX[3][(2, 4, 6)], 1),
) + _wedge_table(
    [(_de(2 * i + 1), _e(2 * j + 2)) for i in range(3) for j in range(3)]
    + [(_e(2 * i + 1), _de(2 * j + 2)) for i in range(3) for j in range(3)]
)


def _table_coeffs(degree: int, table, values) -> list:
    """The coefficients, in basis order, of the form with sign * values[n]
    at (position, sign) = table[n] and 0 elsewhere; exact, and a zero
    coefficient is +0.0, as in a sum of products."""
    coeffs = [0.0] * DIMS[degree]
    for (k, sign), v in zip(table, values):
        coeffs[k] = sign * v + 0.0
    return coeffs


def _table_form(degree: int, table, values) -> Form:
    """The form with the coefficients `_table_coeffs`."""
    import numpy as np

    from nhflat.exterior import _form

    return _form(degree, np.array(_table_coeffs(degree, table, values)))


def three_form_coeffs(y) -> list:
    """The 20 coefficients, in basis order, of the invariant 3-form with the
    20-list y (see `invariant_three_form`)."""
    return _table_coeffs(3, _THREE_FORM_TABLE, y)


def omega_coeffs(x) -> list:
    """The 15 coefficients, in basis order, of build_omega(X), X a row-major
    9-list."""
    return _table_coeffs(2, _OMEGA_TABLE, x)


def invariant_three_form(c135: float, c246: float, M1, M2) -> Form:
    """c135 e135 + c246 e246 + sum M1_ij de^{2i-1}^e^{2j} + M2_ij e^{2i-1}^de^{2j}.

    The 20-list (c135, c246, M1, M2), row-major M1 and M2, is the
    coordinate list of an invariant 3-form throughout the package."""
    return _table_form(3, _THREE_FORM_TABLE, [float(c135), float(c246)] + flat9(M1) + flat9(M2))


def build_omega(P) -> Form:
    """omega = sum P_ij e^{2i-1} ^ e^{2j}."""
    return _table_form(2, _OMEGA_TABLE, flat9(P))


def _dot(x, y) -> float:
    return sum(map(mul, x, y))


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
    20-lists x and y (see `invariant_three_form`)."""
    return x[1] * y[0] - x[0] * y[1] + _dot(x[2:11], y[11:20]) - _dot(x[11:20], y[2:11])


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
    """The scalars A, B and matrices R1, R2, R entering J gamma and the flow.

    Nothing in the package calls it; it stays only because the benchmark's
    tracer (``perfbench/tracer.py``) binds it by name, until ROADMAP item 1
    retargets the tracer.  `abr9` is the computation."""
    A, B, R1, R2 = abr9(float(a), float(b), flat9(Q1), flat9(Q2))
    R1, R2 = _array3x3(R1), _array3x3(R2)
    return A, B, R1, R2, R1 + R2


def _bracket9(a: float, b: float, q1, q2) -> float:
    """The normalization bracket of (a, b, Q1, Q2), with Q1, Q2 given as
    row-major 9-sequences: (det P)^2 equals it exactly when J^2 = -id.

        -(a b - tr(Q1^T Q2))^2 - 4 (a det Q2 + b det Q1) + 4 tr Adj(Q1^T Q2)"""
    g = mul9(transpose9(q1), q2)
    t = a * b - (g[0] + g[4] + g[8])
    c = cofactor9(g)  # its diagonal is that of Adj(g)
    return -(t * t) - 4.0 * (a * det9(q2) + b * det9(q1)) + 4.0 * (c[0] + c[4] + c[8])


def bracket_hessian9(a: float, b: float, q1, q2, y) -> float:
    """The second derivative D^2 lambda[y, y] of the bracket lambda =
    `_bracket9` at (a, b, Q1, Q2) in the direction of the 20-list
    y = (ya, yb, Y1, Y2) (see `invariant_three_form`); 3x3 data as row-major
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


def _j_squared_residual9(blocks, det_p: float) -> float:
    """|(J^2)_11 + 1| for the matrix (det P) J^T with the blocks oo, oe, eo,
    ee on the odd/even rows and columns (see `_j_blocks9`): row 1 of J^T
    times its column 1, each entry divided by det P first, so that no
    (det P)^2 can underflow.

    By Hitchin's identity for the stable 3-form gamma, L^2 = -bracket id
    for L = (det P) J^T and every state (a, b, Q1, Q2) (see `_bracket9`),
    so J^2 + id = (1 - bracket / (det P)^2) id: this one entry is, up to
    rounding, the largest |entry| of J^2 + id."""
    oo, oe, eo, _ = blocks
    row = [x / det_p for x in oo[0:3] + oe[0:3]]
    col = [x / det_p for x in oo[0::3] + eo[0::3]]
    return abs(_dot(row, col) + 1.0)


def _array3x3(x) -> np.ndarray:
    """A row-major 9-list as a 3x3 array."""
    import numpy as np

    return np.array(x).reshape(3, 3)


def _interleave(blocks) -> np.ndarray:
    """The 6x6 array whose (2 i + r, 2 j + c) entry is entry (i, j) of
    blocks[2 r + c], for four row-major 9-lists."""
    import numpy as np

    return np.array(blocks).reshape(2, 2, 3, 3).transpose(2, 0, 3, 1).reshape(6, 6)


def omega_component_matrix(omega: Form) -> np.ndarray:
    """Skew component matrix W with W[k,l] = omega(e_k, e_l)."""
    import numpy as np

    # (row, column) of the upper-triangle entry of each 2-monomial
    rows, cols = (np.array(ix) - 1 for ix in zip(*BASIS[2]))
    W = np.zeros((6, 6))
    W[rows, cols] = omega.coeffs
    W[cols, rows] = -omega.coeffs
    return W


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


class Sizes(NamedTuple):
    """Largest |entry| of each factor the validity and torsion verdicts
    compare (see `tolerance.relative`)."""

    om: float
    gam: float
    jg: float
    p: float
    q: float
    q1: float
    q2: float
    r1: float
    r2: float


def _matrix9(m) -> list:
    """The entries of a 3x3 matrix, an array or nested sequences, as a
    row-major list of floats; StructureError if it is not 3x3."""
    rows = m.tolist() if hasattr(m, "tolist") else m
    try:
        square = len(rows) == 3 and all(len(row) == 3 for row in rows)
    except TypeError:
        square = False
    if not square:
        raise StructureError("P and Q must be 3x3 matrices")
    return [float(x) for row in rows for x in row]


class NhfStructure:
    """An invariant nearly half-flat structure with its derived cache.

    Construction works on Python floats and row-major 9-lists only: it
    computes det P and the 3x3 data P, Q, Adj(P^T), Q1, Q2, R1 and R2, kept
    as the 9-lists `m9` that the verdicts read, and the 20-list
    `jgamma_coords` of J gamma (see `invariant_three_form`).  Everything
    else is computed on first use: the blocks of J, the J^2 = -id
    residual, the values that more than one verdict reads (`w1plus`,
    `sizes`, `metric_spd`), and the numpy views for callers, the arrays P,
    Q, Q1, Q2 and J and the forms omega, gamma and J gamma.
    :meth:`metric` builds g on each call.  No verdict reads an array or a
    form, so checking and classifying a structure does not import numpy.
    The SPD verdict `metric_spd` is decided on 3x3 blocks, products of P
    with the blocks of J, without g.
    Nothing is mutated after that, so instances are safe to share between
    threads (two threads may both compute a value on first use; they get
    the same value).  Construction only rejects singular det P; use
    :meth:`validate` to test the remaining constraints (so that invalid
    records can still be diagnosed)."""

    def __init__(self, lam: float, a: float, b: float, P, Q):
        if lam == 0:
            raise StructureError("lambda must be nonzero")
        self.lam = float(lam)
        self.a = float(a)
        self.b = float(b)
        p, q = _matrix9(P), _matrix9(Q)
        self.det_p = det_p = det9(p)
        # a test of the shape of P, independent of its scale
        n_p = max_abs(p)
        if relative(det_p, n_p * n_p * n_p) <= SINGULAR_DETP:
            raise SingularStructureError(f"det P = {det_p} is singular")
        self.orientation = 1 if det_p > 0 else -1
        # Adj(P^T), Q1, Q2 and A, B, R1, R2 (as `compute_abr`)
        adj = list(cofactor9(p))
        h = 0.5 * self.lam
        q1 = [x - h * c for x, c in zip(q, adj)]
        q2 = [-x - h * c for x, c in zip(q, adj)]
        self.A, self.B, r1, r2 = abr9(self.a, self.b, q1, q2)
        self.m9 = Lists9(p, q, adj, q1, q2, r1, r2)
        # J gamma = (2/det P)(A, B, R1, R2) on the slots of gamma's (a, b, Q1, Q2)
        f = 2.0 / det_p
        self.jgamma_coords = [f * x for x in [self.A, self.B] + r1 + r2]

    # -- derived values, computed on first use ---------------------------

    @cached_property
    def _j9(self) -> tuple:
        """The blocks of (det P) J^T (see `_j_blocks9`)."""
        m = self.m9
        return _j_blocks9(self.a, self.b, m.q1, m.q2)

    @cached_property
    def j_squared_residual(self) -> float:
        """|(J^2)_11 + 1|, the largest |entry| of J^2 + id (see
        `_j_squared_residual9`)."""
        return _j_squared_residual9(self._j9, self.det_p)

    @property
    def w1_minus(self) -> float:
        return 0.75 * self.lam

    @cached_property
    def P(self) -> np.ndarray:
        return _array3x3(self.m9.p)

    @cached_property
    def Q(self) -> np.ndarray:
        return _array3x3(self.m9.q)

    @cached_property
    def Q1(self) -> np.ndarray:
        return _array3x3(self.m9.q1)

    @cached_property
    def Q2(self) -> np.ndarray:
        return _array3x3(self.m9.q2)

    @cached_property
    def J(self) -> np.ndarray:
        """J as a 6x6 array, the endomorphism of the tangent space."""
        return _interleave(self._j9).T / self.det_p

    @cached_property
    def omega(self) -> Form:
        return build_omega(self.m9.p)

    @cached_property
    def gamma(self) -> Form:
        m = self.m9
        return invariant_three_form(self.a, self.b, m.q1, m.q2)

    @cached_property
    def Jgamma(self) -> Form:
        m = self.m9
        return invariant_three_form(self.A, self.B, m.r1, m.r2) * (2.0 / self.det_p)

    @cached_property
    def w1plus(self) -> float:
        """w1+ = tr(P^T R) / (2 (det P)^2)."""
        m = self.m9
        p, r = m.p, [x + y for x, y in zip(m.r1, m.r2)]
        # the trace of P^T R, column by column
        tr = (
            (p[0] * r[0] + p[3] * r[3] + p[6] * r[6])
            + (p[1] * r[1] + p[4] * r[4] + p[7] * r[7])
            + (p[2] * r[2] + p[5] * r[5] + p[8] * r[8])
        )
        return tr / (2.0 * self.det_p * self.det_p)

    @cached_property
    def sizes(self) -> Sizes:
        """Sizes of omega, gamma, J gamma, P, Q, Q1, Q2, R1 and R2."""
        m = self.m9
        p = max_abs(m.p)  # omega's coefficients are those of P and zeros
        return Sizes(
            om=p,
            gam=max_abs([self.a, self.b] + m.q1 + m.q2),
            jg=max_abs(self.jgamma_coords),
            p=p,
            q=max_abs(m.q),
            q1=max_abs(m.q1),
            q2=max_abs(m.q2),
            r1=max_abs(m.r1),
            r2=max_abs(m.r2),
        )

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

    def metric(self) -> np.ndarray:
        """The induced metric g = W J as a 6x6 array; raises
        InvalidStructureError if it is not positive definite."""
        if not self.metric_spd:
            raise InvalidStructureError("induced metric is not positive definite")
        return omega_component_matrix(self.omega) @ self.J

    def defining_residuals(self) -> list:
        """The defining conditions of a valid structure but the positive
        definiteness of g, as a list of 10 residuals: the 3 entries above
        the diagonal of Q^T P - P^T Q, (det P)^2 minus the bracket, and the
        6 coefficients of J gamma ^ omega.  Each is divided by the size of
        the terms it compares, as `tolerance.relative` divides, so none
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
        jg = self.jgamma_coords
        size = term_size(z.jg * z.om)
        res += [x / size for x in three_form_wedge_omega(jg[2:11], jg[11:], m.p)]
        return res

    def validate(self, tol: float = DEFAULT_TOL) -> ValidationReport:
        """The largest |residual| of each block of `defining_residuals`,
        as `qtp_symmetry`, `normalization` and `jgamma_wedge_omega`, and,
        reported apart as `metric_spd`, whether g is positive definite.
        The J^2 = -id residual `j_squared_residual` is reported too; J is
        scale free, so it is taken as it is.

        Not checked, because they follow: d gamma = (lambda/2) omega^2 holds
        for any parameters, and gamma ^ omega = 0, gamma ^ J gamma =
        (2/3) omega^3 and the symmetry of g follow from the defining
        conditions."""
        r = self.defining_residuals()
        res = {
            "qtp_symmetry": max_abs(r[:3]),
            "normalization": abs(r[3]),
            "j_squared": self.j_squared_residual,
            "jgamma_wedge_omega": max_abs(r[4:]),
        }
        return ValidationReport(residuals=res, metric_spd=self.metric_spd, tol=tol)

    # -- serialization ---------------------------------------------------

    def to_record(self) -> dict:
        p, q = self.m9.p, self.m9.q
        return {
            "lambda": self.lam,
            "a": self.a,
            "b": self.b,
            "P": [p[0:3], p[3:6], p[6:9]],
            "Q": [q[0:3], q[3:6], q[6:9]],
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
            P, Q = rec["P"], rec["Q"]
            fields = (("lambda", [lam]), ("a", [a]), ("b", [b]), ("P", _matrix9(P)),
                      ("Q", _matrix9(Q)))
            want = rec.get("orientation")
            want = None if want is None else int(want)
        except StructureError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise StructureError(f"malformed structure record: {exc}") from exc
        for name, values in fields:
            if not all(map(math.isfinite, values)):
                raise StructureError(f"malformed structure record: {name} is not finite")
        s = cls(lam, a, b, P, Q)
        if want is not None and want != s.orientation:
            raise StructureError(
                f"record orientation {want} contradicts sign(det P) = {s.orientation}"
            )
        return s

    def rotated(self, gmat, hmat) -> "NhfStructure":
        """Transport by (g, h) in SO(3) x SO(3): P -> g P h^T, Q -> g Q h^T."""
        import numpy as np

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
    import numpy as np

    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class SamplerExhaustedError(StructureError):
    """root-solve sampling failed to find a valid structure."""


def _sample_family_member(rng) -> NhfStructure:
    import numpy as np

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
_DIFF_STEP = sys.float_info.epsilon ** (1.0 / 3.0)
#: The valid P form a set of positive dimension, where the Jacobian has
#: singular values that are 0 up to that error; lstsq drops those below
#: sqrt(eps) times the largest.
_RCOND = sys.float_info.epsilon ** 0.5


def _solve_p(lam: float, a: float, b: float, P, Q) -> NhfStructure:
    """The root-solve iteration of `sample_random_structure` from P; the
    structure where the largest |residual| stopped decreasing."""
    import numpy as np

    def residuals(x):
        return np.array(NhfStructure(lam, a, b, x.reshape(3, 3), Q).defining_residuals())

    s = NhfStructure(lam, a, b, P, Q)
    r = np.array(s.defining_residuals())
    while True:
        x = s.P.ravel()
        h = _DIFF_STEP * max_abs(x)
        jac = np.array([residuals(x + e) - residuals(x - e) for e in h * np.eye(9)]).T
        step = np.linalg.lstsq(jac / (2.0 * h), -r, rcond=_RCOND)[0]
        t = NhfStructure(lam, a, b, (x + step).reshape(3, 3), Q)
        r_t = np.array(t.defining_residuals())
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
    import numpy as np

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
