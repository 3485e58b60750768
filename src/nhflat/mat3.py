"""Small helpers for real 3x3 matrices: determinant, adjugate and the
polarized adjugate, the derivative of the adjugate (a public helper; the
flow no longer uses it).

Each formula is written once over row-major 9-sequences
(m00, m01, m02, m10, ..., m22) of plain numbers.  They need only +, -
and *, so they are exact on ``fractions.Fraction`` entries.  ``det3`` and
``adjugate`` are the array wrappers.  The flow's RK4 kernel
(``structure.abr9``, ``flow._recover9``) writes the same expressions out
inline instead of calling these, and rounds exactly as they do."""

from __future__ import annotations

import numpy as np


def det9(m):
    """Determinant of a row-major 9-sequence."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = m
    return (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )


def cofactor9(m):
    """Cofactor matrix of a row-major 9-sequence, as a row-major 9-tuple.

    It is the transpose of the adjugate: cofactor9(M) = Adj(M^T)."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = m
    return (
        m11 * m22 - m12 * m21,
        m12 * m20 - m10 * m22,
        m10 * m21 - m11 * m20,
        m02 * m21 - m01 * m22,
        m00 * m22 - m02 * m20,
        m01 * m20 - m00 * m21,
        m01 * m12 - m02 * m11,
        m02 * m10 - m00 * m12,
        m00 * m11 - m01 * m10,
    )


def mul9(x, y):
    """Product X Y of two row-major 9-sequences, as a row-major 9-tuple."""
    x00, x01, x02, x10, x11, x12, x20, x21, x22 = x
    y00, y01, y02, y10, y11, y12, y20, y21, y22 = y
    return (
        x00 * y00 + x01 * y10 + x02 * y20,
        x00 * y01 + x01 * y11 + x02 * y21,
        x00 * y02 + x01 * y12 + x02 * y22,
        x10 * y00 + x11 * y10 + x12 * y20,
        x10 * y01 + x11 * y11 + x12 * y21,
        x10 * y02 + x11 * y12 + x12 * y22,
        x20 * y00 + x21 * y10 + x22 * y20,
        x20 * y01 + x21 * y11 + x22 * y21,
        x20 * y02 + x21 * y12 + x22 * y22,
    )


def transpose9(m):
    """Transpose of a row-major 9-sequence."""
    return (m[0], m[3], m[6], m[1], m[4], m[7], m[2], m[5], m[8])


def flat9(m) -> list:
    """The entries of a 3x3 array-like as a row-major list of floats."""
    return np.asarray(m, dtype=float).ravel().tolist()


def det3(m) -> float:
    return det9(flat9(m))


def adjugate(m) -> np.ndarray:
    """Transpose cofactor matrix; M @ adjugate(M) = det(M) * I for every M,
    singular ones included."""
    return np.array(cofactor9(flat9(np.transpose(m)))).reshape(3, 3)


def polarized_adjugate(p, x) -> np.ndarray:
    """Mixed bilinear term of the adjugate: Adj(P+X) - Adj(P) - Adj(X).

    Equals d/dt Adj(P + tX) at t=0 since the adjugate is quadratic."""
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    return adjugate(p + x) - adjugate(p) - adjugate(x)
