"""Small helpers for real 3x3 matrices, and the package's one
positive-definiteness test, on the 3x3 blocks of a symmetric 6x6 matrix
(`is_spd9`).

Each formula is written once over row-major 9-sequences
(m00, m01, m02, m10, ..., m22) of plain numbers: the determinant
(`det9`), the cofactor matrix (`cofactor9`), the product (`mul9`), the
transpose (`transpose9`) and the inner product <X, Y> = tr(X^T Y)
(`dot9`), whose nine products are added left to right, so that it rounds
the same on every Python.  They need only +, - and *, so they are exact
on ``fractions.Fraction`` entries.  `flat9` reads a 3x3 array or nested
sequence (`is3x3`), or a 9-sequence, into such a list, without numpy, and
raises ValueError for any other shape.  The package computes every 3x3
product, cofactor, determinant and inner product with them, either
directly or through straight-line kernels that ``tools/gen_kernels.py``
generates by tracing compositions of these helpers, so that they round
exactly as the helpers do: ``construct`` (``nhflat._kernels``),
``rk4_step`` (``nhflat._flow_kernels``, traced through the hand-written
``flow.stage``) and ``torsion_pass`` (``nhflat._torsion_kernels``); each
kernel's docstring says what it returns.  No 3x3 expression is written
out by hand elsewhere.

`det3`, `adjugate` and `polarized_adjugate` are wrappers that take 3x3
arrays, and the last two give arrays; numpy is imported only when they
run.  Nothing in the package calls them.  They stay only because the
benchmark's tracer (``perfbench/tracer.py``) binds them by name, until
ROADMAP item 1 retargets the tracer."""

from __future__ import annotations

import math


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


def dot9(x, y):
    """<X, Y> = tr(X^T Y) of two row-major 9-sequences: the nine products
    x_k y_k, added left to right.  The builtin ``sum`` adds floats with
    compensated summation from Python 3.12, so it would round differently
    on different versions; this order is the same on all of them.  Unlike
    ``sum``, which starts from the integer 0, it gives -0.0 when all nine
    products are -0.0.  No command prints such a zero: the callers take
    the modulus of their result (a residual), add it to terms that are
    not zero (s), or scale coordinates by it (tau of w2-)."""
    x00, x01, x02, x10, x11, x12, x20, x21, x22 = x
    y00, y01, y02, y10, y11, y12, y20, y21, y22 = y
    return (
        x00 * y00 + x01 * y01 + x02 * y02
        + x10 * y10 + x11 * y11 + x12 * y12
        + x20 * y20 + x21 * y21 + x22 * y22
    )


def transpose9(m):
    """Transpose of a row-major 9-sequence."""
    return (m[0], m[3], m[6], m[1], m[4], m[7], m[2], m[5], m[8])


def _ldl3(x00, x01, x02, x11, x12, x22):
    """The pivots d0, d1, d2 and the multipliers l10, l20, l21 of the
    LDL^T factorization of the symmetric 3x3 matrix with upper triangle
    (x00, x01, x02, x11, x12, x22), or None when a pivot is not > 0: the
    matrix is not positive definite (or an entry is NaN)."""
    if not x00 > 0:
        return None
    l10, l20 = x01 / x00, x02 / x00
    d1 = x11 - x01 * l10
    if not d1 > 0:
        return None
    l21 = (x12 - x02 * l10) / d1
    d2 = x22 - x02 * l20 - d1 * l21 * l21
    if not d2 > 0:
        return None
    return x00, d1, d2, l10, l20, l21


def is_spd9(a, b, c) -> bool:
    """Whether the symmetric 6x6 matrix [[A, B], [B^T, C]] is positive
    definite, with A, B, C row-major 9-sequences (of A and C only the
    upper triangles are read).

    It is exactly when A and its Schur complement S = C - B^T A^-1 B are,
    and a symmetric 3x3 matrix is positive definite exactly when the
    pivots of its LDL^T factorization are all > 0.  The blocks are first
    divided by their largest |entry|, so that the products stay in range
    whatever the scale of the data.  False when any of the 27 entries
    is NaN or infinite."""
    entries = (*a, *b, *c)
    n = max(map(abs, entries))
    # max passes over a NaN that is not the first entry; the sum of finite
    # entries and a NaN is NaN
    if not 0.0 < n < math.inf or math.isnan(sum(entries)):
        return False
    a00, a01, a02, _, a11, a12, _, _, a22 = a
    f = _ldl3(a00 / n, a01 / n, a02 / n, a11 / n, a12 / n, a22 / n)
    if f is None:
        return False
    d0, d1, d2, l10, l20, l21 = f
    # Z = L^-1 B by forward substitution; B^T A^-1 B = Z^T D^-1 Z
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    b00, b01, b02 = b00 / n, b01 / n, b02 / n
    b10, b11, b12 = b10 / n, b11 / n, b12 / n
    b20, b21, b22 = b20 / n, b21 / n, b22 / n
    z10, z11, z12 = b10 - l10 * b00, b11 - l10 * b01, b12 - l10 * b02
    z20 = b20 - l20 * b00 - l21 * z10
    z21 = b21 - l20 * b01 - l21 * z11
    z22 = b22 - l20 * b02 - l21 * z12
    y00, y01, y02 = b00 / d0, b01 / d0, b02 / d0
    y10, y11, y12 = z10 / d1, z11 / d1, z12 / d1
    y20, y21, y22 = z20 / d2, z21 / d2, z22 / d2
    c00, c01, c02, _, c11, c12, _, _, c22 = c
    return _ldl3(
        c00 / n - (b00 * y00 + z10 * y10 + z20 * y20),
        c01 / n - (b00 * y01 + z10 * y11 + z20 * y21),
        c02 / n - (b00 * y02 + z10 * y12 + z20 * y22),
        c11 / n - (b01 * y01 + z11 * y11 + z21 * y21),
        c12 / n - (b01 * y02 + z11 * y12 + z21 * y22),
        c22 / n - (b02 * y02 + z12 * y12 + z22 * y22),
    ) is not None


def is3x3(rows) -> bool:
    """Whether rows is a sequence of 3 sequences of 3 entries."""
    try:
        return len(rows) == 3 and all(len(row) == 3 for row in rows)
    except TypeError:
        return False


def flat9(m) -> list:
    """The entries of a 3x3 array or nested sequence, or of a row-major
    9-sequence, as a row-major list of floats; ValueError for any other
    shape, or an entry that is not a number."""
    rows = m.tolist() if hasattr(m, "tolist") else m
    try:
        if len(rows) == 9:
            return [float(x) for x in rows]
        if is3x3(rows):
            return [float(x) for row in rows for x in row]
    except TypeError:
        pass
    raise ValueError("expected a 3x3 matrix or a row-major 9-sequence of numbers")


def det3(m) -> float:
    return det9(flat9(m))


def adjugate(m):
    """Transpose cofactor matrix; M @ adjugate(M) = det(M) * I for every M,
    singular ones included."""
    import numpy as np

    return np.array(cofactor9(flat9(np.transpose(m)))).reshape(3, 3)


def polarized_adjugate(p, x):
    """Mixed bilinear term of the adjugate: Adj(P+X) - Adj(P) - Adj(X).

    Equals d/dt Adj(P + tX) at t=0 since the adjugate is quadratic."""
    import numpy as np

    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    return adjugate(p + x) - adjugate(p) - adjugate(x)
