"""Small helpers for real 3x3 matrices: determinant, adjugate and the
polarized adjugate used for time derivatives of adjugates along the flow."""

from __future__ import annotations

import numpy as np


def det3(m) -> float:
    m = np.asarray(m, dtype=float)
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def adjugate(m) -> np.ndarray:
    """Transpose cofactor matrix; M @ adjugate(M) = det(M) * I for every M,
    singular ones included."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.asarray(m, dtype=float).tolist()
    return np.array(
        [
            [m11 * m22 - m12 * m21, m02 * m21 - m01 * m22, m01 * m12 - m02 * m11],
            [m12 * m20 - m10 * m22, m00 * m22 - m02 * m20, m02 * m10 - m00 * m12],
            [m10 * m21 - m11 * m20, m01 * m20 - m00 * m21, m00 * m11 - m01 * m10],
        ]
    )


def polarized_adjugate(p, x) -> np.ndarray:
    """Mixed bilinear term of the adjugate: Adj(P+X) - Adj(P) - Adj(X).

    Equals d/dt Adj(P + tX) at t=0 since the adjugate is quadratic."""
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    return adjugate(p + x) - adjugate(p) - adjugate(x)
