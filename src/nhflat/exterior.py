"""Exterior algebra over the left-invariant coframe e1..e6 of S3 x S3.

Forms are dense coefficient vectors over the lexicographically ordered
ascending-index monomial basis of each degree (dims 1, 6, 15, 20, 15, 6, 1).
The differential is the Leibniz extension of the su(2)+su(2) structure
constants

    de1 = e35,  de3 = -e15,  de5 = e13,
    de2 = e46,  de4 = -e26,  de6 = e24.

The positive orientation is e123456; all Hodge signs follow from it.
The bases and structure constants are those of `coframe`, and the
tolerance policy (`DEFAULT_TOL`, `max_abs`, `term_size`, `relative`) is
that of `tolerance`; both are re-exported here.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from nhflat.coframe import BASIS, BASIS_INDEX, COFRAME_DIFFERENTIAL, DIM, DIMS, _merge
from nhflat.mat3 import is_spd9
from nhflat.tolerance import DEFAULT_TOL, max_abs, relative, term_size

# degree -> (DIMS[k], k) array of the 0-based coframe indices of each monomial
_INDEX_ARRAY = {
    k: np.array(BASIS[k], dtype=np.intp).reshape(DIMS[k], k) - 1 for k in range(DIM + 1)
}


@functools.cache
def wedge_tensor(j: int, k: int) -> np.ndarray:
    """Sign tensor T[p, m, n] of the product of the m-th degree-j monomial
    and the n-th degree-k monomial onto the p-th degree-(j + k) monomial."""
    T = np.zeros((DIMS[j + k], DIMS[j], DIMS[k]))
    for m, left in enumerate(BASIS[j]):
        for n, right in enumerate(BASIS[k]):
            mono, sign = _merge(left, right)
            if sign:
                T[BASIS_INDEX[j + k][mono], m, n] = sign
    T.flags.writeable = False
    return T


class Form:
    """Dense invariant differential form of a fixed degree."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=None):
        if not 0 <= degree <= DIM:
            raise ValueError(f"degree must be in 0..{DIM}, got {degree}")
        self.degree = degree
        if coeffs is None:
            self.coeffs = np.zeros(DIMS[degree])
        else:
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (DIMS[degree],):
                raise ValueError(
                    f"degree {degree} expects {DIMS[degree]} coefficients, got {coeffs.shape}"
                )
            self.coeffs = coeffs.copy()

    @classmethod
    def monomial(cls, indices, coeff: float = 1.0) -> "Form":
        """Form c * e^{i1} ^ ... ^ e^{ik} for ascending indices."""
        indices = tuple(indices)
        if indices not in BASIS_INDEX[len(indices)]:
            raise ValueError(f"not an ascending index tuple: {indices}")
        f = cls(len(indices))
        f.coeffs[BASIS_INDEX[len(indices)][indices]] = coeff
        return f

    def copy(self) -> "Form":
        return Form(self.degree, self.coeffs)

    def __add__(self, other: "Form") -> "Form":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return _form(self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "Form") -> "Form":
        if self.degree != other.degree:
            raise ValueError("cannot subtract forms of different degree")
        return _form(self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Form":
        return _form(self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Form":
        return _form(self.degree, -self.coeffs)

    def __getitem__(self, indices) -> float:
        return float(self.coeffs[BASIS_INDEX[self.degree][tuple(indices)]])

    def max_abs(self) -> float:
        return max_abs(self.coeffs)

    def __repr__(self):
        terms = []
        for mono, c in zip(BASIS[self.degree], self.coeffs):
            if c != 0:
                name = "e" + "".join(str(i) for i in mono) if mono else "1"
                terms.append(f"{c:+g}*{name}")
        return f"Form({' '.join(terms) or '0'})"


def _form(degree: int, coeffs: np.ndarray) -> Form:
    """Form that takes ownership of a fresh float array of the right length,
    without the checks and the copy of the public constructor."""
    f = Form.__new__(Form)
    f.degree = degree
    f.coeffs = coeffs
    return f


def wedge(x: Form, y: Form) -> Form:
    """Graded-commutative exterior product; zero form when degrees exceed 6."""
    deg = x.degree + y.degree
    if deg > DIM:
        return Form(0)
    return _form(deg, (wedge_tensor(x.degree, y.degree) @ y.coeffs) @ x.coeffs)


def wedge_all(*forms: Form) -> Form:
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


@functools.cache
def _d_matrix(k: int) -> np.ndarray:
    """Matrix of d on degree-k forms (k < 6): the Leibniz extension of the
    coframe differentials to each monomial."""
    mat = np.zeros((DIMS[k + 1], DIMS[k]))
    for n, mono in enumerate(BASIS[k]):
        for j, idx in enumerate(mono):
            dpair, dsign = COFRAME_DIFFERENTIAL[idx]
            merged, sign = _merge(dpair, mono[:j] + mono[j + 1:])
            if sign:
                mat[BASIS_INDEX[k + 1][merged], n] += ((-1) ** j) * dsign * sign
    mat.flags.writeable = False
    return mat


def d(x: Form) -> Form:
    """Exterior derivative defined by the fixed structure constants."""
    if x.degree >= DIM:
        return Form(0)
    return _form(x.degree + 1, _d_matrix(x.degree) @ x.coeffs)


@functools.cache
def _contract_tensor(k: int) -> np.ndarray:
    """Sign tensor C[r, a, n] of the interior product of the a-th dual frame
    vector with the n-th degree-k monomial onto the r-th degree-(k - 1)
    monomial (k >= 1)."""
    C = np.zeros((DIMS[k - 1], DIM, DIMS[k]))
    for n, mono in enumerate(BASIS[k]):
        for j, idx in enumerate(mono):
            C[BASIS_INDEX[k - 1][mono[:j] + mono[j + 1:]], idx - 1, n] = (-1) ** j
    C.flags.writeable = False
    return C


def contract(v, x: Form) -> Form:
    """Interior product v -| x for a tangent vector v.

    v is either a 1-based basis index or a length-6 component vector in the
    dual basis e_1..e_6.
    """
    if x.degree == 0:
        return Form(0)
    if np.isscalar(v):
        comps = np.zeros(DIM)
        comps[int(v) - 1] = 1.0
    else:
        comps = np.asarray(v, dtype=float)
    return _form(x.degree - 1, (_contract_tensor(x.degree) @ x.coeffs) @ comps)


def compound(M, k: int) -> np.ndarray:
    """k-th compound matrix of the 6x6 matrix M: C[I, J] = det M[I, J] over
    the degree-k monomials I, J."""
    idx = _INDEX_ARRAY[k]
    M = np.asarray(M, dtype=float)
    return np.linalg.det(M[idx[:, None, :, None], idx[None, :, None, :]])


def pullback(M, x: Form) -> Form:
    """Apply the endomorphism M of the coframe (e^i -> sum_j M[i,j] e^j) to
    every slot of x.  Multiplicative over wedge; identity acts trivially."""
    M = np.asarray(M, dtype=float)
    if M.shape != (DIM, DIM):
        raise ValueError("endomorphism must be 6x6")
    return _form(x.degree, compound(M, x.degree).T @ x.coeffs)


def is_spd(g: np.ndarray) -> bool:
    """Whether the symmetric part of the 6x6 matrix g is positive
    definite, by `mat3.is_spd9` on the 3x3 blocks of g + g^T; False when
    an entry is NaN or infinite."""
    g = np.asarray(g, dtype=float)
    h = (g + g.T).tolist()
    r0, r1, r2 = h[0], h[1], h[2]
    return is_spd9(
        r0[:3] + r1[:3] + r2[:3],
        r0[3:] + r1[3:] + r2[3:],
        h[3][3:] + h[4][3:] + h[5][3:],
    )


def inverse_metric(g, spd: bool | None = None) -> np.ndarray:
    """Inverse of the coframe metric g; ValueError unless g is a symmetric
    positive definite 6x6 matrix.  `spd` is the verdict of `is_spd(g)`
    when the caller already has it."""
    g = np.asarray(g, dtype=float)
    if g.shape != (DIM, DIM):
        raise ValueError("metric must be 6x6")
    if not relative(g - g.T, g) <= DEFAULT_TOL:
        raise ValueError("metric must be symmetric")
    if not (is_spd(g) if spd is None else spd):
        raise ValueError("metric must be positive definite")
    return np.linalg.inv(g)


@functools.cache
def _complement(k: int) -> np.ndarray:
    """Signed permutation taking e^I to sign * e^{Ic}, where
    e^I ^ e^{Ic} = sign * e123456."""
    comp = np.zeros((DIMS[DIM - k], DIMS[k]))
    for n, mono in enumerate(BASIS[k]):
        rest = tuple(i for i in range(1, DIM + 1) if i not in mono)
        _, sign = _merge(mono, rest)
        comp[BASIS_INDEX[DIM - k][rest], n] = sign
    comp.flags.writeable = False
    return comp


def hodge(g, x: Form) -> Form:
    """Riemannian Hodge star of x for the SPD coframe metric g, with
    positive volume form e123456."""
    ginv = inverse_metric(g)
    vol = np.sqrt(np.linalg.det(g))
    k = x.degree
    return _form(DIM - k, vol * (_complement(k) @ (compound(ginv, k) @ x.coeffs)))


@functools.cache
def _scatter(k: int):
    """(source, sign, ascending) tables of degree k over the 6^k entries
    of a k-slot tensor in row-major order.  The full antisymmetric tensor
    of a coefficient vector x is ``sign * x[source]`` (sign 0 where an index
    repeats); ``ascending`` lists the flat positions of the ascending
    multi-indices, in basis order."""
    source = np.zeros(DIM**k, dtype=np.intp)
    sign = np.zeros(DIM**k)
    ascending = np.zeros(DIMS[k], dtype=np.intp)
    for flat, multi in enumerate(itertools.product(range(1, DIM + 1), repeat=k)):
        if len(set(multi)) == k:
            mono, s = _merge((), multi)
            source[flat], sign[flat] = BASIS_INDEX[k][mono], s
            if mono == multi:
                ascending[source[flat]] = flat
    for table in (source, sign, ascending):
        table.flags.writeable = False
    return source, sign, ascending


def inner(M: np.ndarray, x: Form, y: Form) -> float:
    """x^T C_k(M) y for equal-degree forms and a 6x6 matrix M, without
    building the compound matrix: y is expanded to its antisymmetric k-slot
    tensor, M is applied to every slot, and the result is read at the
    ascending multi-indices and paired with x.  With M = g^-1 this is the
    inner product of `form_inner`; nothing is checked here."""
    k = x.degree
    source, sign, ascending = _scatter(k)
    t = sign * y.coeffs[source]
    for _ in range(k):
        # contract the last slot with M and rotate it to the front; after
        # k turns every slot is contracted and the order is restored
        t = (t.reshape(-1, DIM) @ M.T).T
    return float(x.coeffs @ t.ravel()[ascending])


def form_inner(g, x: Form, y: Form) -> float:
    """Pointwise inner product of equal-degree forms induced by g, with
    orthonormal monomials of an orthonormal coframe having unit norm."""
    if x.degree != y.degree:
        raise ValueError("degree mismatch in form inner product")
    return inner(inverse_metric(g), x, y)


def volume_coefficient(x: Form) -> float:
    """Coefficient of e123456 in a 6-form."""
    if x.degree != DIM:
        raise ValueError("not a 6-form")
    return float(x.coeffs[0])
