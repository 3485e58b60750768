"""Brute-force references that the tests compare the library against.

None of this is part of nhflat: the library computes the same objects in
closed form on the 3x3 data.  Here they are built the long way, from the
form-level definitions over the monomial basis of `nhflat.exterior`:

* exterior algebra: `wedge_all`, `volume_coefficient`, the interior
  product `contract`, compound matrices (`compound`), the action of an
  endomorphism of the coframe on forms (`pullback`) and the Hodge star
  (`hodge`);
* the parameterization: `de_de_form`, omega^2 in closed form
  (`omega_squared`), the coordinates of forms in the bases of
  `build_omega` and `invariant_three_form` (`omega_coords`,
  `three_form_coords`), the metric g = W J whether it is positive definite
  or not (`induced_metric`) and J from Hitchin's stable-form construction
  (`hitchin_j`);
* the torsion class from the closed-form vanishing conditions on the
  matrices A, B, R1 and R2 (`matrix_predicates`, `matrix_class`);
* curvature: the scalar curvature of a left-invariant metric on S3 x S3
  from the brackets of the frame (`scalar_curvature_of_metric`), and
  again through the Levi-Civita connection by Koszul's formula
  (`christoffel`), its curvature tensor and Ricci tensor
  (`scalar_curvature_by_koszul`);
* the flow: the stored structure nearest a time (`structure_at`);
* the generator ``tools/gen_kernels.py`` (`gen`), whose composed forms
  the generated kernels must equal, and which, keeping their integer
  constants, are exact on ``fractions.Fraction`` input where they use
  only +, - and * (the normalization bracket `gen.composed_bracket` and
  its Hessian `gen.composed_bracket_hessian`, which the package computes
  only inside the kernels `construct` and `torsion_pass`; F of the dual
  map is the hand-written `flow.abr`, exact there too), with the
  arguments of the kernel `torsion_pass` for a structure
  (`torsion_args`).
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys

import numpy as np

from nhflat.coframe import BASIS, BASIS_INDEX, COFRAME_DIFFERENTIAL, DIM, DIMS, _merge
from nhflat.exterior import Form, _form, is_spd, inverse_metric, wedge
from nhflat.mat3 import cofactor9, flat9
from nhflat.structure import (
    _OMEGA_TABLE,
    _THREE_FORM_TABLE,
    InvalidStructureError,
    SingularStructureError,
    SINGULAR_DETP,
    _de,
    _table_form,
    _wedge_table,
    omega_component_matrix,
)
from nhflat.tolerance import max_abs, relative

# -- exterior algebra ---------------------------------------------------------

# degree -> (DIMS[k], k) array of the 0-based coframe indices of each monomial
_INDEX_ARRAY = {
    k: np.array(BASIS[k], dtype=np.intp).reshape(DIMS[k], k) - 1 for k in range(DIM + 1)
}


def wedge_all(*forms: Form) -> Form:
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def volume_coefficient(x: Form) -> float:
    """Coefficient of e123456 in a 6-form."""
    if x.degree != DIM:
        raise ValueError("not a 6-form")
    return float(x.coeffs[0])


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


# -- the parameterization -----------------------------------------------------

_DE_DE_TABLE = _wedge_table(
    (_de(2 * i + 1), _de(2 * j + 2)) for i in range(3) for j in range(3)
)


def de_de_form(M) -> Form:
    """sum M_ij de^{2i-1} ^ de^{2j}."""
    return _table_form(4, _DE_DE_TABLE, flat9(M))


def omega_squared(P) -> Form:
    """Closed form of omega^2: -2 sum Adj(P^T)_ij de^{2i-1} ^ de^{2j}."""
    return de_de_form([-2.0 * x for x in cofactor9(flat9(P))])


def _table_coords(table, x: Form) -> list:
    """The coordinate list of the form x read off through table (see
    `structure._table_form`); exact."""
    c = x.coeffs.tolist()
    return [sign * c[k] for k, sign in table]


def three_form_coords(x: Form) -> list:
    """The 20-list (c135, c246, M1, M2) of a 3-form x, row-major M1 and M2,
    so that x = invariant_three_form(c135, c246, M1, M2) when x lies in
    their span.  The basis is a signed permutation, so this is exact."""
    return _table_coords(_THREE_FORM_TABLE, x)


def omega_coords(x: Form) -> list:
    """The row-major 9-list X of a 2-form x, so that x = build_omega(X)
    when x lies in the span of the e^{2i-1} ^ e^{2j}; a signed selection
    of 9 of the 15 coefficients, so exact."""
    return _table_coords(_OMEGA_TABLE, x)


def induced_metric(s) -> np.ndarray:
    """g(X, Y) = omega(X, JY) of the structure s as a 6x6 array, g = W J,
    positive definite or not (`NhfStructure.metric` raises where it is
    not)."""
    return omega_component_matrix(s.omega) @ s.J


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


# -- the torsion class ----------------------------------------------------------


def matrix_predicates(s) -> dict:
    """Relative residuals of the torsion-vanishing conditions written on
    the structure's 9-lists (`NhfStructure.m9`) rather than on the
    coordinates of w3 and w2-: nearly Kahler, w1+ = 0, w2- = 0 and w3 = 0.

    Each residual is divided by the size of the terms being compared, and
    the w1+ = 0 test is |w1+| / |lambda|.  Algebraically the w3 residual
    vector is y / (-c), y the 20-list of w3 and c = 3 lambda / (2 det P),
    and the w2- one is (det P / 2) T, of which the 9-list of w2- is an
    invertible linear image."""
    m = s.m9
    lam, dp, w1p = s.lam, s.det_p, s.w1plus
    r1, r2, p = max_abs(m.r1), max_abs(m.r2), s.sizes.p

    # the size of a scalar multiple c X is |c| times the size of X
    k = 2.0 * dp / (3.0 * lam)
    nk = relative(
        [s.A, s.B]
        + [r - k * x for r, x in zip(m.r1, m.p)]
        + [r + k * x for r, x in zip(m.r2, m.p)],
        r1, r2, abs(k) * p, s.A, s.B,
    )
    # w2- = 0: R = (tr(P^T R) / (3 det P)) Adj(P^T), where tr(P^T R) is
    # 2 (det P)^2 w1+.  R is sized by R1 and R2, not by itself: R = R1 + R2
    # cancels to roundoff on w1w3 members.
    cw = (2.0 / 3.0) * dp * w1p
    r_w1 = [cw * x for x in m.adj_pt]
    cocoupled = relative(
        [u + v - x for u, v, x in zip(m.r1, m.r2, r_w1)], r1, r2, r_w1
    )
    # w3 = 0: four conditions on A, B, R1, R2
    c = (2.0 / 3.0) * dp * w1p / lam
    e, tp, tq = 1.0 / (3.0 * lam), 2.0 * dp, 2.0 * dp * w1p
    t1 = [e * (tp * x - tq * q) for x, q in zip(m.p, m.q1)]
    t2 = [e * (tp * x + tq * q) for x, q in zip(m.p, m.q2)]
    coupled = relative(
        [s.A + c * s.a, s.B + c * s.b]
        + [r - t for r, t in zip(m.r1, t1)]
        + [r + t for r, t in zip(m.r2, t2)],
        r1, r2, t1, t2, s.A, s.B, c * s.a, c * s.b,
    )
    return {
        "nearly_kahler": nk,
        "w1plus_zero": relative(w1p, lam),
        "w2minus_zero": cocoupled,
        "w3_zero": coupled,
    }


def matrix_class(s, tol: float = 1e-7):
    """(label, nearly Kahler verdict) from `matrix_predicates` at `tol`."""
    res = matrix_predicates(s)
    w1p0 = res["w1plus_zero"] <= tol
    if res["w3_zero"] <= tol:
        label = "W1-" if w1p0 else "W1"
    elif res["w2minus_zero"] <= tol:
        label = "W1-+W3" if w1p0 else "W1+W3"
    else:
        label = "W1-+W2-+W3" if w1p0 else "W1+W2-+W3"
    return label, res["nearly_kahler"] <= tol


# -- curvature ------------------------------------------------------------------


def _structure_constants() -> np.ndarray:
    """c[k, i, j] with [X_i, X_j] = sum_k c[k, i, j] X_k, X the frame dual
    to the coframe: de^k(X_i, X_j) = -e^k([X_i, X_j]) for left-invariant
    forms."""
    c = np.zeros((DIM, DIM, DIM))
    for k, ((i, j), sign) in COFRAME_DIFFERENTIAL.items():
        c[k - 1, i - 1, j - 1] = -sign
        c[k - 1, j - 1, i - 1] = sign
    return c


_BRACKETS = _structure_constants()
#: The Killing form B(X_i, X_j) = tr(ad X_i ad X_j) on the frame.
_KILLING = np.einsum("kil,ljk->ij", _BRACKETS, _BRACKETS)


def scalar_curvature_of_metric(g) -> float:
    """The scalar curvature of the left-invariant metric g on S3 x S3, a
    symmetric positive definite 6x6 array on the frame X dual to the
    coframe (as `NhfStructure.metric` gives it).  On a unimodular Lie
    group, for a g-orthonormal basis Y_a (Besse, Einstein Manifolds,
    7.39; Milnor, Adv. Math. 21 (1976)),

        s = -1/4 sum_ab |[Y_a, Y_b]|^2 - 1/2 sum_a B(Y_a, Y_a),

    B the Killing form, written here on the frame X with the inverse
    metric in place of the orthonormal basis.  g = id, two round
    3-spheres of radius 2, gives 3."""
    g = np.asarray(g, dtype=float)
    inv = np.linalg.inv(g)
    brackets = np.einsum("kl,im,jn,kij,lmn->", g, inv, inv, _BRACKETS, _BRACKETS)
    return float(-0.25 * brackets - 0.5 * np.einsum("ij,ij->", inv, _KILLING))


def christoffel(g) -> np.ndarray:
    """The Christoffel symbols G[m, i, j] = G^m_ij, nabla_{X_i} X_j =
    G^m_ij X_m, of the left-invariant metric g (as in
    `scalar_curvature_of_metric`).  On left-invariant fields g is
    constant, so Koszul's formula reads

        2 g(nabla_{X_i} X_j, X_k) = c_ijk - c_jki + c_kij,
        c_ijk = g([X_i, X_j], X_k)."""
    g = np.asarray(g, dtype=float)
    c = np.einsum("lij,lk->ijk", _BRACKETS, g)
    lower = 0.5 * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c))
    return np.einsum("mk,ijk->mij", np.linalg.inv(g), lower)


def scalar_curvature_by_koszul(g) -> float:
    """The scalar curvature of the left-invariant metric g (as in
    `scalar_curvature_of_metric`) the long way, with no formula for Lie
    groups: from the Christoffel symbols of Koszul's formula
    (`christoffel`), R(X_i, X_j) X_k = nabla_i nabla_j X_k -
    nabla_j nabla_i X_k - nabla_[X_i, X_j] X_k, Ric(Y, Z) the trace of
    X -> R(X, Y) Z, and s the trace of Ric by g."""
    g = np.asarray(g, dtype=float)
    inv = np.linalg.inv(g)
    gam = christoffel(g)
    # R[n, k, i, j]: the X_n component of R(X_i, X_j) X_k
    r = (
        np.einsum("mjk,nim->nkij", gam, gam)
        - np.einsum("mik,njm->nkij", gam, gam)
        - np.einsum("lij,nlk->nkij", _BRACKETS, gam)
    )
    ric = np.einsum("ikij->jk", r)
    return float(np.einsum("jk,jk->", inv, ric))


# -- the flow -------------------------------------------------------------------


def structure_at(traj, t: float):
    """The stored structure of the trajectory at the sample time closest
    to t."""
    times = np.array([s.t for s in traj.samples])
    return traj.samples[int(np.argmin(np.abs(times - t)))].structure


# -- the composed forms of the generated kernels --------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_generator():
    """``tools/gen_kernels.py`` as a module, registered as ``gen_kernels``."""
    path = os.path.join(ROOT, "tools", "gen_kernels.py")
    spec = importlib.util.spec_from_file_location("gen_kernels", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gen = load_generator()


def torsion_args(s):
    """The arguments of the kernel `torsion_pass` (and of
    `gen.composed_torsion_pass`) for the structure s, as `torsion` passes
    them."""
    m = s.m9
    return (
        s.lam, s.a, s.b, s.det_p, s.w1plus, m.p, m.q1, m.q2, m.r1, m.r2,
        s.A, s.B, s.jgamma_coords, s.sizes, m.adj_pt,
    )
