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
* the flow: the stored structure nearest a time (`structure_at`).
"""

from __future__ import annotations

import functools

import numpy as np

from nhflat.coframe import BASIS, BASIS_INDEX, DIM, DIMS, _merge
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
from nhflat.tolerance import relative

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


# -- the flow -------------------------------------------------------------------


def structure_at(traj, t: float):
    """The stored structure of the trajectory at the sample time closest
    to t."""
    times = np.array([s.t for s in traj.samples])
    return traj.samples[int(np.argmin(np.abs(times - t)))].structure
