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

import reprlib
import sys
from functools import cached_property
from itertools import chain
from operator import neg
from typing import TYPE_CHECKING, NamedTuple

from nhflat._kernels import construct
from nhflat.coframe import BASIS, BASIS_INDEX, COFRAME_DIFFERENTIAL, DIMS, _merge
# the errors, re-exported: they are defined apart, for the kernels that raise them
from nhflat.errors import (  # noqa: F401
    InvalidStructureError,
    SingularStructureError,
    StructureError,
)
from nhflat.mat3 import cofactor9, flat9, is3x3, is_spd9, mul9, transpose9
from nhflat.tolerance import DEFAULT_TOL, badness, max_abs

if TYPE_CHECKING:
    import numpy as np

    from nhflat.exterior import Form

#: P is singular when |det P| <= SINGULAR_DETP * max|P|^3 (`construct`
#: is generated with its value).
SINGULAR_DETP = 1e-12


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


def compute_abr(a: float, b: float, Q1, Q2):
    """The scalars A, B and matrices R1, R2, R entering J gamma and the flow.

    Nothing in the package calls it; it stays only because the benchmark's
    tracer (``perfbench/tracer.py``) binds it by name, until ROADMAP item 1
    retargets the tracer.  `flow.abr` is the computation."""
    from nhflat.flow import abr

    f = abr(float(a), float(b), flat9(Q1), flat9(Q2))
    R1, R2 = _array3x3(f[2:11]), _array3x3(f[11:])
    return f[0], f[1], R1, R2, R1 + R2


def _j_blocks9(a: float, b: float, q1, q2):
    """The blocks of the matrix (det P) J^T of the state (a, b, Q1, Q2) on
    the odd/even rows and columns, as row-major 9-lists, with Q1, Q2 given
    as row-major 9-sequences:

        oo =  (a b - tr(Q1^T Q2)) Id + 2 Q2 Q1^T,   oe = -2 (a Q2 - Adj(Q1^T)),
        eo =  2 (b Q1^T - Adj(Q2)),   ee = -(a b - tr(Q1^T Q2)) Id - 2 Q1^T Q2,

    the (i, j) entry of each at (2 i, 2 j), (2 i, 2 j + 1), (2 i + 1, 2 j)
    and (2 i + 1, 2 j + 1) of the matrix (see `_interleave`)."""
    q1t = transpose9(q1)
    g, h = mul9(q1t, q2), mul9(q2, q1t)
    t = a * b - (g[0] + g[4] + g[8])
    oo = [2 * x for x in h]
    ee = [-2 * x for x in g]
    for i in (0, 4, 8):  # + t Id and - t Id
        oo[i] += t
        ee[i] -= t
    oe = [-2 * (a * v - x) for v, x in zip(q2, cofactor9(q1))]
    eo = [2 * (b * u - x) for u, x in zip(q1t, transpose9(cofactor9(q2)))]
    return oo, oe, eo, ee


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


class ValidationReport(NamedTuple):
    """The residuals, SPD verdict and tolerance of `NhfStructure.validate`.
    A residual fails unless it is at most `tol`, so a NaN fails, and it is
    the `worst` (`tolerance.badness`)."""

    residuals: dict
    metric_spd: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.metric_spd and all(v <= self.tol for v in self.residuals.values())

    @property
    def worst(self):
        name = max(self.residuals, key=lambda k: badness(self.residuals[k]))
        return name, self.residuals[name]

    def failing(self):
        bad = [k for k, v in self.residuals.items() if not v <= self.tol]
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
    compare (see `tolerance.relative`), NaN if an entry is: gamma, J gamma,
    P (and omega, since its coefficients are those of P and zeros), Q, Q1
    and Q2."""

    gam: float
    jg: float
    p: float
    q: float
    q1: float
    q2: float


def _matrix9(m) -> list:
    """The entries of a 3x3 matrix, an array or nested sequences, as a
    row-major list of floats; StructureError if it is not 3x3 (a flat
    9-list included)."""
    rows = m.tolist() if hasattr(m, "tolist") else m
    if not is3x3(rows):
        raise StructureError("P and Q must be 3x3 matrices")
    return [float(x) for row in rows for x in row]


def _malformed(field: str, what: str, value) -> StructureError:
    """The error of a record's field that is not what it should be."""
    return StructureError(
        f"malformed structure record: {field}: expected {what}, got {reprlib.repr(value)}"
    )


def _record_numbers(rec) -> list:
    """The 21 numbers of a record's lambda, a, b, P and Q as floats, P and
    Q row-major, read in one walk in field order: the record must be a
    dict, each field present, P and Q 3x3 and each number of type int or
    float (float() would read True and "4") and finite, an array or a
    numpy scalar read after `tolist()`.  The first that fails raises
    StructureError ``malformed structure record: <field>: expected
    <what>, got <value>`` or ``<field>: missing``."""
    if not isinstance(rec, dict):
        raise _malformed("record", "a JSON object", rec)
    numbers, largest = [], sys.float_info.max
    for field in ("lambda", "a", "b", "P", "Q"):
        if field not in rec:
            raise StructureError(f"malformed structure record: {field}: missing")
        value = rec[field]
        values = (value,)
        if field in ("P", "Q"):
            rows = value.tolist() if hasattr(value, "tolist") else value
            if not is3x3(rows):
                raise _malformed(field, "a 3x3 matrix", rows)
            values = chain.from_iterable(rows)
        for x in values:
            if hasattr(x, "tolist"):
                x = x.tolist()
            if type(x) is not float and type(x) is not int:
                raise _malformed(field, "a number", x)
            # before float(): an int too large for a float is caught here
            if not abs(x) <= largest:
                raise _malformed(field, "a finite number", x)
            numbers.append(float(x))
    return numbers


class NhfStructure:
    """An invariant nearly half-flat structure with its derived cache.

    Construction works on Python floats and row-major 9-lists only, in
    one call of the generated kernel `construct` (``nhflat._kernels``,
    traced from compositions of the `mat3` helpers by
    ``tools/gen_kernels.py``): it computes det P, rejects a singular P,
    and computes the 3x3 data Adj(P^T), Q1, Q2, R1 and R2, kept with P
    and Q as the 9-lists `m9` that the verdicts read, the 20-list
    `jgamma_coords` of J gamma (see `invariant_three_form`), F = (A, B,
    R1, R2) and the `sizes` of gamma, J gamma, P, Q, Q1 and Q2; and what
    `validate` reads: the ten defining residuals and their block maxima,
    the J^2 = -id residual `j_squared_residual` (|(J^2)_11 + 1|) and the
    3x3 blocks of (det P)(g + g^T), products of P with the blocks of J.
    Computed on first use are the SPD verdict `metric_spd`, which
    `mat3.is_spd9` decides on those blocks without g; `w1plus`, which
    raises where (det P)^2 underflows, so that construction does not;
    and the numpy views for callers, the arrays P, Q, Q1, Q2 and J and the forms
    omega, gamma and J gamma.  :meth:`metric` builds g on each call.  No
    verdict reads an array or a form, so checking and classifying a
    structure does not import numpy.
    Nothing is mutated after that, so instances are safe to share between
    threads (two threads may both compute a value on first use; they get
    the same value).  Construction only rejects singular det P; use
    :meth:`validate` to test the remaining constraints (so that invalid
    records can still be diagnosed)."""

    def __init__(self, lam: float, a: float, b: float, P, Q, *, _flat=False):
        # _flat: P and Q are already row-major 9-lists of floats, as
        # `_matrix9` gives them (the private path of `from_record` and
        # `flow.integrate`, which have them parsed).  Their entries may
        # also be complex: the root-solve sampler's Jacobian is the
        # complex step of `defining_residuals` over P (see `_solve_p`).
        # So the value path stays analytic, +, -, * and / only: no
        # float(), comparison or `math` call on an entry, and sizes are
        # moduli.  A canonical scale (ROADMAP item 3) must scale entries
        # as x * 2.0**-e, not with `math.ldexp`.
        if lam == 0:
            raise StructureError("lambda must be nonzero")
        self.lam = lam = float(lam)
        self.a = a = float(a)
        self.b = b = float(b)
        p, q = (P, Q) if _flat else (_matrix9(P), _matrix9(Q))
        (self.det_p, adj, q1, q2, f, self.jgamma_coords, sizes, self._residuals,
         self._maxima, self.j_squared_residual, self._spd_blocks) = construct(lam, a, b, p, q)
        self.orientation = 1 if self.det_p.real > 0 else -1
        self.A, self.B = f[0], f[1]
        self.m9 = Lists9(p, q, adj, q1, q2, f[2:11], f[11:])
        self.sizes = Sizes(*sizes)

    # -- derived values, computed on first use ---------------------------

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
        m = self.m9
        return _interleave(_j_blocks9(self.a, self.b, m.q1, m.q2)).T / self.det_p

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
        g = mul9(transpose9(m.p), [x + y for x, y in zip(m.r1, m.r2)])
        return (g[0] + g[4] + g[8]) / (2.0 * self.det_p * self.det_p)

    @cached_property
    def metric_spd(self) -> bool:
        """Whether g is positive definite, decided on 3x3 blocks by
        `mat3.is_spd9`, without g: the blocks of |det P| (g + g^T), those
        of (det P)(g + g^T) that construction computed, negated where
        det P < 0.  Decided on first use, not in construction: `is_spd9`
        compares values, and the root-solve sampler's complex-step
        structures have complex ones."""
        blocks = self._spd_blocks
        if self.orientation < 0:
            blocks = [list(map(neg, block)) for block in blocks]
        return is_spd9(*blocks)

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
        a/c^3, b/c^3, P/c^2, Q/c^3).  A new list on each call, of the
        residuals that construction computed."""
        return self._residuals[:]

    def validate(self, tol: float = DEFAULT_TOL) -> ValidationReport:
        """The largest |residual| of each block of `defining_residuals`,
        as `qtp_symmetry`, `normalization` and `jgamma_wedge_omega`, and,
        reported apart as `metric_spd`, whether g is positive definite.
        The J^2 = -id residual `j_squared_residual` is reported too; J is
        scale free, so it is taken as it is.  All of them but `metric_spd`
        were computed in construction, from the data the structure was
        built with.

        Not checked, because they follow: d gamma = (lambda/2) omega^2 holds
        for any parameters, and gamma ^ omega = 0, gamma ^ J gamma =
        (2/3) omega^3 and the symmetry of g follow from the defining
        conditions."""
        qtp, norm, jgw = self._maxima
        res = {
            "qtp_symmetry": qtp,
            "normalization": norm,
            "j_squared": self.j_squared_residual,
            "jgamma_wedge_omega": jgw,
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
        """Structure of a record.  Its numbers are read as `_record_numbers`
        reads them, and its orientation, if given, must be 1 or -1; the
        first malformed field of lambda, a, b, P, Q and orientation raises
        StructureError ``malformed structure record: <field>: expected
        <what>, got <value>`` (or ``<field>: missing``, or ``record: ...``
        if it is not a JSON object)."""
        lam, a, b, *pq = _record_numbers(rec)
        want = rec.get("orientation")
        if hasattr(want, "tolist"):
            want = want.tolist()
        # +-1 as given, not converted: True == 1, and no string equals 1
        if want is not None and (isinstance(want, bool) or want not in (1, -1)):
            raise _malformed("orientation", "1 or -1", want)
        s = cls(lam, a, b, pq[:9], pq[9:], _flat=True)
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


#: The valid P form a set of positive dimension, where the Jacobian has
#: singular values that are 0 up to rounding; lstsq drops those below
#: sqrt(eps) times the largest.  numpy's default cut (`rcond=None`, about
#: 10 eps times the largest) is too fine: on seeds 0-29, one ulp on every
#: input of the accepted draw then moved the point reached by more than
#: 1e-9 in 35 of 60 runs, up to 8e-5 relative, and seeds 18 and 28 ended
#: with residuals above 1e-10 (6.4e-10 and 2.7e-10).
_RCOND = sys.float_info.epsilon ** 0.5
#: Draws of `sample_random_structure(method="root-solve")` before it gives up.
_MAX_DRAWS = 50


def _solve_p(lam: float, a: float, b: float, P, Q) -> NhfStructure:
    """The root-solve iteration of `sample_random_structure` from P; the
    structure where the largest |residual| stopped decreasing.

    Column k of the Jacobian is the complex step Im r(P + i h e_k) / h of
    the residuals r = `NhfStructure.defining_residuals`, with h = 1e-100
    max|P|: construction and the residuals use only +, -, * and / on the
    entries, so they run on complex P, and the term sizes they divide by
    are moduli, which the step does not move.  It is the Jacobian of the
    numerators over their sizes, exact to rounding, with no difference
    step to choose; at a root it is the derivative of r."""
    import numpy as np

    s = NhfStructure(lam, a, b, P, Q)
    q = s.m9.q
    r = s.defining_residuals()
    while True:
        p = s.m9.p
        h = 1e-100 * max_abs(p)
        jac = np.array([
            NhfStructure(
                lam, a, b, p[:k] + [complex(p[k], h)] + p[k + 1:], q, _flat=True
            ).defining_residuals()
            for k in range(9)
        ]).imag.T / h
        step = np.linalg.lstsq(jac, np.negative(r), rcond=_RCOND)[0]
        t = NhfStructure(lam, a, b, [x + d for x, d in zip(p, step.tolist())], q, _flat=True)
        r_t = t.defining_residuals()
        if not max_abs(r_t) < max_abs(r):
            return s
        s, r = t, r_t


def sample_random_structure(seed, method: str = "rotate-family"):
    """Random valid structure for property tests.

    "rotate-family" transports a random closed-form family member by a
    random SO(3) x SO(3) rotation (always valid, by equivariance).
    "root-solve" perturbs a, b, Q and P of a rotated family member by
    about 10% each and solves the defining conditions
    (`NhfStructure.defining_residuals`) for P, keeping lambda, a, b and Q:
    min-norm Gauss-Newton steps (`np.linalg.lstsq` on the complex-step
    Jacobian of the residuals over the 9 entries of P, see `_solve_p`)
    from the perturbed P, until the largest |residual| stops decreasing.
    The point reached is accepted when it passes `validate`; a draw that
    is not accepted, or meets a singular P on the way, is retried, up to
    `_MAX_DRAWS` draws, after which SamplerExhaustedError is raised.
    ValueError for any other method."""
    import numpy as np

    rng = np.random.default_rng(seed)
    if method == "rotate-family":
        base = _sample_family_member(rng)
        return base.rotated(random_rotation(rng), random_rotation(rng))
    if method != "root-solve":
        raise ValueError(f"unknown sampling method: {method}")

    for _ in range(_MAX_DRAWS):
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
    raise SamplerExhaustedError(f"no valid structure after {_MAX_DRAWS} attempts")
