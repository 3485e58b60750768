"""Generate the package's straight-line kernels from the composed forms in
this file, one composed form to a kernel: ``src/nhflat/_kernels.py``
(`construct`, from `composed_construct`), ``src/nhflat/_flow_kernels.py``
(`rk4_step`, from `composed_rk4_step`, whose stages are the hand-written
`flow.stage`) and ``src/nhflat/_torsion_kernels.py`` (`torsion_pass`,
from `composed_torsion_pass`).  Each form's docstring says what its
kernel returns, and `emit` copies it into the kernel.  The helpers the
forms share and nothing in ``src`` runs (the bracket, its Hessian and
the wedges `three_form_wedge_omega` and `three_form_volume` on
coordinates) are here too.  F = (A, B, R1, R2) of Hitchin's dual map is
written once, by hand, as `flow.abr`: `composed_construct` calls it,
`flow.stage` calls it, and the trace runs it as it runs at run time.

    python tools/gen_kernels.py          # write the three files
    python tools/gen_kernels.py --check  # exit 1 if a file is not current

A composed form is plain Python over the `mat3` helpers.  `trace` runs it
once on symbolic values: each +, -, *, /, unary -, `abs` and `math.sqrt`
it computes becomes a node of an expression graph, and an operation
already made on the same operands, in the same order, is the node made
then.  So does a largest value, by either of the package's two rules (a
"max" or a "max_abs" node, see `Graph`).  `emit` writes the graph as one
function: a value used more than once gets a name, the rest are written
inline, each with the grouping of the trace.  No operand is reordered,
so a kernel rounds as its composed form does, to the last bit.  A kernel
writes each constant as a float (``2.0 * x`` is ``2 * x`` for a float or
complex x; Python specializes float by float arithmetic).  A composed
form keeps its integer constants: where it is exact on
``fractions.Fraction`` input, it is the tests' oracle; the kernel is not.

A comparison of traced values is a guard: ``if x <= 0: raise E(msg)``,
whose branch must raise before it computes anything.  The trace takes
every guard's branch once, to read the exception and its message, in
which each traced value formatted with ``{x:spec}`` is written back as
that value.  A kernel keeps each guard where the trace met it, after the
named values computed before it.  Any other branch on a traced value,
a largest value included, raises here.  `construct` has one guard, the
singular-P test, `rk4_step` two, the flow's |det P| tests, and
`torsion_pass` none: its comparisons with the tolerance stay in
`torsion`.

What each node is written as, and a guard's comparison and the values
its message formats, is in one place: the table `SPELLING`, which also
names the module a kernel imports a function from.  Its entries write a
kernel that takes floats, or complex numbers where every comparison it
makes reads moduli and it calls no `math.sqrt`; each generated file's
docstring says which its kernel takes.  A second emission of the same
traces is the same table with entries replaced, set in place of
`SPELLING` while `generate` runs (a test does so and writes no file):
``("cmath", "sqrt")`` for "sqrt" and ``{0:4}.real`` for each operand of
"guard" and "value" give an `rk4_step` whose real parts, on complex
input, are the float kernel's.

The script imports ``nhflat.flow``, which imports the kernels it writes,
so a generated file that cannot be imported must be restored (from git)
before the script can run."""

from __future__ import annotations

import argparse
import builtins
import functools
import inspect
import math
import os
import sys
import textwrap
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from nhflat import flow, tolerance  # noqa: E402
from nhflat.errors import SingularStructureError  # noqa: E402
from nhflat.mat3 import cofactor9, det9, dot9, mul9, transpose9  # noqa: E402
from nhflat.structure import SINGULAR_DETP, _j_blocks9  # noqa: E402

# -- the composed forms --------------------------------------------------------


def _sum(terms):
    """t0 + t1 + ..., added left to right (`sum` may compensate)."""
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def composed_j_verdicts(a, b, q1, q2, p, det_p):
    """What the two J verdicts of a structure (a, b, Q1, Q2, P) read, as
    (j, A, B, C):

    j is (J^2)_11 + 1 (`NhfStructure.j_squared_residual` is |j|): row 1 of
    J^T times its column 1, from the blocks oo, oe, eo, ee of (det P) J^T
    (`structure._j_blocks9`), each entry divided by det P first, so that
    no (det P)^2 can underflow.  By Hitchin's identity L^2 = -bracket id
    for L = (det P) J^T, J^2 + id = (1 - bracket / (det P)^2) id, so this
    one entry is, up to rounding, the largest |entry| of J^2 + id.

    A, B, C are row-major 9-lists, the blocks [[A, B], [B^T, C]] of
    (det P)(g + g^T).  On the odd and on the even coframe indices
    W = [[0, P], [-P^T, 0]] and (det P) J = [[oo^T, eo^T], [oe^T, ee^T]],
    so they are

        P oe^T + oe P^T,   P ee^T - oo P,   -(P^T eo^T + eo P).

    They are linear in P, so P -> -P negates them exactly, but for the
    sign of a zero: `NhfStructure.metric_spd` negates them where det P < 0
    and passes the blocks of |det P| (g + g^T) to `mat3.is_spd9`."""
    oo, oe, eo, ee = _j_blocks9(a, b, q1, q2)
    row = [x / det_p for x in oo[0:3] + oe[0:3]]
    col = [x / det_p for x in oo[0::3] + eo[0::3]]
    x = mul9(p, transpose9(oe))
    y = mul9(transpose9(p), transpose9(eo))
    return (
        _sum([u * v for u, v in zip(row, col)]) + 1.0,
        [u + v for u, v in zip(x, transpose9(x))],
        [u - v for u, v in zip(mul9(p, transpose9(ee)), mul9(oo, p))],
        [-(u + v) for u, v in zip(y, transpose9(y))],
    )


def composed_bracket(a, b, q1, q2):
    """The normalization bracket of (a, b, Q1, Q2), with Q1, Q2 given as
    row-major 9-sequences: (det P)^2 equals it exactly when J^2 = -id.

        -(a b - tr(Q1^T Q2))^2 - 4 (a det Q2 + b det Q1) + 4 tr Adj(Q1^T Q2)"""
    g = mul9(transpose9(q1), q2)
    t = a * b - (g[0] + g[4] + g[8])
    c = cofactor9(g)  # its diagonal is that of Adj(g)
    return -(t * t) - 4 * (a * det9(q2) + b * det9(q1)) + 4 * (c[0] + c[4] + c[8])


def three_form_wedge_omega(m1, m2, x) -> list:
    """The 6 coefficients, in basis order, of the 5-form
    invariant_three_form(c135, c246, M1, M2) ^ build_omega(X), with M1, M2
    and X row-major 9-sequences; c135 and c246 drop out.  They are the
    entries above the diagonal of M1^T X - X^T M1 and of M2 X^T - X M2^T,
    with signs."""
    g = mul9(transpose9(m1), x)
    h = mul9(m2, transpose9(x))
    # with U = g - g^T, V = h - h^T, they are U01, -V01, -U02, V02, U12 and -V12
    return [g[1] - g[3], h[3] - h[1], g[6] - g[2], h[2] - h[6], g[5] - g[7], h[7] - h[5]]


def three_form_volume(x, y):
    """The e123456 coefficient of the wedge of the invariant 3-forms with
    20-lists x and y (see `structure.invariant_three_form`)."""
    return x[1] * y[0] - x[0] * y[1] + dot9(x[2:11], y[11:20]) - dot9(x[11:20], y[2:11])


def composed_bracket_hessian(a, b, q1, q2, y):
    """The second derivative D^2 lambda[y, y] of the normalization
    bracket lambda (`composed_bracket`) at (a, b, Q1, Q2) in the direction
    of the 20-list y = (ya, yb, Y1, Y2) (see `invariant_three_form`); 3x3
    data as row-major 9-sequences.  With g = Q1^T Q2, dg = Y1^T Q2 +
    Q1^T Y2, u = Y1^T Y2, h = a b - tr g and e = ya b + a yb - tr dg, by
    the product rule

        -2 e^2 - 4 h (ya yb - tr u) + 4 (tr dg)^2 + 8 tr g tr u
        - 4 tr(dg^2) - 8 tr(g u)
        - 8 (ya <Adj(Q2^T), Y2> + yb <Adj(Q1^T), Y1>
             + a <Q2, Adj(Y2^T)> + b <Q1, Adj(Y1^T)>),

    <X, Y> = tr(X^T Y), since D det(M)[Y] = <Adj(M^T), Y> and
    D^2 det(M)[Y, Y] = 2 <M, Adj(Y^T)>.  Written out, not by differences,
    which would lose the digits of the small factors.

    It is 2 vol(y ^ D F[y]), vol the e123456 coefficient and F = (A, B,
    R1, R2) of `flow.abr`, because vol(y ^ F(x)) = D lambda(x)[y] / 2:
    as in Hitchin's construction of the dual map gamma -> J gamma =
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
        -2 * e * e
        - 4 * h * (ya * yb - tu)
        + 4 * dt * dt
        + 8 * t * tu
        - 4 * dot9(dg, transpose9(dg))
        - 8 * dot9(g, transpose9(u))
        - 8 * (
            ya * dot9(cofactor9(q2), y2)
            + yb * dot9(cofactor9(q1), y1)
            + a * dot9(q2, cofactor9(y2))
            + b * dot9(q1, cofactor9(y1))
        )
    )


def composed_torsion_pass(lam, a, b, det_p, w1p, p, q1, q2, r1, r2, A, B, jg, sizes, adj_pt):
    """What the torsion pass computes, from a structure's values as
    `NhfStructure` holds them (the data of `composed_construct`): lambda,
    a, b, det P and w1+ (`NhfStructure.w1plus`), the row-major 9-lists P,
    Q1, Q2, R1 and R2 of `m9`, A and B, J gamma's 20-list jg
    (`jgamma_coords`), the six `sizes` and the 9-list Adj(P^T) of `m9`, as

        (y, w3 membership, |w3|^2, w3 = 0,
         X, w2- primitivity, |w2-|^2, w2- = 0, w1+ = 0, nearly Kahler):

    y is the 20-list (see `invariant_three_form`) of
    w3 = d(omega) - w1+ gamma - (3 lambda / 4) J gamma.
    d(omega) = invariant_three_form(0, 0, P, -P) exactly and J gamma is
    (2 / det P)(A, B, R1, R2) on gamma's slots, so with
    c = 3 lambda / (2 det P)

        e135: -w1+ a - c A,          de^{2i-1} ^ e^{2j}: P - w1+ Q1 - c R1,
        e246: -w1+ b - c B,          e^{2i-1} ^ de^{2j}: -P - w1+ Q2 - c R2.

    The size of w3's terms is that of d(omega), w1+ gamma and
    (3 lambda / 4) J gamma.  The w3 membership is the largest relative
    residual of w3 ^ omega = w3 ^ gamma = w3 ^ J gamma = 0 on coordinates
    (`three_form_wedge_omega` and `three_form_volume`, J gamma's read off
    jg), each divided by that size times the size of the form wedged with
    w3; |w3|^2 = -D^2 lambda[y, y] / (2 (det P)^2)
    (`composed_bracket_hessian`); and w3 = 0 is relative(y, size).

    X is the row-major 9-list of w2- = build_omega(X), from
    w2- ^ omega = t, t = d(J gamma) + (2/3) w1+ omega^2, by the explicit
    inverse of the Lefschetz map (see the `torsion` docstring),

        X = P T^T P / det P - (tr(T^T P) / (2 det P)) P,

    T = M1 + M2 - (4/3) w1+ Adj(P^T), (c, d, M1, M2) J gamma's 20-list jg.
    The w2- primitivity is the relative residual of w2- ^ gamma =
    w2- ^ omega^2 = 0 on coordinates, each divided by the size of X's
    terms times that of the form wedged with it; |w2-|^2 =
    -2 <Adj(X^T), P> / det P; and then come the relative residuals of
    w2- = 0, of w1+ = 0 (|w1+| / |lambda|) and of nearly Kahler, the
    larger of those of w1+ = 0 and w3 = 0, NaN if either is.  The size of
    X's terms is that of d(J gamma) and (2/3) w1+ omega^2 over |omega|, or
    X's own where it is larger: where w2- = 0, X is roundoff.

    It compares nothing with a tolerance, and leaves out the scalar
    curvature, whose lambda**2 raises OverflowError where a product would
    give inf: `torsion` does both."""
    n_gam, n_jg, n_p, _, _, _ = sizes
    max_abs, relative = tolerance.max_abs, tolerance.relative
    c = 1.5 * lam / det_p
    y = (
        [-w1p * a - c * A, -w1p * b - c * B]
        + [x - w1p * q - c * r for x, q, r in zip(p, q1, r1)]
        + [-x - w1p * q - c * r for x, q, r in zip(p, q2, r2)]
    )
    size = max(n_p, abs(w1p) * n_gam, 0.75 * abs(lam) * n_jg)
    membership = max(
        relative(three_form_wedge_omega(y[2:11], y[11:20], p), size * n_p),
        relative(three_form_volume(y, [a, b] + q1 + q2), size * n_gam),
        relative(three_form_volume(y, jg), size * n_jg),
    )
    norm3 = -composed_bracket_hessian(a, b, q1, q2, y) / (2.0 * det_p * det_p)
    w3_zero = relative(y, size)
    k = (4.0 / 3.0) * w1p
    t = [u + v - k * w for u, v, w in zip(jg[2:11], jg[11:20], adj_pt)]
    tau = dot9(t, p) / (2.0 * det_p)
    ptp = mul9(mul9(p, transpose9(t)), p)
    x = [u / det_p - tau * v for u, v in zip(ptp, p)]
    size = max(max_abs(x), max(n_jg, (2.0 / 3.0) * abs(w1p) * n_p * n_p) / n_p)
    primitivity = max(
        relative(three_form_wedge_omega(q1, q2, x), size * n_gam),
        relative(2.0 * dot9(x, adj_pt), size * n_p * n_p),
    )
    norm2 = -2.0 * dot9(cofactor9(x), p) / det_p
    w1p_zero = relative(w1p, lam)
    return (
        y, membership, norm3, w3_zero,
        x, primitivity, norm2, relative(x, size),
        w1p_zero, max_abs([w1p_zero, w3_zero]),
    )


def composed_construct(lam, a, b, p, q):
    """What building and checking the structure (lambda, a, b, P, Q)
    compute, with P and Q row-major 9-lists, as

        (det P, Adj(P^T), Q1, Q2, F, J gamma, sizes,
         r, (qtp_symmetry, normalization, jgamma_wedge_omega), j_squared, (A, B, C)):

    Q1 = Q - (lambda/2) Adj(P^T) and Q2 = -Q - (lambda/2) Adj(P^T) as
    row-major lists, F = (A, B, R1, R2) of `flow.abr` and
    J gamma = (2 / det P) F as 20-lists (see `invariant_three_form`),
    and the largest |entry| of gamma, J gamma, P, Q, Q1 and Q2 (the
    fields of `structure.Sizes`), each NaN if an entry is.

    Then what `NhfStructure.validate` reads: r is the list of the 10
    defining residuals (`NhfStructure.defining_residuals`): the 3 entries
    above the diagonal of Q^T P - P^T Q, (det P)^2 minus
    `composed_bracket`, and the 6 coefficients of J gamma ^ omega
    (`three_form_wedge_omega`), each divided by the size of the terms it
    compares, as `tolerance.relative` divides (of products, not powers: a
    float power raises on overflow where a product gives inf).  Then the
    largest |entry| of each of r's three blocks, NaN if an entry is, and
    |j| and the blocks A, B, C of `composed_j_verdicts`.

    Raises SingularStructureError, before it computes anything else, when
    |det P| <= SINGULAR_DETP max|P|^3: a test of the shape of P,
    independent of its scale."""
    det_p = det9(p)
    n_p = tolerance.max_abs(p)
    if tolerance.relative(det_p, n_p * n_p * n_p) <= SINGULAR_DETP:
        raise SingularStructureError(f"det P = {det_p} is singular")
    adj = list(cofactor9(p))
    h = 0.5 * lam
    q1 = [x - h * c for x, c in zip(q, adj)]
    q2 = [-x - h * c for x, c in zip(q, adj)]
    f = list(flow.abr(a, b, q1, q2))
    c = 2.0 / det_p
    jg = [c * x for x in f]
    max_abs = tolerance.max_abs
    n_q1, n_q2 = max_abs(q1), max_abs(q2)
    # gamma's coordinates are a, b, Q1 and Q2: NaN if one is, else the
    # largest, as over the 20 of them
    n_gam, n_jg, n_q = max_abs([a, b, n_q1, n_q2]), max_abs(jg), max_abs(q)
    sizes = (n_gam, n_jg, n_p, n_q, n_q1, n_q2)
    n_a, n_b = abs(a), abs(b)
    n_ab = n_a * n_b + n_q1 * n_q2  # a b - tr(Q1^T Q2)
    dp2 = det_p * det_p
    # Q^T P - P^T Q = G - G^T, G = Q^T P: zero on the diagonal and
    # antisymmetric, so its three entries above the diagonal
    g = mul9(transpose9(q), p)
    size = tolerance.term_size(n_q * n_p)
    r = [(g[1] - g[3]) / size, (g[2] - g[6]) / size, (g[5] - g[7]) / size]
    # (det P)^2 against each term of the bracket
    r.append((dp2 - composed_bracket(a, b, q1, q2)) / tolerance.term_size(
        dp2, n_ab * n_ab, n_a * n_q2 * n_q2 * n_q2, n_b * n_q1 * n_q1 * n_q1,
        n_q1 * n_q2 * n_q1 * n_q2,
    ))
    size = tolerance.term_size(n_jg * n_p)
    r += [x / size for x in three_form_wedge_omega(jg[2:11], jg[11:], p)]
    j, *blocks = composed_j_verdicts(a, b, q1, q2, p, det_p)
    return (
        det_p, adj, q1, q2, f, jg, sizes,
        r, (max_abs(r[:3]), abs(r[3]), max_abs(r[4:])), abs(j), tuple(blocks),
    )


def composed_pass(lam, sign, y, d, c):
    """One pass of `rk4_step`: the state z = y + c d and its y'
    (`flow.stage`), as (z, z')."""
    z = tuple(v + c * x for v, x in zip(y, d))
    return z, flow.stage(lam, sign, z)


def composed_rk4_step(lam, sign, y, dy, h):
    """One classical RK4 step of size h from the flat state y, whose y' is
    dy (the step's k1); returns the state it reaches and that state's y',
    the next step's k1, as (y_next, dy_next).  Its four passes evaluate
    the equations (`flow.stage`) at y + (h/2) k1, y + (h/2) k2,
    y + h k3 and y_next = y + (h/6)(k1 + 2 k2 + 2 k3 + k4), with the sum
    added left to right.  Raises SingularStructureError where a pass
    does."""
    half = 0.5 * h
    _, k2 = composed_pass(lam, sign, y, dy, half)
    _, k3 = composed_pass(lam, sign, y, k2, half)
    _, k4 = composed_pass(lam, sign, y, k3, h)
    total = [d1 + 2 * d2 + 2 * d3 + d4 for d1, d2, d3, d4 in zip(dy, k2, k3, k4)]
    return composed_pass(lam, sign, y, total, h / 6.0)


# -- the kernels ----------------------------------------------------------------

def nine(prefix):
    """The names prefix00 ... prefix22 of a row-major 3x3 matrix's entries."""
    return tuple(f"{prefix}{i}{j}" for i in range(3) for j in range(3))


#: The names of a flat flow state's entries, a, b, Q1 = (u..), Q2 = (v..).
STATE = ("a", "b", *nine("u"), *nine("v"))


class Kernel(NamedTuple):
    """A kernel to generate: its name, its composed form and the form's
    parameters, each a scalar's name or (name, entries) for a sequence,
    which the kernel takes and unpacks, calling its entries by the names
    in `entries`."""

    name: str
    form: object
    params: tuple


class Module(NamedTuple):
    """A generated file: its path under the repository root, its
    docstring and its kernel, a `Kernel` or `RK4_STEP`; it imports what
    its kernel uses."""

    path: str
    doc: str
    kernel: Kernel


#: The RK4 step is `composed_pass` traced once and emitted inside a loop
#: over its four passes (`emit_rk4_step`).
RK4_STEP = Kernel(
    "rk4_step",
    composed_pass,
    ("lam", "sign", ("y", STATE), ("dy", tuple("d" + x for x in STATE)), "c"),
)

# -- tracing --------------------------------------------------------------------


class TraceError(TypeError):
    """A composed form that cannot be written as a kernel."""


def _arithmetic(op):
    """The methods x op y and y op x of a traced value x."""
    return (lambda x, y: x.graph.op(op, x, y)), (lambda x, y: x.graph.op(op, y, x))


def _comparison(op):
    """The method x op y of a traced value x: a guard's comparison."""
    return lambda x, y: Cond(x.graph, op, x, y)


class Sym:
    """A traced value: node `id` of `graph`."""

    __slots__ = ("graph", "id")

    def __init__(self, graph, id):
        self.graph, self.id = graph, id

    __add__, __radd__ = _arithmetic("+")
    __sub__, __rsub__ = _arithmetic("-")
    __mul__, __rmul__ = _arithmetic("*")
    __truediv__, __rtruediv__ = _arithmetic("/")
    __lt__, __le__, __gt__, __ge__, __eq__, __ne__ = map(
        _comparison, ("<", "<=", ">", ">=", "==", "!=")
    )
    __hash__ = None

    def __neg__(self):
        return self.graph.node(("neg", self.id))

    def __abs__(self):
        return self.graph.node(("abs", self.id))

    def __format__(self, spec):
        # a marker that `emit` writes back as {value:spec}
        return f"\0{self.id}:{spec}\0"

    def __bool__(self):
        raise TraceError("a kernel has no branch on a traced value but a guard")


class Cond:
    """A comparison (op, x, y) of traced values; its truth is a guard."""

    __slots__ = ("graph", "key")

    def __init__(self, graph, op, x, y):
        self.graph, self.key = graph, (op, graph.operand(x), graph.operand(y))

    def __bool__(self):
        return self.graph.guard(self.key)


class Graph:
    """The nodes of a trace, in the order they were made: ("in", name),
    ("const", repr of a float), ("neg", x), ("abs", x), ("sqrt", x),
    (op, x, y), ("max", x, y, ...) or ("max_abs", x, y, ...), x, y, ...
    node ids; and its guards, each (position, cond), the number of nodes
    made before it and its comparison (op, x, y).  Only the guard
    numbered `take` is true.

    The two n-ary nodes are the two rules by which the package takes a
    largest value.  "max" is the builtin `max`'s (and `tolerance.
    term_size`'s): the first of the largest values, a NaN if it comes
    first, since no value is > NaN.  "max_abs" is `tolerance.max_abs`'s:
    NaN if any operand is NaN, else the largest; its operands are moduli
    ("abs" nodes), >= 0 or NaN."""

    def __init__(self, take=None):
        self.nodes, self.ids, self.guards, self.take = [], {}, [], take

    def node(self, key) -> Sym:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.nodes)
            self.nodes.append(key)
        return Sym(self, i)

    def operand(self, x) -> int:
        if isinstance(x, Sym):
            return x.id
        # an int past 2**53 may have no exact float, and past the largest none
        if type(x) not in (int, float) or not abs(x) <= sys.float_info.max or float(x) != x:
            raise TraceError(f"a kernel constant must be a finite float, not {x!r}")
        return self.node(("const", repr(float(x)))).id

    def op(self, op, x, y) -> Sym:
        return self.node((op, self.operand(x), self.operand(y)))

    def largest(self, op, xs) -> Sym:
        """The n-ary node ("max" or "max_abs") of the values xs; the value
        itself if there is one."""
        ids = tuple(self.operand(x) for x in xs)
        return Sym(self, ids[0]) if len(ids) == 1 else self.node((op, *ids))

    def guard(self, cond) -> bool:
        self.guards.append((len(self.nodes), cond))
        return len(self.guards) - 1 == self.take


class Guard(NamedTuple):
    """A guard of a trace: where it is, its comparison, and the class and
    message of the exception its branch raises."""

    position: int
    cond: tuple
    error: type
    message: str


def _traced(x) -> bool:
    """Whether x, a value or a list of values, is or holds a traced value."""
    return any(isinstance(v, Sym) for v in (x if type(x) is list else [x]))


def _run(kernel, graph):
    """The kernel's composed form run on the graph's inputs, with
    `math.sqrt`, the builtin `max`, `tolerance.max_abs` and
    `tolerance.term_size` of traced values nodes.  `term_size(*terms)` is
    the "max" of the terms' sizes and 1e-300, as the function takes it.
    Nothing of `flow` is rebound: `flow.stage` and `flow.abr` run here as
    they run at run time."""
    args = [
        graph.node(("in", p)) if isinstance(p, str)
        else [graph.node(("in", name)) for name in p[1]]
        for p in kernel.params
    ]
    sqrt, largest = math.sqrt, builtins.max
    max_abs, term_size = tolerance.max_abs, tolerance.term_size

    def traced_sqrt(x):
        return graph.node(("sqrt", x.id)) if isinstance(x, Sym) else sqrt(x)

    def traced_max(*xs, **options):
        values = list(xs[0] if len(xs) == 1 else xs)
        if not _traced(values):
            return largest(values, **options)
        if options:
            raise TraceError("a kernel's max takes its values, and no option")
        return graph.largest("max", values)

    def traced_max_abs(x):
        if isinstance(x, Sym):
            return abs(x)
        if type(x) is list and _traced(x):
            return graph.largest("max_abs", [abs(v) for v in x])
        return max_abs(x)

    def traced_term_size(*terms):
        if not any(map(_traced, terms)):
            return term_size(*terms)
        return graph.largest("max", [traced_max_abs(t) for t in terms] + [1e-300])

    bound = (
        (math, "sqrt", traced_sqrt),
        (builtins, "max", traced_max),
        (tolerance, "max_abs", traced_max_abs),
        (tolerance, "term_size", traced_term_size),
    )
    saved = [(module, name, getattr(module, name)) for module, name, _ in bound]
    for module, name, value in bound:
        setattr(module, name, value)
    try:
        return kernel.form(*args)
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def _raised(kernel, i) -> Guard:
    """Guard i of the kernel's trace, read by taking its branch."""
    graph = Graph(take=i)
    try:
        _run(kernel, graph)
    except TraceError:
        raise
    except Exception as exc:
        if len(graph.guards) == i + 1 and len(graph.nodes) == graph.guards[i][0]:
            return Guard(*graph.guards[i], type(exc), str(exc))
    raise TraceError(f"the branch of guard {i} of {kernel.name} must raise, computing nothing")


def trace(kernel):
    """The graph of the kernel's composed form, with its guards, and the
    form's result, with every traced value in place."""
    graph = Graph()
    result = _run(kernel, graph)
    graph.guards = [_raised(kernel, i) for i in range(len(graph.guards))]
    return graph, result


def _leaves(result):
    if isinstance(result, Sym):
        return [result]
    return [leaf for item in result for leaf in _leaves(item)]


# -- emitting -------------------------------------------------------------------

UNARY, ATOM = 3, 4
#: What each node kind is written as: its precedence (sums 1, products 2,
#: then UNARY and ATOM) and a `str.format` template, with the (module,
#: name) a kernel imports for it, if any.  The template's fields are the
#: operands, each spec the least precedence it is written with unbracketed;
#: {args}, all operands joined by ", "; {sum}, their sum by the "+" entry;
#: and a guard's {op}.  A negative constant is the "neg" of its modulus.
#: "guard" writes a guard's comparison, and "value" each value its message
#: formats.
SPELLING = {
    "in": (ATOM, "{0}"),
    "const": (ATOM, "{0}"),
    "neg": (UNARY, "-{0:4}"),
    "+": (1, "{0:1} + {1:2}"),  # the operators group from the left
    "-": (1, "{0:1} - {1:2}"),
    "*": (2, "{0:2} * {1:3}"),
    "/": (2, "{0:2} / {1:3}"),
    "abs": (ATOM, "abs({0})"),
    "sqrt": (ATOM, "sqrt({0})", ("math", "sqrt")),
    "max": (ATOM, "max({args})"),
    # the operands are >= 0 or NaN, so their sum, added left to right, is
    # NaN exactly when one is, and else at least the largest: `min` keeps
    # it only if it is NaN
    "max_abs": (ATOM, "min({sum}, max({args}))"),
    "guard": (None, "{0} {op} {1}"),
    "value": (None, "{0}"),
}


class Written(NamedTuple):
    """A value as a kernel writes it, and its precedence; formatted with
    a precedence as its spec, it is bracketed if it binds less tightly."""

    text: str
    prec: int

    def __format__(self, spec):
        return self.text if self.prec >= int(spec or 0) else f"({self.text})"


def spell(kind, operands, op=None) -> Written:
    """A node of `kind` over the written operands, as SPELLING writes it."""
    prec, template = SPELLING[kind][:2]
    fields = {"args": ", ".join(map(format, operands)), "op": op}
    if "{sum}" in template:
        fields["sum"] = functools.reduce(lambda x, y: spell("+", [x, y]), operands).text
    return Written(template.format(*operands, **fields), prec)


def _message_parts(message):
    """The literal text and the (node, format spec) pairs of a message, in
    turn: literal, pair, literal, ..."""
    parts = message.split("\0")
    pairs = [part.split(":", 1) for part in parts[1::2]]
    return parts[0::2], [(int(i), spec) for i, spec in pairs]


def _operands(key) -> tuple:
    """The ids of the nodes that node `key` reads."""
    return () if key[0] in ("in", "const") else key[1:]


def _body(graph, roots, indent):
    """The lines that compute a trace's nodes reachable from `roots` (node
    ids) and from its guards, at `indent`, with each value used more than
    once named and each guard in place; `ref`, which writes a node as a
    name or an expression, with its precedence; and the modules whose
    names the lines use, as {module: names}."""
    nodes, guards = graph.nodes, graph.guards
    # each use of a node by another reachable node, by a guard or by a root
    stack = list(roots)
    for g in guards:
        stack += [g.cond[1], g.cond[2]] + [i for i, _ in _message_parts(g.message)[1]]
    uses = [0] * len(nodes)
    for i in stack:
        uses[i] += 1
    seen = set()
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        # an operand is used as often as the node's spelling writes it
        marks = [Written(f"\0{k}\0", ATOM) for k in range(len(nodes[i]) - 1)]
        text = spell(nodes[i][0], marks).text
        for k, j in enumerate(_operands(nodes[i])):
            uses[j] += text.count(f"\0{k}\0")
            stack.append(j)
    names, imports = {}, {}

    def expr(i):
        """Node i as a kernel writes it."""
        kind, *args = nodes[i]
        if kind in ("in", "const"):  # a name, or a float's repr
            leaf = spell(kind, [Written(args[0].lstrip("-"), ATOM)])
            return spell("neg", [leaf]) if args[0].startswith("-") else leaf
        for module, name in SPELLING[kind][2:]:
            imports.setdefault(module, set()).add(name)
        return spell(kind, [ref(j) for j in args])

    def ref(i):
        return Written(names[i], ATOM) if i in names else expr(i)

    pad = " " * indent
    lines, pending = [], list(guards)

    def place_guards(before):
        while pending and pending[0].position <= before:
            g = pending.pop(0)
            error = g.error
            if error.__module__ != "builtins":
                imports.setdefault(error.__module__, set()).add(error.__name__)
            text, pairs = _message_parts(g.message)
            if any(i >= g.position for i, _ in pairs):
                raise TraceError("a message may only show values computed before its guard")
            fields = [
                t.replace("\\", "\\\\").replace('"', '\\"').replace("{", "{{").replace("}", "}}")
                for t in text
            ]
            for k, (i, spec) in enumerate(pairs):
                value = spell("value", [ref(i)]).text
                fields[k] += "{" + value + (":" + spec if spec else "") + "}"
            message = ("f" if pairs else "") + '"' + "".join(fields) + '"'
            cond = spell("guard", [ref(i) for i in g.cond[1:]], g.cond[0])
            lines.append(f"{pad}if {cond.text}:")
            raise_line = f"{pad}    raise {error.__name__}({message})"
            if len(raise_line) > 99:
                raise_line = (
                    f"{pad}    raise {error.__name__}(\n{pad}        {message}\n{pad}    )"
                )
            lines.append(raise_line)

    for i in sorted(seen):
        if uses[i] > 1 and nodes[i][0] not in ("in", "const"):
            place_guards(i)
            text = expr(i).text
            names[i] = f"t{len(names)}"
            lines.append(f"{pad}{names[i]} = {text}")
    place_guards(len(nodes))

    def inputs(i):
        """The inputs that node i, written as `ref` writes it, reads."""
        if i in names:
            return set()
        if nodes[i][0] == "in":
            return {nodes[i][1]}
        return set().union(*(inputs(j) for j in _operands(nodes[i])))

    return lines, ref, inputs, imports


def _assign(groups, value, indent):
    """`name, ... = value` at `indent`, the names in groups, one group to
    a line if one line is wider than 99 characters."""
    pad = " " * indent
    line = f"{pad}{', '.join(n for g in groups for n in g)} = {value}"
    if len(line) <= 99:
        return [line]
    rows = [", ".join(g) for g in groups]
    return (
        [f"{pad}({rows[0]},"]
        + [f"{pad} {row}," for row in rows[1:-1]]
        + [f"{pad} {rows[-1]}) = {value}"]
    )


def _groups(entries):
    """Entry names in rows: the leading scalars, then each 3x3 matrix's."""
    k = len(entries) % 9
    return ([list(entries[:k])] if k else []) + [
        list(entries[i:i + 9]) for i in range(k, len(entries), 9)
    ]


def _signature(kernel):
    """The head of the kernel's function and the lines that unpack its
    sequence parameters."""
    names, unpack = [], []
    for p in kernel.params:
        if isinstance(p, str):
            names.append(p)
            continue
        name, entries = p
        names.append(name)
        unpack += _assign(_groups(entries), name, 4)
    return f"def {kernel.name}({', '.join(names)}):", unpack


def _returned(item, ref, indent):
    """The lines of a nested result, each traced value written as `ref`
    writes it, and each list of the result a list."""
    pad = " " * indent
    if isinstance(item, Sym):
        return [f"{pad}{ref(item.id).text},"]
    brackets = "[]" if isinstance(item, list) else "()"
    lines = [f"{pad}{brackets[0]}"]
    for x in item:
        lines += _returned(x, ref, indent + 4)
    return lines + [f"{pad}{brackets[1]},"]


def _docstring(form):
    """The lines of a kernel's docstring: the form's, indented by 4 whatever
    the Python version (3.13 strips the indent as it compiles); none for a
    form without one."""
    if form.__doc__ is None:
        return []
    doc = textwrap.indent(inspect.cleandoc(form.__doc__), "    ")
    return [f'    """{doc.lstrip()}"""']


def emit(kernel):
    """The source of the kernel's function and the modules whose names it
    uses, as {module: names}."""
    graph, result = trace(kernel)
    body, ref, _, imports = _body(graph, [s.id for s in _leaves(result)], 4)
    head, unpack = _signature(kernel)
    ret = _returned(result, ref, 4)
    ret[0], ret[-1] = "    return (", "    )"
    return "\n".join([head, *_docstring(kernel.form)] + unpack + body + ret) + "\n", imports


def emit_rk4_step(kernel):
    """The source of `rk4_step(lam, sign, y, dy, h)`, the form of
    `composed_rk4_step`, and the modules whose names it uses.

    The body of one pass (`composed_pass`, traced) is written once, in a
    loop over the passes' (c, w): (h/2, 2.0), (h/2, 2.0), (h, 1.0) and
    (h/6, None).  Each pass evaluates the equations at y + c d, with d
    the direction the pass before left (k1 = dy for the first), stores
    the y' it finds (k2, k3, k4) as the next direction and adds w times
    it to the sum k1 + 2 k2 + 2 k3 + k4; the third pass leaves the sum as
    the direction of the fourth, which is at y_next and returns it with
    its y'.  A kernel that unrolled the passes would have a name for
    each value of each pass, past the 256 locals a function reads
    without an extended opcode, and be slower."""
    graph, (z, dz) = trace(kernel)
    d = kernel.params[3][1]
    s = tuple("s" + x for x in STATE)
    body, ref, inputs, imports = _body(graph, [v.id for v in z + dz], 8)
    # the directions are overwritten from the first y' on, so nothing
    # after the named values may read them
    if any(inputs(v.id) & set(d) for v in dz) or any(ref(v.id).prec != ATOM for v in z):
        raise TraceError("a pass must name its state before it writes a direction")
    lines = [
        "def rk4_step(lam, sign, y, dy, h):",
        *_docstring(composed_rk4_step),
        *_signature(kernel)[1],  # y and dy
        *_assign(_groups(s), "dy", 4),
        "    half = 0.5 * h",
        "    for c, w in ((half, 2.0), (half, 2.0), (h, 1.0), (h / 6.0, None)):",
        *body,
        *[f"        {x} = {ref(v.id).text}" for x, v in zip(d, dz)],
        "        if w is None:",
        "            return (",
        *[f"                {', '.join(row)}," for row in _groups([ref(v.id).text for v in z])],
        "            ), (",
        *[f"                {', '.join(row)}," for row in _groups(d)],
        "            )",
        *[f"        {x} += w * {k}" for x, k in zip(s, d)],
        "        if w == 1.0:",
        *[f"            {x} = {k}" for x, k in zip(d, s)],
    ]
    return "\n".join(lines) + "\n", imports


KERNELS_DOC = '''\
"""The straight-line kernel `construct` of a structure.  GENERATED by
tools/gen_kernels.py from `composed_construct` there, bit for bit, over
the `mat3` helpers, F = `flow.abr` and the `tolerance` rules of a
largest value: do not edit.  To change the kernel, change its composed
forms or `flow.abr` and run

    python tools/gen_kernels.py

Only `nhflat.structure` imports this module: `NhfStructure` makes one
call of `construct` as it is built.  `construct` takes floats, or
complex numbers in any of its inputs (the root-solve sampler's complex
step), since its one guard and its largest values compare moduli and it
calls no `math.sqrt`.  Every constant is written as a float, so on
``fractions.Fraction`` input only the composed forms, which keep their
integer constants, are exact."""
'''

FLOW_KERNELS_DOC = '''\
"""The flow's straight-line kernel `rk4_step`.  GENERATED by
tools/gen_kernels.py from `composed_rk4_step` there, bit for bit, whose
four stages are the hand-written `flow.stage` (over `flow._recover9` and
F = `flow.abr`): do not edit.  To change the kernel, change `flow.stage`,
`flow._recover9` or `flow.abr` and run

    python tools/gen_kernels.py

Only `nhflat.flow` imports this module, so that a process that builds
and checks structures does not compile it.  `rk4_step` takes floats
only: its guards compare |det P| with the threshold, and it calls
`math.sqrt`.  Every constant is written as a float."""
'''

TORSION_KERNELS_DOC = '''\
"""The straight-line kernel `torsion_pass` of the torsion pass.  GENERATED
by tools/gen_kernels.py from `composed_torsion_pass` there, bit for bit,
over the `mat3` helpers and the `tolerance` rules of a largest value: do
not edit.  To change the kernel, change its composed forms and run

    python tools/gen_kernels.py

Only `nhflat.torsion` imports this module, whose `extract_torsion`,
`classify`, `w3_form` and `w2_minus_form` each make one call of
`torsion_pass`, so that `flow`, `family` and a `check` of an invalid
record do not compile it.  `torsion_pass` takes floats, or complex
numbers in any input, since it has no guard and its largest values
compare moduli.  Every constant is written as a float."""
'''


MODULES = (
    Module(
        os.path.join("src", "nhflat", "_kernels.py"),
        KERNELS_DOC,
        Kernel(
            "construct",
            composed_construct,
            ("lam", "a", "b", ("p", nine("p")), ("q", nine("q"))),
        ),
    ),
    Module(
        os.path.join("src", "nhflat", "_flow_kernels.py"),
        FLOW_KERNELS_DOC,
        RK4_STEP,
    ),
    Module(
        os.path.join("src", "nhflat", "_torsion_kernels.py"),
        TORSION_KERNELS_DOC,
        Kernel(
            "torsion_pass",
            composed_torsion_pass,
            (
                "lam", "a", "b", "det_p", "w1p",
                ("p", nine("p")), ("q1", nine("u")), ("q2", nine("v")),
                ("r1", nine("r")), ("r2", nine("s")), "A", "B",
                ("jg", ("jc", "jd", *nine("j"), *nine("k"))),
                ("sizes", ("n_gam", "n_jg", "n_p", "n_q", "n_q1", "n_q2")),
                ("adj_pt", nine("c")),
            ),
        ),
    ),
)


def generate(module) -> str:
    """The source of the module's file."""
    kernel = module.kernel
    source, used = emit_rk4_step(kernel) if kernel is RK4_STEP else emit(kernel)
    # the standard library first, then the package, as isort orders them
    blocks = [
        f"from {name} import {', '.join(sorted(used[name]))}\n"
        for name in sorted(used, key=lambda n: (n.startswith("nhflat"), n))
    ]
    head = module.doc + ("\n" + "\n".join(blocks) if blocks else "")
    return head + "\n\n" + source


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1, writing nothing, if a file is not what this script writes",
    )
    args = parser.parse_args(argv)
    stale = []
    for module in MODULES:
        path, source = os.path.join(ROOT, module.path), generate(module)
        if not args.check:
            with open(path, "w") as fh:
                fh.write(source)
            continue
        with open(path) as fh:
            if fh.read() != source:
                stale.append(module.path)
    for path in stale:
        print(f"{path} is not current; run: python tools/gen_kernels.py", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
