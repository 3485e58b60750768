"""Generate ``src/nhflat/_kernels.py``, the package's straight-line
kernels, from the composed forms in this file.

    python tools/gen_kernels.py          # write src/nhflat/_kernels.py
    python tools/gen_kernels.py --check  # exit 1 if that file is not current

A composed form is plain Python over the `mat3` helpers.  `trace` runs it
once on symbolic values: each +, -, *, / and unary - it computes becomes a
node of an expression graph, and an operation already made on the same
operands, in the same order, is the node made then.  `emit` writes the
graph as one function: a value used more than once gets a name, the rest
are written inline, each with the grouping of the trace.  No operand is
reordered and every constant keeps its type, so a kernel rounds as its
composed form does, to the last bit, and is exact on
``fractions.Fraction`` input wherever the composed form is.  A kernel has
no branch: a comparison or ``abs`` of a traced value raises here.

The script imports ``nhflat.structure``, which imports the kernels it
writes, so a ``_kernels.py`` that cannot be imported must be restored
(from git) before the script can run."""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join(ROOT, "src", "nhflat", "_kernels.py")
sys.path.insert(0, os.path.join(ROOT, "src"))

from nhflat.mat3 import cofactor9, det9, mul9, transpose9  # noqa: E402
from nhflat.structure import _j_blocks9  # noqa: E402

# -- the composed forms --------------------------------------------------------


def composed_abr(a, b, q1, q2):
    """F = (A, B, R1, R2) of gamma as a 20-tuple, with gamma and F in the
    coordinate layout of `invariant_three_form`: a, b, then Q1 = (u..) and
    Q2 = (v..) row-major, and A, B, then R1 and R2 row-major:

        A  =   a tr(Q1^T Q2) - 2 det Q1 - a^2 b
        B  = -(b tr(Q1^T Q2) - 2 det Q2 - a b^2)
        R1 = -((a b + tr(Q1^T Q2)) Q1 - 2 a Adj(Q2^T) - 2 Q1 Q2^T Q1)
        R2 =   (a b + tr(Q1^T Q2)) Q2 - 2 b Adj(Q1^T) - 2 Q2 Q1^T Q2

    J gamma = (2 / det P) F, and the flow's evolution equations
    gamma' = d omega - lambda J gamma read F too, so construction and the
    RK4 stage `flow._stage` both call it.  Uses only +, - and *, so it is
    exact on ``fractions.Fraction`` input."""
    g = mul9(transpose9(q1), q2)  # Q1^T Q2
    tr12 = g[0] + g[4] + g[8]
    s = a * b + tr12
    ta, tb = 2 * a, 2 * b
    # Q1 Q2^T Q1 = Q1 g^T and Q2 Q1^T Q2 = Q2 g
    r1 = [
        -(s * x - ta * c - 2 * w)
        for x, c, w in zip(q1, cofactor9(q2), mul9(q1, transpose9(g)))
    ]
    r2 = [s * x - tb * c - 2 * w for x, c, w in zip(q2, cofactor9(q1), mul9(q2, g))]
    return (
        a * tr12 - 2 * det9(q1) - a * a * b,
        -(b * tr12 - 2 * det9(q2) - a * b * b),
        *r1,
        *r2,
    )


def _sum(terms):
    """t0 + t1 + ..., added left to right (`sum` may compensate)."""
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def composed_j_verdicts(a, b, q1, q2, p, det_p):
    """What the two J verdicts of a structure (a, b, Q1, Q2) read, with P
    taken times the sign of det P (`p`), as (j, A, B, C):

    j is (J^2)_11 + 1 (`NhfStructure.j_squared_residual` is |j|): row 1 of
    J^T times its column 1, from the blocks oo, oe, eo, ee of (det P) J^T
    (`structure._j_blocks9`), each entry divided by det P first, so that
    no (det P)^2 can underflow.  By Hitchin's identity L^2 = -bracket id
    for L = (det P) J^T, J^2 + id = (1 - bracket / (det P)^2) id, so this
    one entry is, up to rounding, the largest |entry| of J^2 + id.

    A, B, C are row-major 9-tuples, the blocks [[A, B], [B^T, C]] of
    |det P| (g + g^T) that `NhfStructure.metric_spd` passes to
    `mat3.is_spd9`.  On the odd and on the even coframe indices
    W = [[0, P], [-P^T, 0]] and (det P) J = [[oo^T, eo^T], [oe^T, ee^T]],
    so (det P)(g + g^T) has the blocks

        P oe^T + oe P^T,   P ee^T - oo P,   -(P^T eo^T + eo P)."""
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


class Kernel(NamedTuple):
    """A kernel to generate: its name, its composed form and the form's
    parameters, each a scalar's name or (name, prefix) for a row-major
    9-sequence whose entries are called prefix00 ... prefix22 in the
    kernel.  With `flat`, those entries are the kernel's parameters; else
    it takes the sequence and unpacks it."""

    name: str
    form: object
    params: tuple
    flat: bool


KERNELS = (
    Kernel("abr", composed_abr, ("a", "b", ("q1", "u"), ("q2", "v")), True),
    Kernel(
        "j_verdicts",
        composed_j_verdicts,
        ("a", "b", ("q1", "u"), ("q2", "v"), ("p", "p"), "det_p"),
        False,
    ),
)

# -- tracing --------------------------------------------------------------------

ENTRIES = [f"{i}{j}" for i in range(3) for j in range(3)]


class Sym:
    """A traced value: node `id` of `graph`."""

    __slots__ = ("graph", "id")

    def __init__(self, graph, id):
        self.graph, self.id = graph, id

    def __add__(self, other):
        return self.graph.op("+", self, other)

    def __radd__(self, other):
        return self.graph.op("+", other, self)

    def __sub__(self, other):
        return self.graph.op("-", self, other)

    def __rsub__(self, other):
        return self.graph.op("-", other, self)

    def __mul__(self, other):
        return self.graph.op("*", self, other)

    def __rmul__(self, other):
        return self.graph.op("*", other, self)

    def __truediv__(self, other):
        return self.graph.op("/", self, other)

    def __rtruediv__(self, other):
        return self.graph.op("/", other, self)

    def __neg__(self):
        return self.graph.node(("neg", self.id))

    def __bool__(self):
        raise TypeError("a kernel has no branch on a traced value")


class Graph:
    """The nodes of a trace, in the order they were made: ("in", name),
    ("const", type, repr), ("neg", x) or (op, x, y), x and y node ids."""

    def __init__(self):
        self.nodes, self.ids = [], {}

    def node(self, key) -> Sym:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.nodes)
            self.nodes.append(key)
        return Sym(self, i)

    def operand(self, x) -> int:
        if isinstance(x, Sym):
            return x.id
        if type(x) not in (int, float) or x != x or x in (float("inf"), float("-inf")):
            raise TypeError(f"a kernel constant must be a finite int or float, not {x!r}")
        return self.node(("const", type(x).__name__, repr(x))).id

    def op(self, op, x, y) -> Sym:
        return self.node((op, self.operand(x), self.operand(y)))


def trace(kernel):
    """The graph of the kernel's composed form and its result, with every
    traced value in place."""
    graph = Graph()
    args = [
        graph.node(("in", p)) if isinstance(p, str)
        else [graph.node(("in", p[1] + ij)) for ij in ENTRIES]
        for p in kernel.params
    ]
    return graph, kernel.form(*args)


def _leaves(result):
    if isinstance(result, Sym):
        return [result]
    return [leaf for item in result for leaf in _leaves(item)]


# -- emitting -------------------------------------------------------------------

PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
UNARY, ATOM = 3, 4


def emit(kernel) -> str:
    """The source of the kernel's function."""
    graph, result = trace(kernel)
    nodes = graph.nodes
    # each use of a node by another reachable node or by the result
    uses = [0] * len(nodes)
    stack = [leaf.id for leaf in _leaves(result)]
    for i in stack:
        uses[i] += 1
    seen = set()
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        for j in nodes[i][1:] if nodes[i][0] not in ("in", "const") else ():
            uses[j] += 1
            stack.append(j)
    names = {}

    def expr(i):
        """Node i as an expression and its precedence."""
        key = nodes[i]
        if key[0] == "in":
            return key[1], ATOM
        if key[0] == "const":
            return key[2], UNARY if key[2].startswith("-") else ATOM
        if key[0] == "neg":
            text, prec = ref(key[1])
            return "-" + (text if prec > UNARY else f"({text})"), UNARY
        op, x, y = key
        (left, lp), (right, rp) = ref(x), ref(y)
        if lp < PREC[op]:
            left = f"({left})"
        if rp <= PREC[op]:  # the operators group from the left
            right = f"({right})"
        return f"{left} {op} {right}", PREC[op]

    def ref(i):
        return (names[i], ATOM) if i in names else expr(i)

    # the parameters in groups, for a signature too long for one line:
    # the scalars next to each other, and each flat 9-sequence
    groups, body = [[]], []
    for p in kernel.params:
        if isinstance(p, str):
            groups[-1].append(p)
            continue
        name, prefix = p
        entries = [prefix + ij for ij in ENTRIES]
        if kernel.flat:
            groups += [entries, []]
        else:
            groups[-1].append(name)
            body.append(f"    {', '.join(entries)} = {name}")
    sig = [", ".join(g) for g in groups if g]
    for i in sorted(seen):
        if uses[i] > 1 and nodes[i][0] not in ("in", "const"):
            text = expr(i)[0]
            names[i] = f"t{len(names)}"
            body.append(f"    {names[i]} = {text}")

    def returned(item, indent):
        pad = " " * indent
        if isinstance(item, Sym):
            return [f"{pad}{ref(item.id)[0]},"]
        lines = [f"{pad}("]
        for x in item:
            lines += returned(x, indent + 4)
        return lines + [f"{pad}),"]

    ret = returned(result, 4)
    ret[0], ret[-1] = "    return (", "    )"
    head = f"def {kernel.name}({', '.join(sig)}):"
    if len(head) > 99:
        head = f"def {kernel.name}(\n        " + ",\n        ".join(sig) + "):"
    doc = kernel.form.__doc__
    return "\n".join([head, f'    """{doc}"""'] + body + ret) + "\n"


HEADER = '''\
"""Straight-line kernels of the package.  GENERATED by tools/gen_kernels.py
from the composed forms there, over the `mat3` helpers: do not edit.  To
change a kernel, change its composed form and run

    python tools/gen_kernels.py

Each kernel computes what its composed form computes, with the same
operations on the same operands in the same order, so the results agree
to the last bit."""
'''


def generate() -> str:
    """The source of ``_kernels.py``."""
    return "\n\n".join([HEADER] + [emit(k) for k in KERNELS])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1, writing nothing, if the file is not what this script writes",
    )
    args = parser.parse_args(argv)
    source = generate()
    if not args.check:
        with open(TARGET, "w") as fh:
            fh.write(source)
        return 0
    with open(TARGET) as fh:
        if fh.read() == source:
            return 0
    print(
        f"{os.path.relpath(TARGET, ROOT)} is not current; run: python tools/gen_kernels.py",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
