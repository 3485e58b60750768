"""Two exact discrete symmetries of the equations, pinned bit for bit.

Both act on records (lambda, a, b, P, Q):

* N: P -> -P.  Adj(P^T) is quadratic in P, so Q1 = Q - (lambda/2)
  Adj(P^T), Q2 and the flow's state y = (a, b, Q1, Q2) are fixed, and so
  is F = (A, B, R1, R2).  det P changes sign, and with it the
  orientation, w1+ = tr(P^T R) / (2 (det P)^2), and y' = e F + (0, 0, P,
  -P) with e = -2 lambda / det P.
* L: (lambda, a, b, Q) -> (-lambda, -a, -b, -Q).  Q1, Q2 and y change
  sign, and so does F, which is cubic in y; P, det P and Adj(P^T) =
  -(Q1 + Q2) / lambda are fixed.  e changes sign, so y' is fixed and
  w1+ changes sign.

Each map therefore reverses the flow's time: the flow of N s at -t is N of
the flow of s at t, and likewise for L.  Along the way every rounded
operation meets either its operands or their negatives, and rounding
commutes with x -> -x, so the images agree to the bit: the validity
residuals and verdicts, the failing sets, the torsion class with its
residuals, and s are identical, and w1+, y' and the flow's rows change
sign as the map says.  Floats are compared with ==, which takes 0.0 and
-0.0 as equal: the map sends a zero to a zero of the other sign, which
the computation need not reproduce.  The inner products of the checks
and of s are `mat3.dot9`, so a fold there that is not odd in its terms
fails here too.

The inputs are the 70 seeded samples and the five golden records of
``tests/data/cli_golden``.  When this module was written, no record or
flow differed from its image under either map; 13 of the 19 flows below
halted, at -t with the same message up to the sign of det P.  The other
two maps of ROADMAP item 15, S and T, reorder operands and hold only to
rounding; they are not pinned here."""

import json
import os

import pytest

from nhflat import flow
from nhflat.structure import NhfStructure
from nhflat.torsion import extract_torsion
from test_cli_golden import FAMILIES, GOLDEN, samples


def records():
    recs = [entry["record"] for entry in samples()]
    for family in FAMILIES:
        with open(os.path.join(GOLDEN, f"{family}.json")) as fh:
            recs.append(json.load(fh))
    return recs


def negated(rows):
    return [[-x for x in row] for row in rows]


def map_n(rec):
    return {**rec, "P": negated(rec["P"]), "orientation": -rec["orientation"]}


def map_l(rec):
    return {
        **rec,
        "lambda": -rec["lambda"], "a": -rec["a"], "b": -rec["b"], "Q": negated(rec["Q"]),
    }


#: Each map with the signs it puts on a flow row (t, a, b, Q1, Q2, P and
#: the three residuals).
MAPS = {
    "N": (map_n, [-1.0] + [1.0] * 20 + [-1.0] * 9 + [1.0] * 3),
    "L": (map_l, [-1.0] * 21 + [1.0] * 12),
}
RECORDS = records()


def invariants(s):
    """What the maps keep: validity residuals and verdicts, the torsion
    class with its residuals, and s."""
    report = s.validate()
    out = {"residuals": report.residuals, "spd": report.metric_spd, "failing": report.failing()}
    if report.passed:
        data = extract_torsion(s)
        out.update(
            label=data.class_label,
            predicates=data.report.predicate_residuals,
            torsion_residuals=data.residuals,
            s=data.s,
        )
    return out


def state(s):
    return [s.a, s.b] + s.m9.q1 + s.m9.q2


@pytest.mark.parametrize("name", MAPS)
def test_map_keeps_verdicts_and_s_and_flips_w1plus(name):
    to_image, _ = MAPS[name]
    for rec in RECORDS:
        s, image = NhfStructure.from_record(rec), NhfStructure.from_record(to_image(rec))
        assert invariants(image) == invariants(s)
        assert image.w1plus == -s.w1plus
        # y' changes sign under N and is fixed by L
        dy = flow.stage(s.lam, float(s.orientation), state(s))
        image_dy = flow.stage(image.lam, float(image.orientation), state(image))
        assert list(image_dy) == ([-x for x in dy] if name == "N" else list(dy))


def halt_reason(halt):
    """The halt message up to the sign of det P."""
    return halt[1].replace("det P = -", "det P = ")


@pytest.mark.parametrize("name", MAPS)
def test_map_reverses_the_flow(name):
    to_image, signs = MAPS[name]
    flows = RECORDS[-len(FAMILIES):] + RECORDS[:-len(FAMILIES)][::5]
    for k, rec in enumerate(flows):
        # both directions of time, to |t| = 0.6, where most halt
        t_end = 0.6 if k % 2 == 0 else -0.6
        traj = flow.integrate(NhfStructure.from_record(rec), 0.0, t_end, h=2e-3, record_every=25)
        image = flow.integrate(
            NhfStructure.from_record(to_image(rec)), 0.0, -t_end, h=2e-3, record_every=25
        )
        want = [[sign * x for sign, x in zip(signs, sample.row())] for sample in traj.samples]
        assert [sample.row() for sample in image.samples] == want
        assert (image.steps, image.terminated) == (traj.steps, traj.terminated)
        if traj.halt is not None:
            assert image.halt[0] == -traj.halt[0]
            assert halt_reason(image.halt) == halt_reason(traj.halt)
