"""The four discrete symmetries of the equations: N and L pinned bit for
bit, S and T to rounding.

All four act on records (lambda, a, b, P, Q):

* N: P -> -P.  Adj(P^T) is quadratic in P, so Q1 = Q - (lambda/2)
  Adj(P^T), Q2 and the flow's state y = (a, b, Q1, Q2) are fixed, and so
  is F = (A, B, R1, R2).  det P changes sign, and with it the
  orientation, w1+ = tr(P^T R) / (2 (det P)^2), and y' = e F + (0, 0, P,
  -P) with e = -2 lambda / det P.
* L: (lambda, a, b, Q) -> (-lambda, -a, -b, -Q).  Q1, Q2 and y change
  sign, and so does F, which is cubic in y; P, det P and Adj(P^T) =
  -(Q1 + Q2) / lambda are fixed.  e changes sign, so y' is fixed and
  w1+ changes sign.
* S: (a, b, Q) -> (b, a, -Q).  Q1 and Q2 trade places, so y -> (b, a,
  Q2, Q1): the map swaps the two S3 factors.  P, det P and e are fixed,
  and F -> (-B, -A, -R2, -R1), so w1+ and y' change sign (y' with its
  entries swapped as y's are).
* T: (P, Q) -> (P^T, Q^T).  Adj(P^T) and Q1, Q2 are transposed, traces
  and determinants are kept, so A and B are fixed, R1 and R2 are
  transposed, and so is y'; det P, e and w1+ are fixed.

N, L and S therefore reverse the flow's time: the flow of N s at -t is N
of the flow of s at t, and likewise for L and S.  T commutes with the
flow.  Under N and L every rounded operation meets either its operands
or their negatives, and rounding commutes with x -> -x, so the images
agree to the bit: the validity residuals and verdicts, the failing sets,
the torsion class with its residuals, and s are identical, and w1+, y'
and the flow's rows change sign as the map says.  Floats are compared
with ==, which takes 0.0 and -0.0 as equal: the map sends a zero to a
zero of the other sign, which the computation need not reproduce.  The
inner products of the checks and of s are `mat3.dot9`, so a fold there
that is not odd in its terms fails here too.

S and T reorder the operands of sums and products, so they hold to
rounding: validity, the failing set and the label must agree, and w1+
(up to the map's sign), s and the flow's states to the `RTOL` of
test_scaling.py, 1e-9.  When these tests were written the worst
relative differences were 2.7e-14 (S) and 1.5e-13 (T) in s, 0 and
1.0e-15 in w1+, and 2.0e-13 and 2.5e-13 in the flows' states; 66 and 24
of the 75 records kept w1+ and s to the bit.  Two defects, each made on
a copy of the package, failed only the tests of their map: S, `flow.stage`
writing Q2' = e R2 + P (with `rk4_step` regenerated), whose flow is no
longer carried by the swap; T, the bracket Hessian taking u = Y2 Y1^T
for Y1^T Y2, which moves s (through |w3|^2) on records with w3 != 0.
The T defect was made in `structure.bracket_hessian9` and made again,
with the same result, in its composed form `composed_bracket_hessian`
of ``tools/gen_kernels.py``, with the torsion kernel regenerated.

The inputs are the 70 seeded samples and the five golden records of
``tests/data/cli_golden``, and the flows of the golden records and of
every fifth sample to |t| = 0.6.  When the N and L tests were written, no
record or flow differed from its image under either map; 13 of the 19
flows halted, at -t with the same message up to the sign of det P.
Under S and T the same 13 halt at the same time with the same message.

The structure checks of all four maps also run on the 120 survey records
of seeds 7 and 901 (`test_survey_path.survey_records`): dense, rotated
family members, the inputs of the torsion kernel's hot path.  There N and
L hold bit for bit as above, and S and T moved s by at most 1.2e-13 and
2.0e-13 and w1+ by 0 and 6.6e-16 when these checks were extended; 99 and
57 of the 120 kept both to the bit.  The T defect above moves s beyond
`RTOL` on none of the survey records: the samples and golden records
are what catch it."""

import json
import os

import pytest

from nhflat import flow
from nhflat.structure import NhfStructure
from nhflat.torsion import extract_torsion
from test_cli_golden import FAMILIES, GOLDEN, samples
from test_scaling import RTOL
from test_survey_path import survey_records


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
#: The structure checks' inputs: the records above and the 120 dense,
#: rotated survey records of seeds 7 and 901, on which the torsion
#: kernel runs.
STRUCTURE_RECORDS = RECORDS + list(survey_records(7) + survey_records(901))


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
    for rec in STRUCTURE_RECORDS:
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


#: The golden records and every fifth sample, whose flows the maps carry.
FLOWS = RECORDS[-len(FAMILIES):] + RECORDS[:-len(FAMILIES)][::5]


@pytest.mark.parametrize("name", MAPS)
def test_map_reverses_the_flow(name):
    to_image, signs = MAPS[name]
    for k, rec in enumerate(FLOWS):
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


def transposed(rows):
    return [list(column) for column in zip(*rows)]


def map_s(rec):
    return {**rec, "a": rec["b"], "b": rec["a"], "Q": negated(rec["Q"])}


def map_t(rec):
    return {**rec, "P": transposed(rec["P"]), "Q": transposed(rec["Q"])}


NINE = range(9)
TRANSPOSE = [3 * j + i for i in range(3) for j in range(3)]
#: Each map that reorders operands, with the sign it puts on w1+ and on
#: the flow's time, and the entry of a flow row (t, a, b, Q1, Q2, P) that
#: each entry of its image's row is.  S swaps (a, Q1) with (b, Q2) and
#: fixes P; T transposes Q1, Q2 and P.
ROUNDING_MAPS = {
    "S": (map_s, -1.0, [0, 2, 1, *(12 + k for k in NINE), *(3 + k for k in NINE),
                        *(21 + k for k in NINE)]),
    "T": (map_t, 1.0, [0, 1, 2, *(3 + k for k in TRANSPOSE), *(12 + k for k in TRANSPOSE),
                       *(21 + k for k in TRANSPOSE)]),
}


@pytest.mark.parametrize("name", ROUNDING_MAPS)
def test_rounding_map_keeps_verdicts_and_w1plus_up_to_sign(name):
    # w1+ and s on their natural sizes, |lambda| and lambda^2, as in
    # test_scaling.py, so that a zero w1+ is compared too
    to_image, sign, _ = ROUNDING_MAPS[name]
    for rec in STRUCTURE_RECORDS:
        s, image = NhfStructure.from_record(rec), NhfStructure.from_record(to_image(rec))
        report, image_report = s.validate(), image.validate()
        assert (image_report.passed, image_report.failing()) == (report.passed, report.failing())
        data, image_data = extract_torsion(s), extract_torsion(image)
        assert image_data.class_label == data.class_label
        assert abs(image_data.w1plus - sign * data.w1plus) <= RTOL * max(abs(data.w1plus), abs(s.lam))
        assert abs(image_data.s - data.s) <= RTOL * max(abs(data.s), s.lam**2)


@pytest.mark.parametrize("name", ROUNDING_MAPS)
def test_rounding_map_carries_the_flow(name):
    # the image's flow, to sign * t, against the map of the flow: states on
    # the size of their largest entry, the relative residuals on 1, and
    # the halts in time and reason
    to_image, sign, order = ROUNDING_MAPS[name]
    for k, rec in enumerate(FLOWS):
        t_end = 0.6 if k % 2 == 0 else -0.6
        traj = flow.integrate(NhfStructure.from_record(rec), 0.0, t_end, h=2e-3, record_every=25)
        image = flow.integrate(
            NhfStructure.from_record(to_image(rec)), 0.0, sign * t_end, h=2e-3, record_every=25
        )
        assert (image.steps, image.terminated) == (traj.steps, traj.terminated)
        assert image.halt == (None if traj.halt is None else (sign * traj.halt[0], traj.halt[1]))
        assert [x.passed for x in image.samples] == [x.passed for x in traj.samples]
        for got, sample in zip(image.samples, traj.samples):
            row, got_row = sample.row(), got.row()
            assert got_row[0] == sign * row[0]
            size = max(map(abs, row[1:30]))
            assert all(abs(got_row[i] - row[j]) <= RTOL * size for i, j in enumerate(order) if i)
            assert all(abs(x - y) <= RTOL for x, y in zip(got_row[30:], row[30:]))
