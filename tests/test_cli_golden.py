"""CLI outputs against golden files.

``tests/data/cli_golden`` holds one rotated record per closed-form family
(``<family>.json``, made by the benchmark's record generator at seed 12)
and what ``check``, ``classify`` and ``flow --t-end 0.05 --record-every 1``
gave for it when the structure data were numpy arrays and forms: the exit
code, stdout and stderr of each (``<family>.out.json``) and the trajectory
CSV (``<family>.flow.csv``).

Every output must match byte for byte.  The five ``residuals.j_squared``
numbers of the ``check`` stdout were regenerated in October 2026, on top
of 1081f83: they dated from numpy's J @ J, and ``check`` reads (J^2)_11 +
1 off the generated kernel ``construct``.  nk 3.33e-16 -> 2.22e-16, w1
3.33e-16 -> 2.22e-16, w1w3 9.659e-15 -> 9.770e-15, zero-scalar 2.442e-15
-> 2.220e-15 and sine-cone 2.22e-16 -> 0.0; every other byte stayed.
Until then ``j_squared``, ``w1plus`` and ``s`` were compared to 1e-12 of
their terms, which hid that w1w3's ``s`` read 18.000000000000597 on
Python 3.10 and 3.11 but 18.000000000000718 on 3.12 and 3.13, whose
builtin ``sum`` adds floats with compensated summation.  The inner
products are now `mat3.dot9`, which adds in one order on every version.

``samples.json`` holds 70 seeded records, ``sample_random_structure(seed,
method)`` for seeds 0-59 of "rotate-family" and 0-9 of "root-solve",
made on Python 3.11 at 1081f83, and what ``check``, ``classify`` and
``rotate`` gave for each: the exit code, stderr, and stdout as the JSON
it printed (None for none), so that the file stays small.  The stdout
must be that JSON as the commands print it, ``json.dumps(..., indent=2)``
and a newline, which gave back every printed byte when the file was
made.  The records are fixed data, so they do not move when the sampler
changes.  On Python 3.12 and 3.13, 13 of these outputs (``s`` and the
``w2minus_zero`` residual) differed from 3.11's until `mat3.dot9`; CI runs
this module on 3.10 to 3.13.

``sample_flows.json`` holds the exit code, stdout and stderr of ``flow
--t-end 0.01 --record-every 1`` from two of those records, made at
2418bbc: entry 0 (rotate-family seed 0, class W1) and entry 60
(root-solve seed 0, class W1+W2-+W3).  The five golden flows above start
from family members, whose Q is a multiple of P; these two do not, and
the second has w2- != 0.  Without ``--out`` the CSV is the stdout.  They
must match byte for byte.

The four ``predicate_residuals`` numbers in the ``classify`` stdout of
w1, w1w3, zero-scalar and sine-cone were regenerated in October 2026, on
top of 6957a06, when ``classify`` came to read the class off the
coordinates of w3 and w2- instead of off conditions on the matrices A, B,
R1 and R2 (now ``oracles.matrix_predicates``).  Every verdict, label and
other byte stayed, and nk's residuals did not move.

``commands.json`` holds the exit code, stdout and stderr of ``family``
(every name, both signs, and parameters out of range), ``rotate`` (the
five records) and ``verify-g2`` (both trajectories) as they were when
these commands ran on numpy (f9f0ab2); ``{golden}`` in an argv stands for
this directory.  They must match byte for byte.

The G2 residuals were regenerated in October 2026, on top of 3754f80,
when the two dt pieces of the G2 check (`flow.g2_pieces`) came to be
divided by the size of their terms and ``verify-g2`` to read them and
compare with the tolerance alone: the ``g2_resid`` column of all five
``<family>.flow.csv``, ``max_g2_resid`` in all five flow summaries and
``t_max_g2_resid`` in zero-scalar's (0.028 -> 0.029), and in the 14
``verify-g2`` entries of ``commands.json`` ``bound`` (1e-06 -> 1e-09,
0.001 unchanged), ``max_ode_resid`` and ``max_g2_resid``.  The two
sine-cone entries that stopped at the flow's |det P| halt
(``--t-start 0.1 --t-end 0.9 --samples 7`` and ``--t-start 0.6
--t-end 1.0 --samples 9``) became exit-0 JSON.  Every other byte
stayed."""

import json
import os

import pytest

from nhflat.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden")
FAMILIES = ("nk", "w1", "w1w3", "zero-scalar", "sine-cone")


def golden(family):
    with open(os.path.join(GOLDEN, f"{family}.out.json")) as fh:
        return json.load(fh)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("command", ["check", "classify"])
def test_json_matches_golden(family, command, capsys):
    got = run(capsys, [command, os.path.join(GOLDEN, f"{family}.json")])
    assert got == golden(family)[command]


@pytest.mark.parametrize("family", FAMILIES)
def test_flow_matches_golden_bytes(family, capsys, tmp_path):
    out = tmp_path / "t.csv"
    got = run(
        capsys,
        ["flow", os.path.join(GOLDEN, f"{family}.json"), "--t-end", "0.05",
         "--record-every", "1", "--out", str(out)],
    )
    assert got == golden(family)["flow"]
    with open(os.path.join(GOLDEN, f"{family}.flow.csv")) as fh:
        assert out.read_text() == fh.read()


def commands():
    with open(os.path.join(GOLDEN, "commands.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "case", commands(), ids=lambda c: " ".join(c["argv"]).replace("{golden}/", "")
)
def test_family_rotate_verify_g2_match_golden_bytes(case, capsys):
    got = run(capsys, [arg.format(golden=GOLDEN) for arg in case["argv"]])
    assert got == {key: case[key] for key in ("exit", "stdout", "stderr")}


def samples():
    with open(os.path.join(GOLDEN, "samples.json")) as fh:
        return json.load(fh)


def sample_flows():
    with open(os.path.join(GOLDEN, "sample_flows.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sample_flows(), ids=lambda e: f"{e['method']}-{e['seed']}")
def test_sample_flows_match_golden_bytes(case, capsys, tmp_path):
    entry = samples()[case["sample"]]
    assert (entry["method"], entry["seed"]) == (case["method"], case["seed"])
    path = tmp_path / "record.json"
    path.write_text(json.dumps(entry["record"]))
    got = run(capsys, ["flow", str(path), "--t-end", "0.01", "--record-every", "1"])
    assert got == {key: case[key] for key in ("exit", "stdout", "stderr")}


@pytest.mark.parametrize("sample", samples(), ids=lambda e: f"{e['method']}-{e['seed']}")
def test_samples_match_golden_bytes(sample, capsys, tmp_path):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(sample["record"]))
    for command in ("check", "classify", "rotate"):
        want = dict(sample[command])
        printed = want["stdout"]
        want["stdout"] = "" if printed is None else json.dumps(printed, indent=2) + "\n"
        assert run(capsys, [command, str(path)]) == want, command
