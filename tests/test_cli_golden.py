"""CLI outputs against golden files.

``tests/data/cli_golden`` holds one rotated record per closed-form family
(``<family>.json``, made by the benchmark's record generator at seed 12)
and what ``check``, ``classify`` and ``flow --t-end 0.05 --record-every 1``
gave for it when the structure data were numpy arrays and forms: the exit
code, stdout and stderr of each (``<family>.out.json``) and the trajectory
CSV (``<family>.flow.csv``).

The CSV and the flow summary must match byte for byte.  Of the JSON of
``check`` and ``classify``, the keys, verdicts, labels and exit codes must
be identical, and so must every number but three that were BLAS products
before and are sums in Python now: ``residuals.j_squared`` (J @ J),
``w1plus`` (tr(P^T R)) and ``s``.  These must agree to 1e-12 relative to
their terms.

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

import numpy as np
import pytest

from nhflat.cli import main
from nhflat.structure import NhfStructure
from nhflat.tolerance import max_abs
from nhflat.torsion import _w2_minus_norm2, _w3_norm2, extract_torsion

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden")
FAMILIES = ("nk", "w1", "w1w3", "zero-scalar", "sine-cone")
REL = 1e-12


def golden(family):
    with open(os.path.join(GOLDEN, f"{family}.out.json")) as fh:
        return json.load(fh)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


def term_sizes(record):
    """The size of the terms of each number that may move: J^2 + id,
    tr(P^T R) / (2 (det P)^2), and the four terms of s."""
    s = NhfStructure.from_record(record)
    data = extract_torsion(s)
    r_size = max(max_abs(s.m9.r1), max_abs(s.m9.r2))
    w1p_terms = s.sizes.p * r_size / (2.0 * s.det_p * s.det_p)
    return {
        "j_squared": max(1.0, float(np.max(np.abs(s.J))) ** 2),
        "w1plus": w1p_terms,
        "s": max(
            (10.0 / 3.0) * w1p_terms * w1p_terms,
            15.0 * s.lam**2 / 8.0,
            abs(_w2_minus_norm2(s, data.w2minus_coords)) / 2.0,
            abs(_w3_norm2(s, data.w3_coords)) / 2.0,
        ),
    }


def assert_same_json(got, want, sizes, path=""):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_same_json(got[key], want[key], sizes, key)
    elif path in sizes:
        assert abs(got - want) <= REL * sizes[path], path
    else:
        assert got == want, path


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("command", ["check", "classify"])
def test_json_matches_golden(family, command, capsys):
    path = os.path.join(GOLDEN, f"{family}.json")
    with open(path) as fh:
        record = json.load(fh)
    want = golden(family)[command]
    got = run(capsys, [command, path])
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    assert_same_json(
        json.loads(got["stdout"]), json.loads(want["stdout"]), term_sizes(record)
    )


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
