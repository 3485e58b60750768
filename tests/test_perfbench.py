"""Smoke tests of the benchmark: its traced mode, where the tracer rebinds
the traced nhflat functions by name, so that renaming or removing one
breaks it, and the cli workload, whose processes run the console entry
point."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACED = (
    "mat3.adjugate",
    "mat3.det3",
    "mat3.polarized_adjugate",
    "exterior.form_inner",
    "exterior.wedge",
    "exterior.d",
    "structure.NhfStructure",
    "structure.validate",
    "structure.compute_abr",
    "structure.invariant_three_form",
    "torsion.extract_torsion",
    "torsion.w2_minus_form",
    "torsion.w3_form",
    "torsion.scalar_curvature",
    "torsion.classify",
    "flow.integrate",
    "flow.flow_rhs",
    "flow.recover_p",
    "flow.g2_residual",
    "flow.Trajectory.to_csv",
)


def test_traced_flow_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    for name in TRACED:
        assert f"{name}.calls" in result["metrics"], name


def test_cli_run():
    # the cli workload end to end: its processes start, and every answer
    # is right; no timing is asserted
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["success_rate"]["value"] == 1.0
