"""CLI behaviour: subcommands, exit codes, output formats."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nhflat import _torsion_kernels, cli, families, flow, torsion
from nhflat.cli import main
from nhflat.structure import (
    DEFAULT_TOL,
    NhfStructure,
    ValidationReport,
    random_rotation,
    sample_random_structure,
)


@pytest.fixture
def nk_record(tmp_path):
    path = tmp_path / "nk.json"
    path.write_text(json.dumps(families.nearly_kahler(4.0).to_record()))
    return str(path)


@pytest.fixture
def bad_record(tmp_path):
    rec = families.nearly_kahler(4.0).to_record()
    rec["Q"][0][1] = 0.05  # breaks Q^T P symmetry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rec))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_nearly_kahler_passes(self, capsys, nk_record):
        code, out, _ = run(capsys, ["check", nk_record])
        payload = json.loads(out)
        assert code == 0
        assert payload["valid"] is True
        assert payload["class"] == "W1-"
        assert payload["s"] == pytest.approx(30.0, abs=1e-8)

    def test_broken_record_exit1_named_residual(self, capsys, bad_record):
        code, out, _ = run(capsys, ["check", bad_record])
        payload = json.loads(out)
        assert code == 1
        assert payload["valid"] is False
        assert "qtp_symmetry" in payload["failing"]

    def test_missing_file_exit2(self, capsys):
        code, _, err = run(capsys, ["check", "/nonexistent/x.json"])
        assert code == 2

    def test_malformed_json_exit2(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, ["check", str(path)])
        assert code == 2

    def test_nhf_tol_env(self, capsys, nk_record, monkeypatch):
        monkeypatch.setenv("NHF_TOL", "1e-3")
        code, out, _ = run(capsys, ["check", nk_record])
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-3


class TestClassify:
    def test_w1_member(self, capsys, tmp_path):
        rec = families.w1_family(1.0, 0.5).to_record()
        path = tmp_path / "w1.json"
        path.write_text(json.dumps(rec))
        code, out, _ = run(capsys, ["classify", str(path)])
        assert code == 0
        assert json.loads(out)["class"] == "W1"


@pytest.mark.parametrize("command", ["classify", "rotate"])
def test_invalid_record_names_the_failing_checks(command, capsys, bad_record):
    code, out, err = run(capsys, [command, bad_record])
    payload = json.loads(out)
    assert (code, err) == (1, "")
    assert sorted(payload) == ["failing", "valid"]
    assert payload["valid"] is False
    assert "qtp_symmetry" in payload["failing"]


@pytest.mark.parametrize("command", ["check", "classify"])
def test_tolerance_reaches_torsion_checks(command, capsys, tmp_path, monkeypatch):
    # Q[0,1] and Q[1,0] raised by 1e-5 keep Q^T P symmetric; the w3
    # membership residual is 1.5e-8, far below --tol 1e-2
    rec = families.w1_family(1.0, 0.5).to_record()
    rec["Q"][0][1] += 1e-5
    rec["Q"][1][0] += 1e-5
    path = tmp_path / "w1.json"
    path.write_text(json.dumps(rec))
    code, out, err = run(capsys, ["--tol", "1e-2", command, str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["class"] == "W1"
    monkeypatch.setenv("NHF_TOL", "1e-2")
    assert run(capsys, [command, str(path)])[0] == 0
    # validation passes at 1e-8 (worst residual 5.5e-9), the w3 check not
    code, _, err = run(capsys, ["--tol", "1e-8", command, str(path)])
    assert code == 1 and "w3 membership residual" in err


@pytest.mark.parametrize("command", ["check", "classify"])
def test_tolerance_reaches_the_class(command, capsys, tmp_path):
    # |w1+| / |lambda| = 5.0e-8 on this sine-cone member: w1+ = 0 at
    # --tol 1e-7, and not at --tol 1e-8
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(families.sine_cone_trajectory(1.67e-8).to_record()))
    for tol, label in (("1e-8", "W1"), ("1e-7", "W1-")):
        code, out, _ = run(capsys, ["--tol", tol, command, str(path)])
        assert code == 0
        assert json.loads(out)["class"] == label


@pytest.mark.parametrize("command", ["check", "classify"])
def test_one_torsion_pass(command, capsys, nk_record, monkeypatch):
    # the class, w1+, w1- and s come from one extract_torsion pass, which
    # computes w3 and w2- in one call of the kernel
    calls = {"torsion_pass": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(torsion, name, counted(name, getattr(torsion, name)))
    assert run(capsys, [command, nk_record])[0] == 0
    assert calls == {"torsion_pass": 1}


def test_flow_names_a_nan_residual_as_worst(capsys, nk_record, monkeypatch):
    report = ValidationReport({"j_squared": 2.2e-16, "normalization": float("nan")}, True, 1e-9)
    monkeypatch.setattr(NhfStructure, "validate", lambda self, tol=DEFAULT_TOL: report)
    code, _, err = run(capsys, ["flow", nk_record, "--t-end", "0.01"])
    assert code == 1
    assert "(worst residual nan in normalization)" in err


class TestFamily:
    def test_nk_record(self, capsys):
        code, out, _ = run(capsys, ["family", "--name", "nk", "--lambda", "4"])
        assert code == 0
        rec = json.loads(out)
        assert rec["a"] == pytest.approx(1.0 / 108.0)
        assert rec["P"][0][0] == pytest.approx(np.sqrt(3.0) / 36.0)

    def test_w1_record(self, capsys):
        code, out, _ = run(
            capsys, ["family", "--name", "w1", "--lambda", "1", "--p", "0.5"]
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["lambda"] == 1.0

    def test_zero_scalar_branch(self, capsys):
        code, out, _ = run(
            capsys, ["family", "--name", "zero-scalar", "--branch", "minus"]
        )
        assert code == 0
        records = json.loads(out)
        if isinstance(records, dict):
            records = [records]
        assert len(records) == 1  # measured root count (see test_families)

    def test_out_of_range_exit2(self, capsys):
        code, _, err = run(capsys, ["family", "--name", "w1w3", "--a", "0.001"])
        assert code == 2
        assert "1/256" in err

    def test_missing_param_exit2(self, capsys):
        # one error line that names the option the family needs
        for name, option in [("w1", "--p"), ("w1w3", "--a"), ("zero-scalar", "--branch"),
                             ("berger", "--t"), ("sine-cone", "--t")]:
            code, out, err = run(capsys, ["family", "--name", name])
            assert (code, out) == (2, "")
            assert err == f"error: {name} requires {option}\n"


class TestFlow:
    def test_short_run_csv(self, capsys, nk_record, tmp_path):
        out_csv = tmp_path / "traj.csv"
        code, _, err = run(
            capsys,
            [
                "flow",
                nk_record,
                "--t-end",
                "0.05",
                "--record-every",
                "10",
                "--out",
                str(out_csv),
            ],
        )
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0].startswith("t,a,b,Q1_11")
        summary = json.loads(err.strip().split("\n")[-1])
        assert summary["terminated"] == "completed"
        assert summary["max_g2_resid"] < 1e-6

    @pytest.mark.parametrize("t_end, h", [("0.01", "0.3"), ("0.3", "0.007"), ("-0.3", "0.007")])
    def test_summary_ends_at_t_end(self, capsys, nk_record, tmp_path, t_end, h):
        code, _, err = run(
            capsys,
            ["flow", nk_record, "--t-end", t_end, "--h", h,
             "--out", str(tmp_path / "t.csv")],
        )
        summary = json.loads(err.strip().split("\n")[-1])
        assert code == 0
        assert summary["terminated"] == "completed"
        assert summary["t_end"] == float(t_end)

    def test_summary_counts_rk4_steps(self, capsys, nk_record, tmp_path):
        code, _, err = run(
            capsys,
            ["flow", nk_record, "--t-end", "0.3", "--record-every", "50",
             "--out", str(tmp_path / "t.csv")],
        )
        summary = json.loads(err.strip().split("\n")[-1])
        assert code == 0
        assert summary["steps"] == 300
        assert len((tmp_path / "t.csv").read_text().strip().split("\n")) == 1 + 7

    def test_singularity_exit3(self, capsys, nk_record, tmp_path):
        code, _, err = run(
            capsys,
            ["flow", nk_record, "--t-end", "1.2", "--record-every", "100",
             "--out", str(tmp_path / "t.csv")],
        )
        assert code == 3
        assert "singular" in err
        # the halt line names the time and the reason, the step's det P
        lines = err.splitlines()
        assert lines[0] == "flow singularity near t = 0.548000: det P = 9.931e-07 below threshold"
        assert json.loads(lines[1])["terminated"] == "singular"

    def test_singular_run_writes_partial_csv_to_stdout(self, capsys, nk_record, tmp_path):
        # without --out the CSV goes to stdout, also where the run halts
        argv = ["flow", nk_record, "--t-end", "1.2", "--record-every", "100"]
        out_csv = tmp_path / "t.csv"
        code, _, err_file = run(capsys, argv + ["--out", str(out_csv)])
        assert code == 3
        code, out, err = run(capsys, argv)
        assert code == 3 and err == err_file
        assert out == out_csv.read_text()
        assert len(out.splitlines()) == 1 + 6

    def test_invalid_initial_exit1(self, capsys, bad_record):
        # the one wording of `flow.check_initial`, which `integrate` raises too
        code, out, err = run(capsys, ["flow", bad_record, "--t-end", "0.05"])
        assert code == 1
        assert out == ""
        assert err == "error: initial structure invalid (worst residual 5.298e+02 in j_squared)\n"

    def test_tol_governs_the_run(self, capsys, tmp_path):
        # P_11 raised by 1e-8 gives j_squared 6.7e-9: invalid at the
        # default 1e-9, valid at --tol 1e-6, at the start and on every sample
        rec = families.nearly_kahler(4.0).to_record()
        rec["P"][0][0] *= 1.0 + 1e-8
        path, out_csv = tmp_path / "near.json", tmp_path / "t.csv"
        path.write_text(json.dumps(rec))
        code, _, err = run(
            capsys,
            ["--tol", "1e-6", "flow", str(path), "--t-end", "0.01", "--out", str(out_csv)],
        )
        assert code == 0, err
        summary = json.loads(err.strip().split("\n")[-1])
        assert summary["terminated"] == "completed"
        assert summary["invalid_samples"] == 0
        assert len(out_csv.read_text().strip().split("\n")) == 1 + 11
        code, _, _ = run(capsys, ["flow", str(path), "--t-end", "0.01"])
        assert code == 1

    def test_batch(self, capsys, nk_record, tmp_path):
        out_csv = tmp_path / "b.csv"
        code, _, err = run(
            capsys,
            ["flow", nk_record, nk_record, "--t-end", "0.02",
             "--record-every", "10", "--out", str(out_csv)],
        )
        assert code == 0
        assert (tmp_path / "b_0.csv").exists()
        assert (tmp_path / "b_1.csv").exists()

    def test_batch_without_out_is_a_usage_error(self, capsys, nk_record, monkeypatch):
        # several CSVs cannot share stdout: exit 2 with one error line,
        # before anything is integrated
        from nhflat import flow

        def integrate(*args, **kwargs):
            raise AssertionError("integrated")

        monkeypatch.setattr(flow, "integrate", integrate)
        code, out, err = run(capsys, ["flow", nk_record, nk_record, "--t-end", "0.01"])
        assert code == 2
        assert out == ""
        assert err == "error: flow with several inputs needs --out, one CSV file per input\n"

    @pytest.mark.parametrize("second, want", [("invalid", 1), ("missing", 2)])
    def test_batch_checks_every_input_first(self, capsys, nk_record, tmp_path, second, want):
        # a bad second input stops the run before the first is integrated:
        # one error line, its exit code, no summary and no CSV
        rec = families.nearly_kahler(4.0).to_record()
        rec["a"] *= 1.5
        bad = tmp_path / "bad.json"
        if second == "invalid":
            bad.write_text(json.dumps(rec))
        code, out, err = run(
            capsys,
            ["flow", nk_record, str(bad), "--t-end", "0.01", "--h", "0.005",
             "--out", str(tmp_path / "t.csv")],
        )
        assert code == want
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert list(tmp_path.glob("*.csv")) == []

    def test_single_input_writes_out_path(self, capsys, nk_record, tmp_path):
        out_csv = tmp_path / "x.csv"
        code, _, _ = run(
            capsys,
            ["flow", nk_record, "--t-end", "0.02", "--record-every", "10",
             "--out", str(out_csv)],
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["x.csv"]

    @pytest.mark.parametrize(
        "out, inputs, make_dir",
        [
            ("no-dir/t.csv", 1, None),
            ("t.csv", 1, "t.csv"),
            # the second of two outputs, t_1.csv, is a directory
            ("t.csv", 2, "t_1.csv"),
        ],
    )
    def test_unwritable_out_exits_before_integrating(
        self, capsys, monkeypatch, nk_record, tmp_path, out, inputs, make_dir
    ):
        def no_integration(*args, **kwargs):
            pytest.fail("integrate ran although --out cannot be written")

        monkeypatch.setattr("nhflat.flow.integrate", no_integration)
        if make_dir:
            (tmp_path / make_dir).mkdir()
        code, out_text, err = run(
            capsys, ["flow", *[nk_record] * inputs, "--t-end", "1", "--out", str(tmp_path / out)]
        )
        assert code == 2
        assert out_text == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write output"), err
        assert [str(p) for p in tmp_path.rglob("*") if p.is_file()] == [nk_record]

    @pytest.mark.parametrize(
        "option", [["--h", "0"], ["--h", "nan"], ["--record-every", "0"]]
    )
    def test_bad_step_options_exit2(self, capsys, nk_record, option):
        code, out, err = run(capsys, ["flow", nk_record, "--t-end", "0.05", *option])
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in err


def rescaled(s, c):
    """The record of s under (lambda, a, b, P, Q) -> (c lambda, a/c^3,
    b/c^3, P/c^2, Q/c^3), which keeps every verdict."""
    return {
        "lambda": c * s.lam,
        "a": s.a / c**3,
        "b": s.b / c**3,
        "P": (s.P / c**2).tolist(),
        "Q": (s.Q / c**3).tolist(),
    }


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _nan_w3_norm2(*args):
    """The kernel `torsion_pass` with |w3|^2 NaN."""
    result = _torsion_kernels.torsion_pass(*args)
    return result[:2] + (float("nan"),) + result[3:]


def _nan_summary(self):
    return {"max_g2_resid": float("nan")}


# (argv with {nk} for the nearly Kahler record, {nan} and {inf} for records
# with a non-finite number, {huge} for one whose det P overflows, {tiny}
# for the nearly Kahler structure rescaled so that (det P)^2 underflows
# and {orientation...} for ones whose orientation is not a number equal
# to +-1; the other record names are records with one field malformed,
# {not_object} a list that holds the record; NHF_TOL or None, function to
# patch to NaN, exit)
BAD_INPUTS = {
    "nhf_tol_abc": (["check", "{nk}"], "abc", None, 2),
    "nhf_tol_nan": (["check", "{nk}"], "nan", None, 2),
    "nhf_tol_inf": (["check", "{nk}"], "inf", None, 2),
    "nhf_tol_zero": (["classify", "{nk}"], "0", None, 2),
    "tol_negative": (["--tol", "-1", "check", "{nk}"], None, None, 2),
    "tol_abc": (["--tol", "abc", "rotate", "{nk}"], None, None, 2),
    "tol_nan_flow": (["--tol", "nan", "flow", "{nk}", "--t-end", "0.01"], None, None, 2),
    "record_nan_p": (["check", "{nan}"], None, None, 2),
    "record_inf_lambda": (["classify", "{inf}"], None, None, 2),
    "record_overflow": (["check", "{huge}"], None, None, 1),
    # valid, but w1+ divides by (det P)^2 = 0: a numerical failure
    "record_det_p_squared_underflow": (["check", "{tiny}"], None, None, 1),
    "record_bad_orientation": (["rotate", "{orientation}"], None, None, 2),
    "record_bad_orientation_1_5": (["check", "{orientation_1_5}"], None, None, 2),
    "record_bad_orientation_str_1": (["check", "{orientation_str_1}"], None, None, 2),
    "record_bad_orientation_true": (["check", "{orientation_true}"], None, None, 2),
    "record_bad_orientation_minus_0_5": (["check", "{orientation_minus_0_5}"], None, None, 2),
    # float() would read True as 1.0 and "4" as 4.0
    "record_bad_number_lambda_true": (["check", "{lambda_true}"], None, None, 2),
    "record_bad_number_lambda_str": (["classify", "{lambda_str}"], None, None, 2),
    "record_bad_number_p_str": (["flow", "{p_str}", "--t-end", "0.01"], None, None, 2),
    # an int too large for a float, which 1e400 would be read as inf
    "record_bad_number_lambda_huge_int": (["check", "{lambda_huge_int}"], None, None, 2),
    "record_bad_number_p_huge_int": (["classify", "{p_huge_int}"], None, None, 2),
    "record_bad_number_a_list": (["check", "{a_list}"], None, None, 2),
    "record_bad_number_q_str_x": (["rotate", "{q_str_x}"], None, None, 2),
    "record_not_object": (["check", "{not_object}"], None, None, 2),
    "record_missing_p": (["classify", "{missing_p}"], None, None, 2),
    "record_p_not_3x3": (["flow", "{p_not_3x3}", "--t-end", "0.01"], None, None, 2),
    # a str of 3 characters is not a row of 3 entries
    "record_p_rows_strings": (["check", "{p_rows_strings}"], None, None, 2),
    # JSON that Python does not read: more digits than it converts, or
    # deeper nesting than it parses
    "record_int_5000_digits": (["check", "{int_5000_digits}"], None, None, 2),
    "record_nested_100000_deep": (["classify", "{nested_100000_deep}"], None, None, 2),
    "verify_g2_samples_0": (
        ["verify-g2", "--family", "sine-cone", "--samples", "0"], None, None, 2
    ),
    # more samples than flow.MAX_STEPS: rejected before any time is made
    "verify_g2_samples_1e8_plus_1": (
        ["verify-g2", "--family", "sine-cone", "--samples", "100000001"], None, None, 2
    ),
    "verify_g2_samples_1e20": (
        ["verify-g2", "--family", "berger", "--samples", "100000000000000000000"],
        None, None, 2,
    ),
    "verify_g2_t_start_nan": (
        ["verify-g2", "--family", "sine-cone", "--t-start", "nan"], None, None, 2
    ),
    "verify_g2_t_end_inf": (["verify-g2", "--family", "berger", "--t-end", "inf"], None, None, 2),
    "family_w1_without_p": (["family", "--name", "w1"], None, None, 2),
    "family_w1w3_without_a": (["family", "--name", "w1w3"], None, None, 2),
    "family_zero_scalar_without_branch": (["family", "--name", "zero-scalar"], None, None, 2),
    "family_berger_without_t": (["family", "--name", "berger"], None, None, 2),
    "family_sine_cone_without_t": (["family", "--name", "sine-cone"], None, None, 2),
    "flow_t_end_inf": (["flow", "{nk}", "--t-end", "inf"], None, None, 2),
    "flow_t_start_nan": (
        ["flow", "{nk}", "--t-start", "nan", "--t-end", "0.01"], None, None, 2
    ),
    "flow_h_0": (["flow", "{nk}", "--t-end", "0.05", "--h", "0"], None, None, 2),
    "flow_too_many_steps": (["flow", "{nk}", "--t-end", "1e15"], None, None, 2),
    "family_lambda_underflow": (
        ["family", "--name", "nk", "--lambda", "1e-110"], None, None, 2
    ),
    "check_out_unwritable": (["check", "{nk}", "--out", "{unwritable}"], None, None, 2),
    "family_out_unwritable": (["family", "--name", "nk", "--out", "{unwritable}"], None, None, 2),
    "flow_out_unwritable": (
        ["flow", "{nk}", "--t-end", "0.002", "--out", "{unwritable}"], None, None, 2
    ),
    # the nearly Kahler flow at lambda = 4 turns singular near t = 0.548
    "flow_singular_out_unwritable": (
        ["flow", "{nk}", "--t-end", "1", "--record-every", "1000", "--out", "{unwritable}"],
        None, None, 2,
    ),
    "nan_in_classify_output": (
        ["classify", "{nk}"],
        None,
        ("nhflat.torsion.torsion_pass", _nan_w3_norm2),
        1,
    ),
    "nan_in_flow_summary": (
        ["flow", "{nk}", "--t-end", "0.002", "--out", "{csv}"],
        None,
        ("nhflat.flow.Trajectory.to_record", _nan_summary),
        1,
    ),
}


#: The whole reason of the cases whose value shown is the point.
REASONS = {
    "record_p_rows_strings":
        "malformed structure record: P: expected a 3x3 matrix, got ['abc', 'def', 'ghi']",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_one_error_line(case, capsys, monkeypatch, tmp_path):
    argv, env_tol, patch, expected = BAD_INPUTS[case]
    nk = families.nearly_kahler(4.0).to_record()
    nan_p = np.eye(3).tolist()
    nan_p[0][0] = float("nan")
    records = {
        "nk": nk,
        # no orientation key, so nothing in the record is checked before P
        "nan": {k: v for k, v in nk.items() if k != "orientation"} | {"P": nan_p},
        "huge": {k: v for k, v in nk.items() if k != "orientation"}
        | {"P": (1e110 * np.eye(3)).tolist()},
        "inf": nk | {"lambda": float("inf")},
        "tiny": rescaled(families.nearly_kahler(4.0), 1e27),
        "orientation": nk | {"orientation": "x"},
        "orientation_1_5": nk | {"orientation": 1.5},
        "orientation_str_1": nk | {"orientation": "1"},
        "orientation_true": nk | {"orientation": True},
        "orientation_minus_0_5": nk | {"orientation": -0.5},
        "lambda_true": nk | {"lambda": True},
        "lambda_str": nk | {"lambda": "4"},
        "p_str": nk | {"P": [[str(x) for x in row] for row in nk["P"]]},
        "lambda_huge_int": nk | {"lambda": 10**400},
        "p_huge_int": nk | {"P": [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "a_list": nk | {"a": [nk["a"]]},
        "q_str_x": nk | {"Q": [nk["Q"][0], nk["Q"][1][:2] + ["x"], nk["Q"][2]]},
        "not_object": [nk],
        "missing_p": {k: v for k, v in nk.items() if k != "P"},
        "p_not_3x3": nk | {"P": nk["P"][:2]},
        "p_rows_strings": nk | {"P": ["abc", "def", "ghi"]},
    }
    paths = {"csv": str(tmp_path / "t.csv"), "unwritable": str(tmp_path / "no-dir" / "out")}
    for name, rec in records.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(rec, fh)
    texts = {
        "int_5000_digits": '{"lambda": 1%s}' % ("0" * 4999),
        "nested_100000_deep": "[" * 100000 + "]" * 100000,
    }
    for name, text in texts.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    monkeypatch.delenv("NHF_TOL", raising=False)
    if env_tol is not None:
        monkeypatch.setenv("NHF_TOL", env_tol)
    if patch is not None:
        monkeypatch.setattr(*patch)
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == expected
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    if case.startswith(("record_int", "record_nested")):
        assert lines[0].startswith("error: cannot read structure record: "), err
    elif case.startswith("record_") and expected == 2:
        assert lines[0].startswith("error: malformed structure record: "), err
    if case in REASONS:
        assert lines[0] == "error: " + REASONS[case]
    assert out == "" or _strict_json(out) is not None


class TestRotate:
    def test_w1_member_rotates(self, capsys, tmp_path):
        rec = families.w1_family(1.0, 0.5).to_record()
        path = tmp_path / "w1.json"
        path.write_text(json.dumps(rec))
        code, out, _ = run(capsys, ["rotate", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["dgamma_theta_max"] < 1e-9

    def test_nonzero_w2_minus_is_one_error_line(self, capsys, tmp_path):
        # a valid structure of class W1+W2-+W3 has no half-flat rotation
        path = tmp_path / "w2.json"
        path.write_text(json.dumps(sample_random_structure(0, method="root-solve").to_record()))
        code, out, err = run(capsys, ["rotate", str(path)])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: w2- is not zero (relative residual")


class TestVerifyG2:
    def test_nan_piece_fails(self, capsys, monkeypatch):
        # a NaN evolution piece on one sample is the worst, so the run
        # cannot pass; strict JSON then exits 1
        pieces, seen = flow.g2_pieces, []

        def nan_on_second(s, *deriv):
            seen.append(s)
            ode, closure = pieces(s, *deriv)
            return (float("nan") if len(seen) == 2 else ode), closure

        monkeypatch.setattr(flow, "g2_pieces", nan_on_second)
        code, out, err = run(capsys, ["verify-g2", "--family", "sine-cone", "--samples", "4"])
        assert (code, out) == (1, "")
        assert "non-finite" in err

    def test_sine_cone_passes(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify-g2", "--family", "sine-cone", "--t-start", "-0.25",
             "--t-end", "0.25"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["max_g2_resid"] < 1e-6

    def test_berger_fails_as_documented(self, capsys):
        # the published Berger data does not satisfy the equations; the
        # CLI reports this honestly with exit code 1
        code, out, _ = run(
            capsys,
            ["verify-g2", "--family", "berger", "--t-start", "0.1",
             "--t-end", "0.9"],
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["max_ode_resid"] > 1.0

    @pytest.mark.parametrize(
        "argv, want_code",
        [
            (["verify-g2", "--family", "sine-cone", "--t-start", "0.1", "--t-end", "0.9",
              "--samples", "7"], 0),
            (["verify-g2", "--family", "sine-cone", "--t-start", "0.6", "--t-end", "1.0",
              "--samples", "9"], 0),
            (["--tol", "1e-3", "verify-g2", "--family", "berger"], 1),
        ],
        ids=["sine-cone-0.1-0.9", "sine-cone-0.6-1.0", "berger-tol-1e-3"],
    )
    def test_relative_bound_is_the_tolerance(self, capsys, monkeypatch, argv, want_code):
        # the residuals are relative, so the sine cone passes where |det P|
        # is far below the flow's halt (8e-8 at t = 0.633), and the bound
        # is the tolerance itself
        monkeypatch.delenv("NHF_TOL", raising=False)
        tol = float(argv[1]) if argv[0] == "--tol" else DEFAULT_TOL
        code, out, err = run(capsys, argv)
        assert (code, err) == (want_code, "")
        payload = json.loads(out)
        assert payload["passed"] is (want_code == 0)
        assert payload["bound"] == tol


@pytest.mark.parametrize(
    "t0, t1",
    [(0.05, 0.3), (0.3, -0.25), (-1.7, 2.9), (0.2, 0.2), (0.0, -0.0), (0.0, 5e-324),
     (0.0, 1.5e-323), (-1e308, 1e308), (1e-300, 3e-300)],
)
def test_sample_times_are_linspace(t0, t1):
    # verify-g2's sample times, including where the step underflows to 0
    # and where t1 - t0 overflows
    for n in (1, 2, 3, 7, 20, 101):
        with np.errstate(all="ignore"):
            want = np.linspace(t0, t1, n).tolist()
        got = list(cli._sample_times(t0, t1, n))
        assert np.array_equal(got, want, equal_nan=True)
        assert [np.signbit(x) for x in got] == [np.signbit(x) for x in want]


class TestUsage:
    def test_no_subcommand_exit2(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_exit2(self, capsys):
        assert main(["frobnicate"]) == 2


def fresh_python(code):
    """Run code in a new interpreter that imports nhflat from src; its
    stdout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_does_not_load_scipy_optimize():
    # nhflat does not depend on scipy, the root-solve sampler included
    code = (
        "import sys, nhflat, nhflat.cli; "
        "nhflat.sample_random_structure(0, method='root-solve'); "
        "print('scipy' in sys.modules)"
    )
    assert fresh_python(code).strip() == "False"


def test_check_classify_flow_do_not_load_numpy(tmp_path):
    # every subcommand runs on Python floats: numpy is imported neither by
    # `import nhflat` nor by any of the six commands (`family` with every
    # name), run on the nearly Kahler record and on a rotated w1w3 record;
    # nor are dataclasses and the inspect module it imports, since the
    # result records are NamedTuples
    rng = np.random.default_rng(5)
    records = {
        "nk": families.nearly_kahler(4.0),
        "w1w3": families.w1w3_family(0.01).rotated(random_rotation(rng), random_rotation(rng)),
    }
    paths = []
    for name, s in records.items():
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(s.to_record(), fh)
    csv = str(tmp_path / "x.csv")
    runs = [[c, p] for p in paths for c in ("check", "classify", "rotate")]
    runs += [["flow", p, "--t-end", "0.01", "--out", csv] for p in paths]
    runs += [
        ["family", "--name", "nk"],
        ["family", "--name", "w1", "--lambda", "1", "--p", "0.5"],
        ["family", "--name", "w1w3", "--a", "0.01", "--sign-p", "-1"],
        ["family", "--name", "zero-scalar", "--branch", "plus"],
        ["family", "--name", "berger", "--t", "0.3"],
        ["family", "--name", "sine-cone", "--t", "0.2"],
        ["verify-g2", "--family", "sine-cone"],
        ["verify-g2", "--family", "berger"],
    ]
    code = f"""
import contextlib, io, json, sys
import nhflat
def loaded():
    return [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
seen = [["import nhflat", 0, loaded()]]
from nhflat.cli import main
outs = []
for argv in {runs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    seen.append([argv[0], code, loaded()])
    outs.append(out.getvalue())
print(json.dumps([seen, outs]))
"""
    seen, outs = json.loads(fresh_python(code))
    # the Berger data fails verify-g2 as documented (TestVerifyG2)
    exits = [0] * (len(runs) - 1) + [1]
    assert seen == [["import nhflat", 0, []]] + [
        [argv[0], want, []] for argv, want in zip(runs, exits)
    ]
    assert json.loads(outs[runs.index(["family", "--name", "nk"])]) == (
        families.nearly_kahler(4.0).to_record()
    )


def test_subcommand_loads_only_its_modules(nk_record, bad_record, tmp_path):
    # one interpreter per subcommand, so that each sees only the modules
    # its own command imported: check, classify and rotate leave out flow
    # and its kernels, an invalid record needs no torsion and compiles no
    # torsion kernel, flow needs no torsion, verify-g2 reads flow's G2
    # pieces, and none loads csv: flow writes its rows itself
    base = ["nhflat", "nhflat._kernels", "nhflat.cli", "nhflat.coframe", "nhflat.errors",
            "nhflat.mat3", "nhflat.structure", "nhflat.tolerance"]
    torsion = base + ["nhflat._torsion_kernels", "nhflat.torsion"]
    runs = [
        (["check", nk_record], 0, torsion, False),
        (["check", bad_record], 1, base, False),
        (["classify", nk_record], 0, torsion, False),
        (["rotate", nk_record], 0, torsion, False),
        (["flow", nk_record, "--t-end", "0.01", "--out", str(tmp_path / "t.csv")], 0,
         base + ["nhflat._flow_kernels", "nhflat.flow"], False),
        (["verify-g2", "--family", "sine-cone"], 0,
         base + ["nhflat._flow_kernels", "nhflat.families", "nhflat.flow"], False),
    ]
    for argv, want_code, want_modules, want_csv in runs:
        code = f"""
import contextlib, io, json, sys
from nhflat.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "nhflat"),
                  "csv" in sys.modules]))
"""
        assert json.loads(fresh_python(code)) == [want_code, sorted(want_modules), want_csv], argv


def test_lazy_exports():
    # every name of __all__ resolves through the module __getattr__ of
    # nhflat (PEP 562) to the object of its defining module, is listed by
    # dir(nhflat) before it is loaded, and `from nhflat import *` binds it
    code = """
import importlib, json, sys
import nhflat
names = list(nhflat.__all__)
out = {"unloaded": [n for n in names if n in vars(nhflat)],
       "in_dir": all(n in dir(nhflat) for n in names)}
resolved = {n: getattr(nhflat, n) for n in names}
origin = {n: getattr(importlib.import_module("nhflat." + nhflat._ORIGIN[n]), n)
          for n in names if nhflat._ORIGIN[n]}
out["same_object"] = all(resolved[n] is v for n, v in origin.items())
out["modules"] = [resolved[n].__name__ for n in names if nhflat._ORIGIN[n] is None]
namespace = {}
exec("from nhflat import *", namespace)
out["star"] = sorted(n for n in namespace if not n.startswith("__")) == sorted(names)
try:
    nhflat.no_such_name
except AttributeError:
    out["missing_raises"] = True
print(json.dumps(out))
"""
    out = json.loads(fresh_python(code))
    assert out == {
        "unloaded": [],
        "in_dir": True,
        "same_object": True,
        "modules": ["nhflat.families", "nhflat.flow"],
        "star": True,
        "missing_raises": True,
    }
