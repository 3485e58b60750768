"""Command line interface.

Subcommands: check, classify, flow, family, rotate, verify-g2.
Exit codes: 0 pass, 1 invalid structure / failed verification, 2 usage or
parse error, 3 flow singularity (the samples recorded before it are
written as a completed run's are, and stderr has one line
``flow singularity near t = ...: <reason>`` for each input that halted).
A usage error prints one line ``error: ...`` on stderr.

Tolerances are relative: every verdict divides a residual by the size of
the terms it compares and passes when the quotient is at most the
tolerance, so it does not depend on the scale of the structure.  The
residuals that ``check``, ``classify``, ``rotate`` and ``verify-g2``
report are these relative residuals, and ``verify-g2``'s ``bound`` is
the tolerance itself.  ``--tol`` or else the environment variable
NHF_TOL overrides the default tolerance of every verdict of ``check``,
``classify``, ``flow``, ``rotate`` and ``verify-g2``, the torsion class
included; a value that is not a finite number > 0 exits 2.  ``--tol`` is
an option of ``nhflat`` itself and goes before the subcommand:
``nhflat --tol 1e-6 check rec.json``, not ``nhflat check rec.json --tol
1e-6``, which exits 2 with ``unrecognized arguments``.  Other
usage errors that exit 2: a record with a non-finite number, ``flow``
with a zero or non-finite ``--h``, ``--record-every`` below 1, a
non-finite ``--t-start`` / ``--t-end`` or more than ``flow.MAX_STEPS``
steps, ``family`` without the option its ``--name`` needs or with a
parameter at which the closed form under- or overflows, ``verify-g2``
with ``--samples`` below 1 or above ``flow.MAX_STEPS`` or a non-finite
``--t-start`` / ``--t-end``, ``flow`` with several inputs and no
``--out`` (their CSVs would run together on stdout; with ``--out`` each
input gets a file), and an ``--out`` path that cannot be written
(``flow`` checks its arguments and paths before it integrates).  Output
JSON is strict: a result with a non-finite number exits 1 instead of
printing NaN or Infinity.

Every subcommand runs on Python floats and none imports numpy.  A Python
float's division by zero or overflowing power raises ArithmeticError,
which exits 1 as a numerical failure.

Each subcommand imports the nhflat modules it runs inside its own
function, so a process loads only those beside ``structure`` and its
helpers: ``check`` (for a valid record), ``classify`` and ``rotate`` load
``torsion`` and its generated kernel ``_torsion_kernels``, ``flow``
loads ``flow`` and ``_flow_kernels``, ``family`` loads ``families`` and
``verify-g2`` ``families``, ``flow`` and ``_flow_kernels``.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

from nhflat.structure import (
    DEFAULT_TOL,
    NhfStructure,
    StructureError,
    InvalidStructureError,
    three_form_coeffs,
)
from nhflat.tolerance import badness

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _tolerance(args) -> float:
    """--tol, else NHF_TOL, else DEFAULT_TOL; a finite number > 0."""
    text, source = getattr(args, "tol", None), "--tol"
    if text is None:
        text, source = os.environ.get("NHF_TOL") or None, "NHF_TOL"
    if text is None:
        return DEFAULT_TOL
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        _usage_error(f"{source} must be a finite number > 0, got {text!r}")
    return tol


def _load_structure(path: str) -> NhfStructure:
    try:
        if path == "-":
            rec = json.load(sys.stdin)
        else:
            with open(path) as fh:
                rec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _usage_error(f"cannot read structure record: {exc}")
    try:
        return NhfStructure.from_record(rec)
    except StructureError as exc:
        _usage_error(str(exc))


def _load_valid(args):
    """The structure of args.input and the tolerance of args; if the
    structure fails validation, emit {"valid": false, "failing": [...]}
    and exit 1."""
    tol = _tolerance(args)
    s = _load_structure(args.input)
    report = s.validate(tol=tol)
    if not report.passed:
        _emit({"valid": False, "failing": report.failing()}, args.out)
        raise SystemExit(EXIT_INVALID)
    return s, tol


def _dumps(payload, **kwargs) -> str:
    """Strict JSON text of payload; a non-finite number exits 1."""
    try:
        return json.dumps(payload, allow_nan=False, sort_keys=True, **kwargs)
    except ValueError:
        print("error: the result has a non-finite number; not written", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _write(path: str, text: str) -> None:
    """Write text to the file path; a path that cannot be written exits 2."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _usage_error(f"cannot write output: {exc}")


def _check_writable(path: str) -> None:
    """Exit 2 as `_write` would if path cannot be written, creating nothing:
    the path must not be a directory, and it or else its directory must be
    writable."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    _usage_error(f"cannot write output: {OSError(code, os.strerror(code), path)}")


def _emit(payload, out=None):
    text = _dumps(payload, indent=2)
    if out:
        _write(out, text + "\n")
    else:
        print(text)


def cmd_check(args) -> int:
    tol = _tolerance(args)
    s = _load_structure(args.input)
    report = s.validate(tol=tol)
    payload = {
        "residuals": dict(report.residuals),
        "metric_spd": report.metric_spd,
        "valid": report.passed,
        "tolerance": tol,
    }
    if report.passed:
        from nhflat import torsion

        data = torsion.extract_torsion(s, tol)
        payload.update(
            {
                "class": data.class_label,
                "w1plus": data.w1plus,
                "w1minus": data.w1minus,
                "s": data.s,
            }
        )
    else:
        payload["failing"] = report.failing()
    _emit(payload, args.out)
    return EXIT_OK if report.passed else EXIT_INVALID


def cmd_classify(args) -> int:
    from nhflat import torsion

    s, tol = _load_valid(args)
    data = torsion.extract_torsion(s, tol)
    _emit(
        {
            "class": data.class_label,
            "nearly_kahler": data.report.nearly_kahler,
            "predicate_residuals": dict(data.report.predicate_residuals),
            "w1plus": data.w1plus,
            "w1minus": data.w1minus,
            "s": data.s,
        },
        args.out,
    )
    return EXIT_OK


def cmd_flow(args) -> int:
    from nhflat import flow

    try:
        flow.check_step(args.h, args.record_every, args.t_start, args.t_end)
    except ValueError as exc:
        _usage_error(str(exc))
    if len(args.input) > 1 and not args.out:
        _usage_error("flow with several inputs needs --out, one CSV file per input")
    tol = _tolerance(args)
    # every input is loaded and validated, and every output path checked,
    # before any is integrated, so a bad input or path exits at once and
    # leaves no partial output behind
    structures = []
    for path in args.input:
        s = _load_structure(path)
        # InvalidStructureError: `main` prints it and exits 1
        flow.check_initial(s, tol)
        structures.append(s)
    batch = len(structures) > 1
    if args.out:
        for k in range(len(structures)):
            _check_writable(_batch_path(args.out, k, batch))
    # stderr is written last, so that an unwritable --out is its one line
    code, notes, summaries = EXIT_OK, [], []
    for k, s in enumerate(structures):
        traj = flow.integrate(
            s, args.t_start, args.t_end, h=args.h,
            record_every=args.record_every, tol=tol,
        )
        summary = traj.to_record()
        if traj.halt is not None:
            summary["last_good_t"] = float(traj.samples[-1].t) if traj.samples else None
            notes.append(f"flow singularity near t = {traj.halt[0]:.6f}: {traj.halt[1]}")
            code = EXIT_SINGULAR
        summaries.append(summary)
        if not traj.samples:
            continue
        if args.out:
            _write(_batch_path(args.out, k, batch), traj.to_csv())
        else:
            sys.stdout.write(traj.to_csv())
    for text in notes + [_dumps(summary) for summary in summaries]:
        print(text, file=sys.stderr)
    return code


def _batch_path(out: str, index: int, batch: bool) -> str:
    if not batch:
        return out
    root, ext = os.path.splitext(out)
    return f"{root}_{index}{ext or '.csv'}"


def cmd_family(args) -> int:
    from nhflat import families

    name = args.name
    # the option each family reads, which has no default
    need = {"w1": "p", "w1w3": "a", "zero-scalar": "branch", "berger": "t", "sine-cone": "t"}
    if name in need and getattr(args, need[name]) is None:
        _usage_error(f"{name} requires --{need[name]}")
    try:
        if name == "nk":
            members = [families.nearly_kahler(args.lam, sign_p=args.sign_p)]
        elif name == "w1":
            members = [families.w1_family(args.lam, args.p, sign_q=args.sign_q)]
        elif name == "w1w3":
            members = [families.w1w3_family(args.a, sign_p=args.sign_p)]
        elif name == "zero-scalar":
            members = families.zero_scalar_family(args.branch)
        elif name == "berger":
            members = [families.berger_trajectory(args.t)]
        else:
            members = [families.sine_cone_trajectory(args.t, sign_p=args.sign_p)]
    except StructureError as exc:
        _usage_error(str(exc))
    records = [m.to_record() for m in members]
    _emit(records if len(records) != 1 else records[0], args.out)
    return EXIT_OK


def cmd_rotate(args) -> int:
    from nhflat import torsion

    s, tol = _load_valid(args)
    try:
        theta, gamma_theta, residual = torsion.rotate_to_half_flat(s, tol=tol)
    except InvalidStructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _emit(
        {
            "theta": theta,
            "dgamma_theta_max": residual,
            "gamma_theta": three_form_coeffs(gamma_theta),
        },
        args.out,
    )
    return EXIT_OK if residual <= tol else EXIT_INVALID


def _sample_times(t0: float, t1: float, n: int):
    """The points of np.linspace(t0, t1, n), to the bit, one at a time:
    t0 + k (t1 - t0) / (n - 1), the last point t1."""
    if n == 1:
        yield 0.0 * (t1 - t0) + t0
        return
    step = (t1 - t0) / (n - 1)
    for k in range(n - 1):
        # where the step underflows to 0, numpy scales k / (n - 1) instead
        yield (k * step if step else k / (n - 1) * (t1 - t0)) + t0
    yield t1


def cmd_verify_g2(args) -> int:
    """Check the nearly parallel G2 equations along a closed-form trajectory.

    Evaluates the trajectory and its analytic derivative at the sample
    times: the worst `validate` residual, the relative evolution piece of
    `flow.g2_pieces` and the larger of its two pieces.  Passes when every
    member is valid at tol and both pieces are at most tol."""
    from nhflat import families, flow

    tol = _tolerance(args)
    if not 1 <= args.samples <= flow.MAX_STEPS:
        _usage_error(f"--samples must lie in [1, {flow.MAX_STEPS:.0e}], got {args.samples}")
    t0, t1 = args.t_start, args.t_end
    if not (math.isfinite(t0) and math.isfinite(t1)):
        _usage_error(f"--t-start and --t-end must be finite, got {t0} and {t1}")
    if args.family == "sine-cone":
        member, deriv = families.sine_cone_trajectory, families.sine_cone_derivative
    else:
        member, deriv = families.berger_trajectory, families.berger_derivative
    valid, worst_valid, worst_ode, worst_g2 = True, 0.0, 0.0, 0.0
    for t in _sample_times(t0, t1, args.samples):
        s = member(t)
        report = s.validate(tol)
        valid = valid and report.passed
        worst_valid = max(worst_valid, report.worst[1], key=badness)
        ode, closure = flow.g2_pieces(s, *deriv(t))
        worst_ode = max(worst_ode, ode, key=badness)
        worst_g2 = max(worst_g2, ode, closure, key=badness)
    ok = valid and worst_ode <= tol and worst_g2 <= tol
    _emit(
        {
            "family": args.family,
            "t_start": t0,
            "t_end": t1,
            "samples": args.samples,
            "max_validation_resid": worst_valid,
            "max_ode_resid": worst_ode,
            "max_g2_resid": worst_g2,
            "bound": tol,
            "passed": ok,
        },
        args.out,
    )
    return EXIT_OK if ok else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhflat",
        description="Invariant nearly half-flat SU(3)-structures on S3 x S3",
    )
    parser.add_argument(
        "--tol",
        default=None,
        help="relative tolerance of every verdict, a finite number > 0 "
        f"(default: NHF_TOL, else {DEFAULT_TOL:g})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a structure record and report torsion")
    p.add_argument("input", help="JSON structure record ('-' for stdin)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="torsion class of a structure record")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("flow", help="integrate the evolution equations")
    p.add_argument("input", nargs="+", help="initial structure record(s)")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--h", type=float, default=1e-3, help="RK4 step size")
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument(
        "--out",
        default=None,
        help="trajectory CSV path; with several inputs, <root>_<k>.csv per input",
    )
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("family", help="emit closed-form family members")
    p.add_argument(
        "--name",
        required=True,
        choices=["nk", "w1", "w1w3", "zero-scalar", "berger", "sine-cone"],
    )
    p.add_argument("--lambda", dest="lam", type=float, default=4.0)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--branch", choices=["plus", "minus"], default=None)
    p.add_argument("--sign-p", type=int, choices=[-1, 1], default=1)
    p.add_argument("--sign-q", type=int, choices=[-1, 1], default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("rotate", help="rotate gamma to a closed (half-flat) form")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser(
        "verify-g2", help="nearly parallel G2 residuals of a closed-form trajectory"
    )
    p.add_argument("--family", required=True, choices=["sine-cone", "berger"])
    p.add_argument("--t-start", type=float, default=0.05)
    p.add_argument("--t-end", type=float, default=0.3)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_g2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
