"""Command line interface.

Subcommands: check, classify, flow, family, rotate, verify-g2.
Exit codes: 0 pass, 1 invalid structure / failed verification, 2 usage or
parse error, 3 flow singularity.  A usage error prints one line
``error: ...`` on stderr.

Tolerances are relative: every verdict divides a residual by the size of
the terms it compares and passes when the quotient is at most the
tolerance, so it does not depend on the scale of the structure.  The
residuals that ``check``, ``classify`` and ``rotate`` report are these
relative residuals.  ``--tol`` or else the environment variable NHF_TOL
overrides the default tolerance; a value that is not a finite number
> 0 exits 2.  Other usage errors that exit 2: a record with a non-finite
number, ``flow`` with a zero or non-finite ``--h``, ``--record-every``
below 1, a non-finite ``--t-start`` / ``--t-end`` or more than
``flow.MAX_STEPS`` steps, ``family`` without the option its ``--name``
needs or with a parameter at which the closed form under- or overflows,
and ``verify-g2`` with ``--samples`` below 1 or a non-finite
``--t-start`` / ``--t-end``.  Output JSON is strict: a result with a
non-finite number exits 1 instead of printing NaN or Infinity.

Every subcommand runs on Python floats and none imports numpy.  A Python
float's division by zero or overflowing power raises ArithmeticError,
which exits 1 as a numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from nhflat import flow
from nhflat.mat3 import flat9
from nhflat.structure import (
    DEFAULT_TOL,
    NhfStructure,
    StructureError,
    InvalidStructureError,
    three_form_coeffs,
)
from nhflat import torsion as torsion_mod
from nhflat.tolerance import max_abs

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


def _dumps(payload, **kwargs) -> str:
    """Strict JSON text of payload; a non-finite number exits 1."""
    try:
        return json.dumps(payload, allow_nan=False, sort_keys=True, **kwargs)
    except ValueError:
        print("error: the result has a non-finite number; not written", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _emit(payload, out=None):
    text = _dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
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
        data = torsion_mod.extract_torsion(s, tol)
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
    tol = _tolerance(args)
    s = _load_structure(args.input)
    report = s.validate(tol=tol)
    if not report.passed:
        _emit({"valid": False, "failing": report.failing()}, args.out)
        return EXIT_INVALID
    cls = torsion_mod.classify(s, tol=max(tol, torsion_mod.CLASSIFY_TOL))
    _emit(
        {
            "class": cls.label,
            "nearly_kahler": cls.nearly_kahler,
            "predicate_residuals": dict(cls.predicate_residuals),
            "w1plus": torsion_mod.w1_plus(s),
            "w1minus": s.w1_minus,
            "s": torsion_mod.scalar_curvature(s, tol=tol),
        },
        args.out,
    )
    return EXIT_OK


def cmd_flow(args) -> int:
    try:
        flow.check_step(args.h, args.record_every, args.t_start, args.t_end)
    except ValueError as exc:
        _usage_error(str(exc))
    tol = _tolerance(args)
    # every input is loaded and validated before any is integrated, so a
    # bad input leaves no partial output behind
    structures = []
    for path in args.input:
        s = _load_structure(path)
        report = s.validate(tol=tol)
        if not report.passed:
            print(
                f"error: initial structure invalid "
                f"(worst residual {report.worst[1]:.3e} in {report.worst[0]})",
                file=sys.stderr,
            )
            return EXIT_INVALID
        structures.append(s)
    batch = len(structures) > 1
    code = EXIT_OK
    summaries = []
    for k, s in enumerate(structures):
        try:
            traj = flow.integrate(
                s, args.t_start, args.t_end, h=args.h,
                record_every=args.record_every, tol=tol,
            )
        except flow.FlowSingularityError as exc:
            traj = exc.trajectory
            summary = traj.to_record() if traj.samples else {}
            summary["terminated"] = "singular"
            summary["last_good_t"] = float(traj.samples[-1].t) if traj.samples else None
            print(f"flow singularity near t = {exc.t:.6f}", file=sys.stderr)
            summaries.append(summary)
            code = EXIT_SINGULAR
            if args.out and traj.samples:
                traj.to_csv(_batch_path(args.out, k, batch))
            continue
        summaries.append(traj.to_record())
        if args.out:
            traj.to_csv(_batch_path(args.out, k, batch))
        else:
            sys.stdout.write(traj.to_csv())
    for text in [_dumps(summary) for summary in summaries]:
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
    tol = _tolerance(args)
    s = _load_structure(args.input)
    report = s.validate(tol=tol)
    if not report.passed:
        _emit({"valid": False, "failing": report.failing()}, args.out)
        return EXIT_INVALID
    try:
        theta, gamma_theta, residual = torsion_mod.rotate_to_half_flat(s, tol=tol)
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


def _sample_times(t0: float, t1: float, n: int) -> list:
    """np.linspace(t0, t1, n), to the bit: t0 + k (t1 - t0) / (n - 1), the
    last point t1."""
    if n == 1:
        return [0.0 * (t1 - t0) + t0]
    step = (t1 - t0) / (n - 1)
    if step == 0:  # numpy's order where the step underflows
        return [k / (n - 1) * (t1 - t0) + t0 for k in range(n - 1)] + [t1]
    return [k * step + t0 for k in range(n - 1)] + [t1]


def cmd_verify_g2(args) -> int:
    """Check the nearly parallel G2 equations along a closed-form trajectory.

    Evaluates the trajectory and its analytic derivative at interior
    samples, reporting the evolution ODE residual and the max-abs residual
    of d(phi) = lambda psi, d(psi) = 0."""
    from nhflat import families

    tol = _tolerance(args)
    if args.samples < 1:
        _usage_error(f"--samples must be at least 1, got {args.samples}")
    t0, t1 = args.t_start, args.t_end
    if not (math.isfinite(t0) and math.isfinite(t1)):
        _usage_error(f"--t-start and --t-end must be finite, got {t0} and {t1}")
    if args.family == "sine-cone":
        member, deriv = families.sine_cone_trajectory, families.sine_cone_derivative
    else:
        member, deriv = families.berger_trajectory, families.berger_derivative
    worst_ode = 0.0
    worst_g2 = 0.0
    worst_valid = 0.0
    for t in _sample_times(t0, t1, args.samples):
        s = member(t)
        worst_valid = max(worst_valid, s.validate().worst[1])
        da, db, dQ1, dQ2 = deriv(t)
        m = s.m9
        try:
            r = flow._stage(s.lam, [s.a, s.b] + m.q1 + m.q2, s.orientation)
            ode = max_abs([u - v for u, v in zip([da, db] + flat9(dQ1) + flat9(dQ2), r)])
            g2 = flow.g2_residual(s, da, db, dQ1, dQ2)
        except StructureError as exc:
            print(f"error at t = {t:.4f}: {exc}", file=sys.stderr)
            return EXIT_INVALID
        worst_ode = max(worst_ode, ode)
        worst_g2 = max(worst_g2, g2)
    bound = max(tol, 1e-6)
    ok = worst_ode <= bound and worst_g2 <= bound and worst_valid <= bound
    _emit(
        {
            "family": args.family,
            "t_start": t0,
            "t_end": t1,
            "samples": args.samples,
            "max_validation_resid": worst_valid,
            "max_ode_resid": worst_ode,
            "max_g2_resid": worst_g2,
            "bound": bound,
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
    except flow.FlowSingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
