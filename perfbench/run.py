"""nhflat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload survey|flow|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 a separate traced run reports the
per-layer metrics.  Every answer is checked against a reference.  Human
readable lines come first; the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See perfbench/README.md for the workloads, metrics and known defects.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("survey", "flow", "cli")
# Set-up is repeated in fresh processes and reported as the median.  Half
# of the repeats run before the measured run and half after it, so that the
# samples span the whole run and a slow spell of a few seconds, which a
# shared machine can have, moves the median less.
SETUP_REPEATS = 5
# Set-ups and the measured run together must end within 180 s.
SETUP_TIMEOUT_S = 15
RUN_GRACE_S = 80
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="nhflat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    return parser.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha(root):
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_worker(args, env, timeout, setup_only=False):
    argv = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    # The worker leads its own process group, so a timeout also ends the CLI
    # processes it may have started.
    with subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"worker did not finish within {timeout} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def report_line(name, value, unit, note=""):
    print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nhflat", "__init__.py")):
        fail(f"no nhflat sources under {src}; run from the root of a checkout")
    env = dict(os.environ, PYTHONPATH=src, **BLAS_THREADS)

    def setups(n):
        return [run_worker(args, env, SETUP_TIMEOUT_S, True)["setup_s"] for _ in range(n)]

    extra = 0 if args.trace else SETUP_REPEATS - 1
    setup_samples = setups(extra // 2)
    result = run_worker(args, env, args.seconds + RUN_GRACE_S)
    setup_samples += [result["setup_s"]] + setups(extra - extra // 2)

    attempted, failed, wrong = result["attempted"], result["failed"], result["wrong"]
    error_rate = failed / attempted
    environment = dict(
        result["env"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_sha=git_sha(root),
        nproc=os.cpu_count(),
        blas_threads=BLAS_THREADS,
        setup_repeats=len(setup_samples),
        passes=result["passes"],
        ops=result["ops"],
        attempted=attempted,
    )

    print(f"nhflat benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["per_layer"].items()}
        print(f"per-layer metrics, per operation ({result['ops']} traced operations):")
        for name, m in metrics.items():
            report_line(name, m["value"], m["unit"])
        print("calls per pass: " + json.dumps(result["calls_per_pass"], sort_keys=True))
    else:
        setup_s = statistics.median(setup_samples)
        print(f"end-to-end metrics ({result['ops']} operations in {result['wall_s']:.1f} s):")
        report_line("setup_s", setup_s, "s", f"median of {len(setup_samples)} set-ups")
        for name, (value, unit, n) in result["named"].items():
            report_line(name, value, unit, f"n={n}")
        report_line("error_rate", error_rate, "ratio", f"n={attempted}")
        gated = dict(result["gated"], setup_s=setup_s, success_rate=1.0 - error_rate)
        units = {
            "setup_s": "s", "throughput_per_s": "1/s",
            "success_rate": "ratio", "peak_rss_mb": "MB",
        }
        metrics = {k: {"value": gated[k], "unit": u} for k, u in units.items()}
        report_line("peak_rss_mb", gated["peak_rss_mb"], "MB")
    if result["known_defect"]:
        print(
            f"known defect: {result['known_defect']} of {attempted} answers are rotated "
            "w1w3 records labelled W1-+W2-+W3 instead of W1-+W3 (counted as failed)"
        )
    for message in wrong[:10]:
        print(f"WRONG: {message}")
    print(
        json.dumps(
            {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


if __name__ == "__main__":
    main()
