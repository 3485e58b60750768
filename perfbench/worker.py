"""One benchmark process: set up one workload, then measure or trace it.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
BLAS pinned to one thread.  Prints one JSON object as its last line.

    python3 perfbench/worker.py --workload survey --seed 1 --seconds 30 \
        --trace 0 [--setup-only]
"""

import time

START = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402
import scipy  # noqa: E402

import nhflat  # noqa: E402
import nhflat.cli  # noqa: E402,F401 - every module must be loaded before tracing
from tracer import NAMES, Tracer  # noqa: E402
from workloads import KNOWN, OK, WORKLOADS, digest_of, percentile  # noqa: E402

PROBE_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def attempt(fn, i):
    """(answer, None) or (None, message): a failing operation is counted,
    never fatal."""
    try:
        return fn(i), None
    except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
        return None, f"input {i}: {type(exc).__name__}: {exc}"


def judge_all(wl, i, answer, error):
    if error is not None:
        return [error] * wl.invocations_per_op
    return wl.check(i, answer)


def tally(verdicts):
    """Attempted and failed invocations; failures other than the known
    defect are listed."""
    failed = [v for v in verdicts if v != OK]
    wrong = [v for v in failed if v != KNOWN]
    return {
        "attempted": len(verdicts),
        "failed": len(failed),
        "known_defect": len(failed) - len(wrong),
        "wrong": wrong,
    }


def measure(wl, seconds):
    """Closed loop, one client: whole passes over the inputs until the time
    is up, so every run measures the same mix of inputs."""
    clock = time.perf_counter
    latencies, verdicts, pass_s = [], [], []
    start = clock()
    while not pass_s or clock() - start < seconds:
        pass_start = clock()
        for i in range(len(wl.inputs)):
            t = clock()
            answer, error = attempt(wl.run, i)
            latencies.append(clock() - t)
            verdicts.extend(judge_all(wl, i, answer, error))
        pass_s.append(clock() - pass_start)
    wall = clock() - start
    ms = [1e3 * t for t in latencies]
    # The rate is over the whole run, not from the median pass: a shared
    # machine can switch between fast and slow spells of a few seconds, and a
    # median jumps between the two while the whole-run mean averages them.
    rate = len(pass_s) * len(wl.inputs) * wl.work_per_op / sum(pass_s)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    return {
        "passes": len(pass_s),
        "ops": len(latencies),
        "wall_s": wall,
        **tally(verdicts),
        "gated": {
            "throughput_per_s": rate,
            "peak_rss_mb": rss_mb,
        },
        "named": wl.named(ms, rate),
    }


def _run_repeatedly(argv, env):
    samples = []
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        samples.append((time.perf_counter() - t, proc))
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1:]} failed: {proc.stderr.strip()[-300:]}")
    return samples


def cli_split(wl, workdir, env):
    """Interpreter start, import and in-process ``check`` time of one CLI
    process, each a median over repeats."""
    interp = [t for t, _ in _run_repeatedly([sys.executable, "-c", "pass"], env)]
    timed_import = (
        "import time; t = time.perf_counter(); import nhflat; "
        "print(time.perf_counter() - t)"
    )
    imports = [
        float(p.stdout) for _, p in _run_repeatedly([sys.executable, "-c", timed_import], env)
    ]
    commands = []
    for k, rec in enumerate(wl.probe_records):
        path = os.path.join(workdir, f"probe_{k}.json")
        with open(path, "w") as fh:
            json.dump(rec, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            nhflat.cli.main(["check", path])  # warms caches; the second call is timed
            t = time.perf_counter()
            code = nhflat.cli.main(["check", path])
            commands.append(time.perf_counter() - t)
        if code != 0:
            raise RuntimeError(f"in-process check of probe record {k} exited {code}")
    return {
        "cli.interpreter_ms": 1e3 * statistics.median(interp),
        "cli.import_ms": 1e3 * statistics.median(imports),
        "cli.command_ms": 1e3 * statistics.median(commands),
    }


def trace(wl, seconds, workdir, env):
    """Run each input untraced and then traced, back to back, in whole passes.

    Counts are per operation over whole passes, so they repeat exactly for
    a seed; every pass must reproduce the first pass's counts.  The tracing
    overhead is the median over inputs of traced time / untraced time, each
    pair taken seconds apart so that the machine's drift cancels."""
    clock = time.perf_counter
    tracer = Tracer()
    verdicts, ratios, passes, first = [], [], 0, None
    start = clock()
    while passes == 0 or clock() - start < seconds:
        before = dict(tracer.calls)
        for i in range(len(wl.inputs)):
            t = clock()
            answer, error = attempt(wl.run_traced, i)
            plain_s = clock() - t
            verdicts.extend(judge_all(wl, i, answer, error))
            op_s = tracer.op_s
            with tracer.installed():
                answer, error = attempt(lambda k: tracer.run_op(wl.run_traced, k), i)
            ratios.append((tracer.op_s - op_s) / plain_s)
            verdicts.extend(judge_all(wl, i, answer, error))
        counts = {k: tracer.calls[k] - before[k] for k in NAMES}
        if first is None:
            first = counts
        elif counts != first:
            changed = sorted(k for k in NAMES if counts[k] != first[k])
            raise RuntimeError(f"call counts changed between identical passes: {changed}")
        passes += 1

    ops = tracer.ops
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = (tracer.calls[name] / ops, "count")
        metrics[f"{name}.self_ms"] = (1e3 * tracer.self_s[name] / ops, "ms")
        metrics[f"{name}.errors"] = (tracer.errors[name] / ops, "count")
    steps = ops * wl.steps_per_op
    verdict_count = ops * wl.verdicts_per_op
    metrics["flow.rhs_per_step"] = (
        tracer.calls["flow.flow_rhs"] / steps if steps else 0.0, "ratio"
    )
    metrics["structure.builds_per_op"] = (tracer.calls["structure.NhfStructure"] / ops, "ratio")
    metrics["torsion.classify_per_verdict"] = (
        tracer.calls["torsion.classify"] / verdict_count if verdict_count else 0.0, "ratio"
    )
    for name, value in cli_split(wl, workdir, env).items():
        metrics[name] = (value, "ms")
    metrics["trace.op_ms"] = (1e3 * tracer.op_s / ops, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    return {
        "passes": passes,
        "ops": ops,
        **tally(verdicts),
        "per_layer": metrics,
        "calls_per_pass": first,
    }


def main(argv=None):
    args = parse_args(argv)
    src = os.path.realpath(SRC)
    if not os.path.realpath(nhflat.__file__).startswith(src + os.sep):
        raise SystemExit(f"nhflat was imported from {nhflat.__file__}, not from {src}")
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl = WORKLOADS[args.workload](numpy.random.default_rng(args.seed), workdir, env)
        wl.warm_up()
        setup_s = time.perf_counter() - START
        out = {
            "setup_s": setup_s,
            "env": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "input_digest": digest_of(wl.inputs),
                "inputs_per_pass": len(wl.inputs),
            },
        }
        if not args.setup_only:
            if args.trace:
                out.update(trace(wl, args.seconds, workdir, env))
            else:
                out.update(measure(wl, args.seconds))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
