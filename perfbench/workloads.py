"""The benchmark's three workloads.

Each workload makes its inputs from the seed through the public API
(``families.*``, ``structure.random_rotation`` and ``NhfStructure.rotated``),
hands the program only the resulting records, and checks every answer
against a reference fixed at set-up.  See README.md for why each workload
exists and which layers it stresses.

A workload exposes ``inputs`` (one pass), ``warm_up()``, ``run(i)`` (the
timed operation on input i), ``run_traced(i)`` (the same operation in this
process, for the traced run), ``check(i, answer)`` (one verdict per program
invocation), ``named(latencies_ms, rate)`` (its metrics under their roadmap
names) and the work it does per operation, for rates and traced ratios.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from nhflat import cli, families, flow, torsion
from nhflat.structure import NhfStructure, random_rotation

FAMILIES = ("nk", "w1", "w1w3", "zero-scalar", "sine-cone")
# One record in six of each family is left unrotated, so P and Q stay
# diagonal: wedge skips zero coefficients and runs faster on those.
UNROTATED_EVERY = 6
SQRT3 = math.sqrt(3.0)
# w1+ and s of a record must match its unrotated member to this relative
# tolerance (rotation moves them by ~1e-13).
ANSWER_RTOL = 1e-7
# The classifier's own threshold on |w1+|, used to predict the sine-cone label.
CLASSIFY_TOL = 1e-7
# The known defect: a rotated w1w3 member is labelled W1-+W2-+W3 because the
# w2- = 0 predicate divides roundoff by a near-zero magnitude.  It is counted
# as a failure, but does not make the run incorrect.
KNOWN_DEFECT = ("w1w3", "W1-+W3", "W1-+W2-+W3")

OK, KNOWN = "ok", "known-defect"

LAUNCH = "import sys; from nhflat.cli import main; sys.exit(main())"
PROCESS_TIMEOUT_S = 120


@dataclass
class Answer:
    valid: bool
    label: str
    w1plus: float
    s: float


@dataclass
class Record:
    family: str
    rotated: bool
    record: dict  # what the program receives
    base: NhfStructure  # the unrotated family member
    rotation: tuple  # (g, h) in SO(3) x SO(3), identity when unrotated
    ref: Answer = None
    ref_error: str = ""  # set when the reference contradicts the closed form


def _family_member(name, rng):
    """One member of a closed-form family, drawn from the parameter ranges of
    the library's own sampler, with its closed-form label, w1+ (None where
    the family has none) and s as a function of w1+."""
    if name == "nk":
        lam = rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0])
        return families.nearly_kahler(lam), "W1-", 0.0, lambda w: 15.0 * lam**2 / 8.0
    if name == "w1":
        lam = rng.uniform(0.5, 3.0)
        p = rng.uniform(0.15, 0.95) * 4.0 * SQRT3 / (9.0 * lam * lam)
        member = families.w1_family(lam, p, sign_q=int(rng.choice([-1, 1])))
        return member, "W1", None, lambda w: 10.0 / 3.0 * w * w + 15.0 * lam**2 / 8.0
    if name == "w1w3":
        a = 1.0 / 256.0 + rng.uniform(0.002, 0.05)
        member = families.w1w3_family(a, sign_p=int(rng.choice([-1, 1])))
        # |w3|^2 / 2 = 12 along the whole family, so s = 30 - 12
        return member, "W1-+W3", 0.0, lambda w: 18.0
    if name == "zero-scalar":
        p = rng.uniform(0.1, 0.6) * rng.choice([-1.0, 1.0])
        inner = int(rng.choice([-1, 1]))
        if 36.0 * p * p + inner * 3.0 * SQRT3 * p < 0:
            inner = -inner
        member = families.zero_scalar_structure(p, inner, sign_q=int(rng.choice([-1, 1])))
        return member, "W1+W3", None, lambda w: families.zero_scalar_s(p, inner)
    t = rng.uniform(-0.35, 0.35)
    w1p = -6.0 * math.tan(2.0 * t)
    label = "W1-" if abs(w1p) <= CLASSIFY_TOL else "W1"
    return families.sine_cone_trajectory(t), label, w1p, lambda w: 10.0 / 3.0 * w * w + 30.0


def _close(x, y, rtol=ANSWER_RTOL):
    return abs(x - y) <= rtol * max(1.0, abs(y))


def analyse(structure) -> Answer:
    """Validity, class label, w1+ and s, the survey's answer."""
    passed = structure.validate().passed
    data = torsion.extract_torsion(structure)
    return Answer(passed, data.class_label, data.w1plus, data.s)


def make_records(rng, n):
    """n records, families in turn, most transported by a random rotation.

    The reference answer of each is that of its unrotated member, computed
    here and checked against the family's closed form."""
    records = []
    for i in range(n):
        family = FAMILIES[i % len(FAMILIES)]
        base, label, w1p, s_of = _family_member(family, rng)
        rotated = (i // len(FAMILIES)) % UNROTATED_EVERY != UNROTATED_EVERY - 1
        if rotated:
            g, h = random_rotation(rng), random_rotation(rng)
            structure = base.rotated(g, h)
        else:
            g = h = np.eye(3)
            structure = base
        rec = Record(family, rotated, structure.to_record(), base, (g, h))
        rec.ref = analyse(base)
        if not (
            rec.ref.valid
            and rec.ref.label == label
            and (w1p is None or _close(rec.ref.w1plus, w1p))
            and _close(rec.ref.s, s_of(rec.ref.w1plus))
        ):
            rec.ref_error = (
                f"{family} member {rec.ref} contradicts its closed form "
                f"(label {label}, w1+ {w1p}, s {s_of(rec.ref.w1plus)})"
            )
        records.append(rec)
    return records


def judge(rec: Record, got: Answer) -> str:
    """OK, KNOWN, or a one-line description of the wrong answer."""
    if rec.ref_error:
        return rec.ref_error
    ref = rec.ref
    numbers = got.valid == ref.valid and _close(got.w1plus, ref.w1plus) and _close(got.s, ref.s)
    if numbers and got.label == ref.label:
        return OK
    if numbers and rec.rotated and (rec.family, ref.label, got.label) == KNOWN_DEFECT:
        return KNOWN
    return f"{rec.family} (rotated={rec.rotated}): expected {ref}, got {got}"


def percentile(values, q):
    """The q-th percentile (q in 1..99) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def digest_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Survey:
    """Structure records through from_record, validate and extract_torsion."""

    name = "survey"
    POOL = 60

    def __init__(self, rng, workdir, env):
        self.records = make_records(rng, self.POOL)
        self.inputs = [r.record for r in self.records]
        self.probe_records = self.inputs[: len(FAMILIES)]
        self.invocations_per_op = 1
        self.work_per_op = 1
        self.steps_per_op = 0
        self.verdicts_per_op = 1

    def warm_up(self):
        for i in range(len(FAMILIES)):
            self.run(i)

    def run(self, i):
        return analyse(NhfStructure.from_record(self.inputs[i]))

    run_traced = run

    def named(self, latencies_ms, rate):
        return {
            "structures_per_s": (rate, "1/s", len(latencies_ms)),
            "structure_p50_ms": (percentile(latencies_ms, 50), "ms", len(latencies_ms)),
            "structure_p90_ms": (percentile(latencies_ms, 90), "ms", len(latencies_ms)),
        }

    def check(self, i, answer):
        return [judge(self.records[i], answer)]


class Flow:
    """RK4 from the nearly Kahler point at lambda = 4 along the sine cone."""

    name = "flow"
    H = 1e-3
    STEPS = 300
    RECORD_EVERY = 50
    END_TOL = 1e-9  # observed end-state error is ~2e-12
    G2_TOL = 1e-6

    def __init__(self, rng, workdir, env):
        combos = [(1, 1), (1, -1), (-1, 1), (-1, -1)]  # (sign_p, direction)
        self.inputs, self.starts, self.ends, self.t_ends = [], [], [], []
        for k in rng.permutation(len(combos)):
            sign_p, direction = combos[k]
            g, h = random_rotation(rng), random_rotation(rng)
            t_end = direction * self.H * self.STEPS
            record = families.nearly_kahler(4.0, sign_p).rotated(g, h).to_record()
            self.inputs.append(record)
            self.starts.append(NhfStructure.from_record(record))
            self.ends.append(families.sine_cone_trajectory(t_end, sign_p).rotated(g, h))
            self.t_ends.append(t_end)
        self.probe_records = self.inputs
        self.invocations_per_op = 1
        self.work_per_op = self.STEPS
        self.steps_per_op = self.STEPS
        self.verdicts_per_op = 0

    def warm_up(self):
        flow.integrate(self.starts[0], 0.0, 10 * self.H, h=self.H)

    def named(self, latencies_ms, rate):
        return {
            "rk4_steps_per_s": (rate, "1/s", len(latencies_ms) * self.STEPS),
            "trajectory_p50_ms": (percentile(latencies_ms, 50), "ms", len(latencies_ms)),
        }

    def run(self, i):
        return flow.integrate(
            self.starts[i], 0.0, self.t_ends[i], h=self.H, record_every=self.RECORD_EVERY
        )

    run_traced = run

    def check(self, i, traj):
        end, ref = traj.samples[-1], self.ends[i]
        err = max(
            abs(end.structure.a - ref.a),
            abs(end.structure.b - ref.b),
            float(np.max(np.abs(end.structure.P - ref.P))),
            float(np.max(np.abs(end.structure.Q - ref.Q))),
        )
        g2 = traj.to_record()["max_g2_resid"]
        problems = []
        if traj.terminated != "completed":
            problems.append(f"terminated {traj.terminated}")
        if len(traj.samples) != self.STEPS // self.RECORD_EVERY + 1:
            problems.append(f"{len(traj.samples)} samples")
        if not abs(end.t - self.t_ends[i]) <= 1e-12:
            problems.append(f"ends at t = {end.t}")
        if not err <= self.END_TOL:
            problems.append(f"end state off the sine cone by {err:.3e}")
        if not g2 <= self.G2_TOL:
            problems.append(f"g2 residual {g2:.3e}")
        return [OK if not problems else f"trajectory {i}: " + ", ".join(problems)]


class Cli:
    """The console entry point as a subprocess: check, classify and flow."""

    name = "cli"
    POOL = len(FAMILIES)
    T_END = 0.05
    H = 1e-3
    COMMANDS = ("check", "classify", "flow")
    STATE_TOL = 1e-8

    def __init__(self, rng, workdir, env):
        self.env = env
        self.records = make_records(rng, self.POOL)
        self.inputs = [r.record for r in self.records]
        self.probe_records = self.inputs
        self.paths, self.csvs, self.flow_ends = [], [], []
        for i, rec in enumerate(self.records):
            path = os.path.join(workdir, f"record_{i}.json")
            with open(path, "w") as fh:
                json.dump(rec.record, fh)
            self.paths.append(path)
            self.csvs.append(os.path.join(workdir, f"trajectory_{i}.csv"))
            # Reference end state: the unrotated member's flow, transported.
            traj = flow.integrate(rec.base, 0.0, self.T_END, h=self.H, record_every=50)
            end = traj.samples[-1].structure
            g, h = rec.rotation
            self.flow_ends.append(
                [end.a, end.b]
                + list((g @ end.Q1 @ h.T).ravel())
                + list((g @ end.Q2 @ h.T).ravel())
                + list((g @ end.P @ h.T).ravel())
            )
        self.invocations_per_op = len(self.COMMANDS)
        self.work_per_op = len(self.COMMANDS)
        self.steps_per_op = round(self.T_END / self.H)
        self.verdicts_per_op = 2  # check and classify each print a class
        self.command_s = {c: [] for c in self.COMMANDS}

    def argv(self, i, command):
        if command == "flow":
            return [
                "flow", self.paths[i], "--t-end", str(self.T_END),
                "--record-every", "1", "--out", self.csvs[i],
            ]
        return [command, self.paths[i]]

    def warm_up(self):
        # Nothing to warm: importing nhflat in this process has already
        # compiled the sources and read them into the page cache, and each
        # CLI process starts cold anyway.
        pass

    def _process(self, argv):
        try:
            proc = subprocess.run(
                [sys.executable, "-c", LAUNCH, *argv],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=PROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, "", f"timed out after {PROCESS_TIMEOUT_S} s"
        return proc.returncode, proc.stdout, proc.stderr

    def _clear(self, i):
        # a trajectory left by an earlier round must not pass for this one
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.csvs[i])

    def run(self, i):
        self._clear(i)
        out = {}
        for command in self.COMMANDS:
            start = time.perf_counter()
            out[command] = self._process(self.argv(i, command))
            self.command_s[command].append(time.perf_counter() - start)
        return out

    def named(self, latencies_ms, rate):
        out = {
            "processes_per_s": (rate, "1/s", len(latencies_ms) * len(self.COMMANDS)),
            "round_p50_ms": (percentile(latencies_ms, 50), "ms", len(latencies_ms)),
        }
        for command, name in zip(self.COMMANDS, ("check", "classify", "flow_cli")):
            ms = [1e3 * t for t in self.command_s[command]]
            out[f"{name}_p50_ms"] = (percentile(ms, 50), "ms", len(ms))
        return out

    def run_traced(self, i):
        self._clear(i)
        out = {}
        for command in self.COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(self.argv(i, command))
            out[command] = (code, stdout.getvalue(), stderr.getvalue())
        return out

    def check(self, i, out):
        return [self._check_one(i, c, *out[c]) for c in self.COMMANDS]

    def _check_one(self, i, command, code, stdout, stderr):
        where = f"{command} record {i}"
        if code != 0:
            return f"{where}: exit {code}: {stderr.strip()[-200:]}"
        if command == "flow":
            return self._check_csv(i, where)
        try:
            payload = json.loads(stdout)
            got = Answer(
                payload.get("valid", True), payload["class"], payload["w1plus"], payload["s"]
            )
        except (ValueError, KeyError) as exc:
            return f"{where}: unreadable output ({exc})"
        verdict = judge(self.records[i], got)
        return verdict if verdict in (OK, KNOWN) else f"{where}: {verdict}"

    def _check_csv(self, i, where):
        try:
            with open(self.csvs[i]) as fh:
                rows = list(csv.reader(fh))
            header, data = rows[0], [[float(v) for v in row] for row in rows[1:]]
        except (OSError, IndexError, ValueError) as exc:
            return f"{where}: unreadable trajectory ({exc})"
        if header != flow.CSV_COLUMNS or len(data) != self.steps_per_op + 1:
            return f"{where}: {len(data)} rows with columns {header[:3]}..."
        last = data[-1]
        state = last[1:30]
        err = max(abs(x - y) for x, y in zip(state, self.flow_ends[i]))
        g2 = max(row[-1] for row in data)
        if not abs(last[0] - self.T_END) <= 1e-9:
            return f"{where}: ends at t = {last[0]}"
        if not err <= self.STATE_TOL * max(1.0, max(abs(x) for x in self.flow_ends[i])):
            return f"{where}: end state differs from the transported reference by {err:.3e}"
        if not g2 <= Flow.G2_TOL:
            return f"{where}: g2 residual {g2:.3e}"
        return OK


WORKLOADS = {w.name: w for w in (Survey, Flow, Cli)}
