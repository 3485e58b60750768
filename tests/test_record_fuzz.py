"""Seeded fuzz of the structure record: mutations of the golden CLI records
go through ``check``, ``classify`` and ``rotate`` on stdin, and each ends
with an exit code, at most one stderr line, which names what is wrong on
a usage error, and strict JSON or nothing on stdout."""

import io
import json
import os
import random
import re
import sys

from nhflat import cli

DATA = os.path.join(os.path.dirname(__file__), "data", "cli_golden")
SEED = 41
#: records mutated; each goes through the three commands
RECORDS = 100
COMMANDS = ("check", "classify", "rotate")
#: what a swap puts in place of a field, a row or an entry
VALUES = (None, True, "4", "x", [], {}, 10**400, 1e-320, 0)
MUTATIONS = ("drop", "swap", "swap", "swap", "nest", "shorten", "wrap", "truncate")
REASON = re.compile(
    r"^error: (malformed structure record: (record|lambda|a|b|P|Q|orientation): "
    r"|lambda must be nonzero|det P = .* is singular|record orientation "
    r"|cannot read structure record: )"
)


def seed_records():
    """The five golden records and every tenth record of samples.json."""
    records = []
    for family in ("nk", "w1", "w1w3", "zero-scalar", "sine-cone"):
        with open(os.path.join(DATA, f"{family}.json")) as fh:
            records.append(json.load(fh))
    with open(os.path.join(DATA, "samples.json")) as fh:
        records += [entry["record"] for entry in json.load(fh)[::10]]
    return records


def slot(rng, rec):
    """A field of the record, or a row or an entry of P or Q, as
    (container, key)."""
    container, key = rec, rng.choice(sorted(rec))
    while isinstance(container[key], list) and rng.random() < 0.6:
        container, key = container[key], rng.randrange(len(container[key]))
    return container, key


def mutate(rng, rec):
    """The JSON text of one mutation of the record."""
    rec = json.loads(json.dumps(rec))
    mutation = rng.choice(MUTATIONS)
    if mutation == "drop":
        del rec[rng.choice(sorted(rec))]
    elif mutation == "swap":
        container, key = slot(rng, rec)
        container[key] = rng.choice(VALUES)
    elif mutation == "nest":
        container, key = slot(rng, rec)
        container[key] = [container[key]]
    elif mutation == "shorten":
        rows = rec[rng.choice("PQ")]
        i = rng.randrange(3)
        rows[i] = rows[i][: rng.randrange(3)]
    elif mutation == "wrap":
        rec = [rec]
    text = json.dumps(rec)
    if mutation == "truncate":
        text = text[: rng.randrange(len(text))]
    return text


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_mutated_records_exit_with_one_named_reason(capsys, monkeypatch):
    rng = random.Random(SEED)
    records = seed_records()
    failures, codes = [], set()
    for _ in range(RECORDS):
        text = mutate(rng, rng.choice(records))
        for command in COMMANDS:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            try:
                code = cli.main([command, "-"])
            except Exception as exc:
                code = repr(exc)
            out, err = capsys.readouterr()
            codes.add(code)
            lines = err.splitlines()
            ok = code in (0, 1, 2, 3) and "Traceback" not in err and len(lines) <= 1
            if code == 2:
                ok = ok and len(lines) == 1 and REASON.match(lines[0]) is not None
            try:
                ok = ok and (out == "" or strict_json(out) is not None)
            except ValueError:
                ok = False
            if not ok:
                failures.append((command, text[:120], code, err[:200]))
    assert not failures, (len(failures), failures[:5])
    # the mutations reach both ends: records that pass and usage errors
    assert {0, 2} <= codes
