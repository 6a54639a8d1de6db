"""Checks on the output of one benchmark CLI invocation.

An invocation passes when it exits 0, its stdout is byte-identical to the
expected output (where one is stored), and every record

  * belongs to the expected prime, in order;
  * has consistent = true and lower <= upper;
  * carries the Selmer groups of the closed-form tables
    (family.closed_form_selmer_psibar / closed_form_selmer_psi): the class
    lists of a scan record, or the dimensions of a rank record, which has
    no class columns.

Expected outputs live in expected/<invocation name>.<format>.gz.  They
are made by make_expected.py at the commit whose answers are the
reference.  rank-large-p at a seed other than DEFAULT_SEED draws primes
with no stored output, so only the record checks apply to it.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def expected_path(inv) -> Path:
    return EXPECTED_DIR / f"{inv.name}.{inv.fmt}.gz"


def load_expected(inv):
    """The stored expected stdout of inv, or None if there is none."""
    path = expected_path(inv)
    return gzip.decompress(path.read_bytes()) if path.is_file() else None


@lru_cache(maxsize=None)
def closed_form_classes(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sorted S[psibar] and S[psi] classes from the program's closed forms."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from isodescent.family import closed_form_selmer_psi, closed_form_selmer_psibar

    return (
        tuple(sorted(closed_form_selmer_psibar(p).classes)),
        tuple(sorted(closed_form_selmer_psi(p).classes)),
    )


def _first_difference(actual: bytes, expected: bytes) -> str:
    got, want = actual.splitlines(), expected.splitlines()
    for line, (a, b) in enumerate(zip(got, want), start=1):
        if a != b:
            return f"stdout differs from the expected output at line {line}: {a[:120]!r} != {b[:120]!r}"
    return f"stdout has {len(got)} lines ({len(actual)} bytes), expected {len(want)} ({len(expected)} bytes)"


def _record_problems(rec: dict) -> list[str]:
    p = int(rec["p"])
    problems = []
    if rec["consistent"] not in (True, "true"):
        problems.append(f"p={p}: consistent is {rec['consistent']!r}")
    if int(rec["lower"]) > int(rec["upper"]):
        problems.append(f"p={p}: lower {rec['lower']} > upper {rec['upper']}")
    for side, classes in zip(("psibar", "psi"), closed_form_classes(p)):
        column = f"selmer_{side}"
        if column in rec:
            if rec[column] != " ".join(map(str, classes)):
                problems.append(f"p={p}: {column} {rec[column]!r} != closed form {classes}")
        elif 2 ** int(rec[f"dim_{column}"]) != len(classes):
            problems.append(f"p={p}: dim_{column} {rec[f'dim_{column}']} != closed form {classes}")
    return problems


def check(inv, code, stdout: bytes, expected) -> list[str]:
    """Problems with one invocation's result; empty when it passes.

    code is the exit code, or None if the invocation was killed at its
    time limit; expected is the expected stdout, or None if none is stored.
    """
    if code is None:
        return ["timed out"]
    problems = [] if code == 0 else [f"exit code {code}"]
    if expected is not None and stdout != expected:
        problems.append(_first_difference(stdout, expected))
    try:
        if inv.fmt == "json":
            records = json.loads(stdout)
        else:
            records = list(csv.DictReader(io.StringIO(stdout.decode())))
        primes = tuple(int(rec["p"]) for rec in records)
        if primes != inv.primes:
            problems.append(f"records are for {len(primes)} primes, expected {len(inv.primes)} ({inv.name})")
        for rec in records:
            problems += _record_problems(rec)
    except (ValueError, csv.Error, KeyError, TypeError) as exc:
        # undecodable or unparseable output, a missing column, a non-object record
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems
