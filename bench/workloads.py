"""The benchmark's workloads: which CLI invocations each one makes.

Only rank-large-p has seeded input: four primes drawn from the seed.  The
scan workloads have none, because scan takes only --max; their
invocations are the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# rank-large-p draws one prime from each residue class below in this range
RANK_RANGE = (1_000_000, 1_050_000)
RANK_CLASSES = (
    "p = 1 (mod 24), (2/p)_4 = +1",
    "p = 7 (mod 24)",
    "p = 17 (mod 24), (2/p)_4 = +1",
    "p = 23 (mod 24)",
)


@dataclass(frozen=True)
class Invocation:
    """One CLI process: its arguments and the records it must produce."""

    name: str  # also names the expected-output file
    argv: tuple[str, ...]
    fmt: str
    primes: tuple[int, ...]  # the p of each output record, in order
    jobs: int = 1  # worker processes the invocation runs


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, hi, i)))
    return [p for p in range(max(lo, 2), hi) if sieve[p]]


def rank_class(p: int):
    """Index into RANK_CLASSES of the prime p, or None."""
    r = p % 24
    quartic_plus = r in (1, 17) and pow(2, (p - 1) // 4, p) == 1
    if r == 1 and quartic_plus:
        return 0
    if r == 7:
        return 1
    if r == 17 and quartic_plus:
        return 2
    if r == 23:
        return 3
    return None


def rank_primes(seed: int) -> tuple[int, ...]:
    """One prime of each RANK_CLASSES entry in RANK_RANGE, drawn from seed."""
    by_class: list[list[int]] = [[] for _ in RANK_CLASSES]
    for p in primes_between(*RANK_RANGE):
        index = rank_class(p)
        if index is not None:
            by_class[index].append(p)
    rng = random.Random(seed)
    return tuple(rng.choice(members) for members in by_class)


def invocations(workload: str, seed: int, jobs: int) -> list[Invocation]:
    """The CLI invocations of one pass over the workload, in order."""
    if workload == "scan-search":
        argv = ("scan", "--max", "200", "--height-bound", "700", "--jobs", str(jobs), "--format", "csv")
        return [Invocation(workload, argv, "csv", tuple(primes_between(2, 201)), jobs)]
    if workload == "scan-many":
        argv = ("scan", "--max", "5000", "--height-bound", "60", "--jobs", "1", "--format", "json")
        return [Invocation(workload, argv, "json", tuple(primes_between(2, 5001)))]
    if workload == "rank-large-p":
        return [
            Invocation(
                f"rank-p{p}",
                ("rank", "--p", str(p), "--height-bound", "60", "--format", "json"),
                "json",
                (p,),
            )
            for p in rank_primes(seed)
        ]
    raise ValueError(f"unknown workload {workload!r}")
