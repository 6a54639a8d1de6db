"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Criterion 4 contains an explicitly best-effort sub-check (the
dual-curve class search at height 10^4) whose outcome is recorded but
never fails the build.  Criterion 7's full coefficient box is hours of
work in pure Python; the in-suite test covers an exhaustive sub-box plus
a fixed-seed sample of the full box, and ISODESCENT_FULL_SWEEP=1 enables
the complete sweep.
"""

import os
import random
import subprocess
import sys
from math import gcd

import pytest

from isodescent.arith import iter_primes, quartic_symbol
from isodescent.descent import (
    alpha_image,
    dual_curve,
    rank_bounds,
    selmer,
)
from isodescent.family import (
    KIND_3P,
    KIND_P,
    ReprWitness,
    classify,
    closed_form_selmer_psi,
    closed_form_selmer_psibar,
    curve_for_prime,
    find_repr,
    proposition_rank,
)
from isodescent.local import QuarticForm, solvable_padic
from isodescent.points import witness_homspace_point
from oracle import Verdict, brute_oracle, jacobi

PRIME_SET = list(iter_primes(2000)) + [5297, 9521, 19249]


class _report:
    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number} ({self.name}): {status}")
        return False


def test_criterion_1_closed_form_engine_equivalence():
    with _report(1, "closed-form vs engine Selmer groups"):
        mismatches = []
        for p in PRIME_SET:
            E = curve_for_prime(p)
            if closed_form_selmer_psibar(p).classes != selmer(E).classes:
                mismatches.append((p, "psibar"))
            if closed_form_selmer_psi(p).classes != selmer(dual_curve(E)).classes:
                mismatches.append((p, "psi"))
        assert mismatches == []


def test_criterion_2_dimension_tables():
    with _report(2, "Selmer dimension tables"):
        for p in PRIME_SET:
            cls = classify(p)
            r, q4 = cls.residue_mod_24, cls.quartic2
            if p in (2, 3) or r == 7:
                want_bar = 1
            elif r in (11, 19) or (r == 1 and q4 == 1):
                want_bar = 3
            else:
                want_bar = 2
            want_psi = 2 if (r == 23 or (r == 1 and q4 == 1)) else 1
            E = curve_for_prime(p)
            assert selmer(E).dim == want_bar, p
            assert selmer(dual_curve(E)).dim == want_psi, p


def test_criterion_3_theorem_bounds():
    with _report(3, "rank ceilings by residue class"):
        for p in (2, 3, 7, 31, 79):  # item 1: rank exactly 0
            assert rank_bounds(curve_for_prime(p), 5).upper == 0, p
        for p in (5, 13, 17, 29, 41):  # item 2
            assert rank_bounds(curve_for_prime(p), 5).upper <= 1, p
        for p in (73, 19249):  # item 3, bound attained by the Selmer dims
            assert classify(p).quartic2 == 1
            assert rank_bounds(curve_for_prime(p), 5).upper == 3, p
        for p in (11, 19, 23, 47, 97):  # item 4
            assert rank_bounds(curve_for_prime(p), 5).upper <= 2, p


def test_criterion_4_remark_ranks():
    with _report(4, "desk-scale ranks for E_5, E_7, E_11, E_19249"):
        rb7 = rank_bounds(curve_for_prime(7), 10)
        assert (rb7.lower, rb7.upper) == (0, 0)

        rb5 = rank_bounds(curve_for_prime(5), 100)
        assert rb5.upper == 1 and rb5.lower == 1

        rb11 = rank_bounds(curve_for_prime(11), 100)
        assert rb11.upper == 2 and rb11.lower == 2

        E = curve_for_prime(19249)
        rb = rank_bounds(E, 20)
        assert rb.upper == 3 and rb.lower >= 2
        # the two proposition witnesses really are what carries the bound
        assert {19249, 3 * 19249} <= alpha_image(E, 20)

    # best-effort: a dual-curve class beyond {1, -2} would raise the lower
    # bound to 3, but no reference witness is known; record, never fail.
    image = alpha_image(dual_curve(curve_for_prime(19249)), 10_000)
    if len(image) > 2:
        print(f"ACCEPTANCE 4 note: dual-curve search SUCCEEDED, image {sorted(image)}")
    else:
        print("ACCEPTANCE 4 note: dual-curve class beyond {1, -2} not found at height 10^4 (best-effort)")


def test_criterion_5_proposition_rank_one_end_to_end():
    with _report(5, "rank = 1 criterion end to end"):
        # independently re-derived identities
        assert 3651 == 7**4 + 2 * 5**4
        assert 4803 == 1**4 + 2 * 7**4
        expected = {1217: (7, 5), 1601: (1, 7), 5297: (11, 5), 9521: (13, 1)}
        for p, (a, b) in expected.items():
            cls = classify(p)
            assert cls.residue_mod_24 == 17 and cls.quartic2 == 1
            w = find_repr(3 * p, 2)
            assert w == ReprWitness(KIND_3P, a, b)
            assert gcd(w.a, 6 * p) == 1
            point = witness_homspace_point(p, w)
            assert point.w**2 == 3 * p + 6 * p * point.z**4
            prop = proposition_rank(p)
            assert prop is not None and (prop.kind, prop.value) == ("exact", 1)
            rb = rank_bounds(curve_for_prime(p), 100)
            assert (rb.lower, rb.upper) == (1, 1), p


def test_criterion_6_proposition_rank_two_end_to_end():
    with _report(6, "rank >= 2 criterion end to end"):
        p = 19249
        assert find_repr(p, 18) == ReprWitness(KIND_P, 11, 4)
        assert find_repr(3 * p, 2) == ReprWitness(KIND_3P, 5, 13)
        prop = proposition_rank(p)
        assert prop is not None
        assert str(prop) == "rank >= 2"
        rb = rank_bounds(curve_for_prime(p), 20)
        assert rb.lower >= 2


def _forms(d_range, c_range):
    for d1 in d_range:
        if d1 == 0:
            continue
        for d2 in d_range:
            if d2 == 0:
                continue
            for c in c_range:
                if c * c == 4 * d1 * d2:
                    continue
                yield d1, c, d2


def _agreement_check(tuples, primes) -> tuple[int, int]:
    definite = 0
    disagreements = 0
    for d1, c, d2 in tuples:
        q = QuarticForm(d1, c, d2)
        for l in primes:
            verdict = brute_oracle(q, l, 10)
            if verdict is Verdict.UNKNOWN:
                continue
            definite += 1
            if (verdict is Verdict.SOLVABLE) != solvable_padic(q, l):
                disagreements += 1
    return definite, disagreements


def test_criterion_7_local_engine_vs_oracle():
    with _report(7, "local engine vs brute oracle + family case facts"):
        ls = (2, 3, 5, 7, 11)
        # exhaustive sub-box
        definite, bad = _agreement_check(_forms(range(-30, 31), range(-6, 7)), ls)
        assert bad == 0
        assert definite > 200_000
        # fixed-seed sample of the full |d| <= 200 box
        rng = random.Random(20250101)
        sample = []
        while len(sample) < 4000:
            d1 = rng.randint(-200, 200)
            d2 = rng.randint(-200, 200)
            c = rng.randint(-6, 6)
            if d1 == 0 or d2 == 0 or c * c == 4 * d1 * d2:
                continue
            sample.append((d1, c, d2))
        _, bad = _agreement_check(sample, ls)
        assert bad == 0

        # the six fixed family case facts
        for p in iter_primes(500):
            if p in (2, 3):
                continue
            c3 = QuarticForm(3, 0, 6 * p * p)
            assert solvable_padic(c3, 2), p
            assert solvable_padic(c3, 3), p
            cp = QuarticForm(p, 0, 18 * p)
            assert solvable_padic(cp, 2) == (p % 8 in (1, 3)), p
            assert solvable_padic(cp, 3), p
            if p % 8 == 3:
                assert solvable_padic(cp, p), p
            elif p % 8 == 1:
                want = quartic_symbol(-18, p) == 1
                assert solvable_padic(cp, p) == want, p


@pytest.mark.skipif(
    not os.environ.get("ISODESCENT_FULL_SWEEP"),
    reason="full |d| <= 200 box takes hours; set ISODESCENT_FULL_SWEEP=1",
)
def test_criterion_7_full_box_sweep():
    definite, bad = _agreement_check(
        _forms(range(-200, 201), range(-6, 7)), (2, 3, 5, 7, 11)
    )
    assert bad == 0


def test_criterion_8_symbol_suite():
    with _report(8, "quartic symbol vs exhaustive fourth powers"):
        for p in iter_primes(5000):
            if p % 8 != 1:
                continue
            exhaustive = any(pow(x, 4, p) == 2 for x in range(1, p))
            assert (quartic_symbol(2, p) == 1) == exhaustive, p
        for p in iter_primes(100_000):
            if p % 8 != 1:
                continue
            assert quartic_symbol(-18, p) == quartic_symbol(2, p) * jacobi(3, p), p


def test_criterion_9_cli_determinism(tmp_path):
    with _report(9, "byte-identical scan output"):
        def scan(jobs: int, name: str) -> bytes:
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "isodescent.cli",
                    "scan",
                    "--max",
                    "500",
                    "--height-bound",
                    "60",
                    "--format",
                    "csv",
                    "--jobs",
                    str(jobs),
                    "--out",
                    str(out),
                ],
                capture_output=True,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            return out.read_bytes()

        first = scan(1, "a.csv")
        second = scan(1, "b.csv")
        parallel = scan(8, "c.csv")
        assert first == second
        assert first == parallel
        assert first.startswith(b"spec_version,p,")
