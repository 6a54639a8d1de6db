import itertools
import random
import signal
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, prod
from unittest import mock

import pytest
from conftest import deadline
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isodescent import descent, local, points
from isodescent.arith import class_product, factorize, primes_up_to, squarefree_class
from isodescent.descent import (
    CurveModel,
    InternalConsistencyError,
    alpha_image,
    bad_places,
    divisor_classes,
    dual_curve,
    rank_bounds,
    selmer,
)
from isodescent.family import curve_for_prime, verify_prime
from isodescent.local import INFINITY, Place, QuarticForm, solvable_padic, solvable_real
from isodescent.points import (
    CurvePoint,
    HomSpacePoint,
    apply_dual_isogeny,
    apply_isogeny,
    homspace_to_curve,
    on_curve,
    point_add,
    search_homspace_points,
    torsion_info,
)

E7 = CurveModel(0, 18 * 49)
E5 = CurveModel(0, 18 * 25)
E11 = CurveModel(0, 18 * 121)
E23 = CurveModel(0, 18 * 529)
E73 = CurveModel(0, 18 * 73**2)
P_BIG = 19249
EBIG = CurveModel(0, 18 * P_BIG**2)
# a search at height 10^9 that fails to stop at its first hit would never
# return; past this many seconds it raises TimeoutError in its test instead
SEARCH_DEADLINE_S = 10


def _alpha_class(P: CurvePoint, b: int) -> int:
    """Descent map: identity -> 1, (0,0) -> class of b, else class of x."""
    if P.is_identity:
        return 1
    if P.x == 0:
        return squarefree_class(b)
    return squarefree_class(P.x.numerator * P.x.denominator)


def point_negate(P: CurvePoint) -> CurvePoint:
    if P.is_identity:
        return P
    return CurvePoint(P.x, -P.y)


def point_multiply(E: CurveModel, n: int, P: CurvePoint) -> CurvePoint:
    """n*P by double-and-add over point_add, the reference the isogeny
    compositions are checked against."""
    if n < 0:
        return point_multiply(E, -n, point_negate(P))
    acc = CurvePoint.identity()
    step = P
    while n:
        if n & 1:
            acc = point_add(E, acc, step)
        step = point_add(E, step, step)
        n >>= 1
    return acc


class TestDeadline:
    def test_fires_inside_the_block(self):
        start = time.perf_counter()
        with pytest.raises(TimeoutError):
            with deadline(0.05):
                time.sleep(5)
        assert time.perf_counter() - start < 1

    def test_disarmed_after_the_block(self):
        handler = signal.getsignal(signal.SIGALRM)
        with deadline(5):
            pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler


class TestCurveModel:
    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            CurveModel(0, 0)
        with pytest.raises(ValueError):
            CurveModel(2, 1)

    def test_valid(self):
        assert CurveModel(0, 4).b == 4


class TestDualCurve:
    def test_family_dual(self):
        assert dual_curve(E7) == CurveModel(0, -72 * 49)

    def test_simple(self):
        assert dual_curve(CurveModel(0, 1)) == CurveModel(0, -4)

    def test_double_dual_is_scaling(self):
        # dual of dual is (0, 16b), isomorphic to E by (x, y) -> (4x, 8y)
        E = CurveModel(0, 8)
        EE = dual_curve(dual_curve(E))
        assert EE == CurveModel(0, 16 * 8)
        P = CurvePoint(1, 3)
        assert on_curve(E, P)
        assert on_curve(EE, CurvePoint(4 * P.x, 8 * P.y))


class TestBadPlaces:
    def test_family_seven(self):
        expected = {INFINITY, Place(2), Place(3), Place(7)}
        assert bad_places(E7) == expected

    def test_unit_curve(self):
        assert bad_places(CurveModel(0, 1)) == {INFINITY, Place(2)}

    def test_family_large(self):
        assert bad_places(EBIG) == {INFINITY, Place(2), Place(3), Place(P_BIG)}


class TestDivisorClasses:
    def test_family(self):
        want = sorted(
            s * d for s in (1, -1) for d in (1, 2, 3, 6, 7, 14, 21, 42)
        )
        assert divisor_classes(18 * 49) == want

    def test_unit(self):
        assert divisor_classes(1) == [-1, 1]

    def test_same_support_same_classes(self):
        assert divisor_classes(-72 * 49) == divisor_classes(18 * 49)

    def test_size_is_power_of_two(self):
        assert len(divisor_classes(18 * 49)) == 2 ** (3 + 1)


class TestSelmer:
    def test_e7_psibar(self):
        assert selmer(E7).sorted_classes() == [1, 2]

    def test_e11_psibar(self):
        assert selmer(E11).sorted_classes() == sorted(
            [1, 2, 3, 6, 11, 22, 33, 66]
        )

    def test_e23_psi(self):
        assert selmer(dual_curve(E23)).sorted_classes() == sorted([1, -2, -23, 46])

    def test_subgroup_properties(self):
        from isodescent.arith import class_product

        for E in (E5, E7, E11, E23):
            for curve in (E, dual_curve(E)):
                group = selmer(curve)
                classes = group.classes
                assert 1 in classes
                assert squarefree_class(curve.b) in classes
                for u in classes:
                    for v in classes:
                        assert class_product(u, v) in classes
                assert len(classes) == 2**group.dim


def reference_selmer(curve, places):
    """The Selmer classes of curve with every (class, place) decided afresh
    over the given places."""

    def everywhere(q):
        return all(solvable_real(q) if pl.is_infinite else solvable_padic(q, pl.prime) for pl in places)

    return frozenset(b1 for b1 in divisor_classes(curve.b) if everywhere(QuarticForm(b1, curve.a, curve.b // b1)))


class TestSelmerVerdictCache:
    @given(a=st.integers(min_value=-30, max_value=30), b=st.integers(min_value=-300, max_value=300))
    @example(a=0, b=18 * 49)
    @example(a=0, b=-72 * 49)
    @settings(max_examples=150, deadline=None)
    def test_same_groups_as_deciding_every_class(self, a, b):
        if b == 0 or a * a == 4 * b:
            return
        E = CurveModel(a, b)
        places = bad_places(E)
        # a curve and its dual share the primes of 2*b*(a^2 - 4b)
        assert places == {INFINITY} | {Place(p) for p in factorize(2 * b * (a * a - 4 * b))}
        assert bad_places(dual_curve(E)) == places
        local._verdict_table.cache_clear()
        for curve in (E, dual_curve(E)):
            assert selmer.__wrapped__(curve).classes == reference_selmer(curve, places), curve

    # E_5 and E_11 share their Q_2 and Q_3 tables (c = 0); (3, -10) and
    # (-6, 49) are each other's duals, so the second reads what the first filled
    @given(a=st.integers(min_value=-60, max_value=60), b=st.integers(min_value=-3000, max_value=3000))
    @example(a=0, b=18 * 25)
    @example(a=0, b=18 * 121)
    @example(a=3, b=-10)
    @example(a=-6, b=49)
    @settings(max_examples=150, deadline=None)
    def test_verdicts_shared_across_curves(self, a, b):
        # the tables are never cleared, so each example reads verdicts that
        # earlier curves with the same Q_l key decided
        if b == 0 or a * a == 4 * b:
            return
        E = CurveModel(a, b)
        for curve in (E, dual_curve(E)):
            assert selmer.__wrapped__(curve).classes == reference_selmer(curve, bad_places(E)), curve

    @pytest.mark.parametrize("curve", [EBIG, dual_curve(EBIG)], ids=["psibar", "psi"])
    def test_one_padic_call_per_class_over_q_l(self, curve, monkeypatch):
        want = reference_selmer(curve, bad_places(curve))
        calls = []

        def counting_solvable_padic(q, l):
            calls.append((q, l))
            return solvable_padic(q, l)

        monkeypatch.setattr(local, "solvable_padic", counting_solvable_padic)
        local._verdict_table.cache_clear()
        assert selmer.__wrapped__(curve).classes == want
        # bad places 2, 3 and 19249: at most 8 + 4 + 4 classes of b1 over Q_l
        assert 0 < len(calls) <= 16

    def test_family_groups_with_a_warm_cache(self):
        # the E_p share their Q_2 and Q_3 verdicts, so each group after the
        # first is read mostly from verdicts that other primes decided
        primes = primes_up_to(300) + [1217, 19249, 1043113]
        random.Random(11).shuffle(primes)
        local._verdict_table.cache_clear()
        for p in primes:
            E = CurveModel(0, 18 * p * p)
            for curve in (E, dual_curve(E)):
                assert selmer.__wrapped__(curve).classes == reference_selmer(curve, bad_places(E)), curve

    def test_family_asks_few_q2_and_q3_questions(self, monkeypatch):
        calls = Counter()

        def counting_solvable_padic(q, l):
            calls[l] += 1
            return solvable_padic(q, l)

        monkeypatch.setattr(local, "solvable_padic", counting_solvable_padic)
        local._verdict_table.cache_clear()
        selmer.cache_clear()
        for p in primes_up_to(500):
            assert verify_prime(p, 10).consistent
        selmer.cache_clear()
        # 8 classes of d1 at l = 2 (4 at l = 3) times 4 classes of d1*d2
        # (2 at l = 3) for p > 3, and as many again for p = 2 and p = 3
        assert calls[2] <= 64
        assert calls[3] <= 16

    def test_every_family_curve_up_to_2000(self):
        local._verdict_table.cache_clear()
        for p in primes_up_to(2000):
            E = CurveModel(0, 18 * p * p)
            for curve in (E, dual_curve(E)):
                assert selmer.__wrapped__(curve).classes == reference_selmer(curve, bad_places(E)), curve

    def test_twelve_odd_primes(self):
        # 2^13 candidates over 14 places, one per subset of -1 and the primes
        E = CurveModel(0, prod(primes_up_to(41)[1:]))
        local._verdict_table.cache_clear()
        for curve in (E, dual_curve(E)):
            assert selmer.__wrapped__(curve).classes == reference_selmer(curve, bad_places(E)), curve

    def test_family_padic_misses(self, monkeypatch):
        # a verdict per (place, class) asks solvable_padic exactly what a
        # verdict per candidate and place did: 2487 questions for p <= 5000
        calls = []

        def counting_solvable_padic(q, l):
            calls.append((q, l))
            return solvable_padic(q, l)

        monkeypatch.setattr(local, "solvable_padic", counting_solvable_padic)
        local._verdict_table.cache_clear()
        selmer.cache_clear()
        for p in primes_up_to(5000):
            E = CurveModel(0, 18 * p * p)
            selmer(E)
            selmer(dual_curve(E))
        selmer.cache_clear()
        assert len(calls) == 2487

    def test_unclosed_set_raises(self, monkeypatch):
        # a Q_2 verdict true on the classes with bits 1 and 2 but false on
        # their product, 3: E_7's real place keeps the 8 positive b1 | 2*3*7,
        # and of those only 14 (bits 1 ^ 2) fails, leaving 7 classes
        def skewed(q, l):
            return l != 2 or local._square_class_bits(q.d1, 2) != 3

        monkeypatch.setattr(local, "solvable_padic", skewed)
        local._verdict_table.cache_clear()
        try:
            with pytest.raises(InternalConsistencyError, match="not closed"):
                selmer.__wrapped__(E7)
        finally:
            # the skewed verdicts sit in the shared tables
            local._verdict_table.cache_clear()


class TestSearchHomspacePoints:
    def test_big_prime_witness(self):
        pts = search_homspace_points(EBIG, P_BIG, 11)
        assert HomSpacePoint(P_BIG, Fraction(4, 11), Fraction(P_BIG, 121)) in pts

    def test_real_unsolvable_is_empty(self):
        assert search_homspace_points(E5, -1, 100) == []

    def test_torsion_class_space_point(self):
        # (0, 9): the class of b is 1 and C_1 carries (1/2, 5/4)
        E = CurveModel(0, 9)
        pts = search_homspace_points(E, 1, 5)
        assert HomSpacePoint(1, Fraction(1, 2), Fraction(5, 4)) in pts

    def test_all_points_satisfy_equation(self):
        for b1 in (3, 11):
            for P in search_homspace_points(E11, b1, 15):
                z2 = P.z * P.z
                assert P.w * P.w == b1 + (E11.b // b1) * z2 * z2

    def test_signs_emitted(self):
        pts = search_homspace_points(EBIG, P_BIG, 11)
        zs = {(P.z > 0, P.w > 0) for P in pts}
        assert zs == {(True, True), (True, False), (False, True), (False, False)}

    def test_rejects_non_divisor_class(self):
        with pytest.raises(ValueError):
            search_homspace_points(E5, 7, 10)
        with pytest.raises(ValueError):
            search_homspace_points(E5, 4, 10)


def walk_search_class(curve, b1, height_bound, first_only, lowest=1):
    """The pair walk the sieve replaced, kept as its reference: every
    (m, e) in rings of increasing max(m, e) from lowest on, with a gcd
    and an isqrt each.
    """
    a, d2 = curve.a, curve.b // b1
    hits = []
    # with a = 0 and mixed signs, one of m/e, e/m is bounded by |b1/d2|^(1/4)
    cap = (b1, -d2) if (a == 0 and d2 < 0 and b1 > 0) else None
    floor_ = (-b1, d2) if (a == 0 and b1 < 0 and d2 > 0) else None

    def try_pair(m, e):
        if gcd(m, e) != 1:
            return False
        m2 = m * m
        e2 = e * e
        if cap is not None and m2 * m2 * cap[1] > cap[0] * e2 * e2:
            return False
        if floor_ is not None and m2 * m2 * floor_[1] < floor_[0] * e2 * e2:
            return False
        n = b1 * e2 * e2 + a * m2 * e2 + d2 * m2 * m2
        if n < 0:
            return False
        r = isqrt(n)
        if r * r != n:
            return False
        hits.append((m, e, r))
        return True

    for h in range(lowest, height_bound + 1):
        for e in range(1, h + 1):
            if try_pair(h, e) and first_only:
                return hits
        for m in range(1, h):
            if try_pair(m, h) and first_only:
                return hits
    return hits


def ordered_search_class(curve, b1, height_bound, width):
    """Every primitive hit in the order the sieve yields them: rings of
    blocks of width numbers, the blocks of a ring, then e ascending, then
    m ascending, with a gcd and an isqrt for each pair."""
    a, d2 = curve.a, curve.b // b1

    def span(k):
        return range(k * width + 1, min((k + 1) * width, height_bound) + 1)

    hits = []
    for ring in range(-(-height_bound // width)):
        for i, j in [(ring, j) for j in range(ring + 1)] + [(i, ring) for i in range(ring)]:
            for e in span(j):
                for m in span(i):
                    n = b1 * e**4 + a * m * m * e * e + d2 * m**4
                    if gcd(m, e) == 1 and n >= 0 and isqrt(n) ** 2 == n:
                        hits.append((m, e, isqrt(n)))
    return hits


def _assert_sieve_matches_walk(curve, height_bound):
    width = min(descent._BLOCK_BITS, height_bound)
    for b1 in divisor_classes(curve.b):
        want = sorted(walk_search_class(curve, b1, height_bound, first_only=False))
        got = list(descent._search_class(curve, b1, height_bound))
        assert sorted(got) == want, b1
        assert got == ordered_search_class(curve, b1, height_bound, width), b1
        first = list(itertools.islice(descent._search_class(curve, b1, height_bound), 1))
        assert len(first) == min(len(want), 1), b1
        assert set(first) <= set(want), b1


# a = 0 and b < 0: every class mixes signs, where the walk's cap/floor short-cut acts
MIXED_SIGN = [CurveModel(0, b) for b in (-1, -4, -36, -300, -72 * 49, -(2 * 3 * 5 * 7))]


class TestSearchSieve:
    @given(
        a=st.integers(min_value=-30, max_value=30),
        b=st.integers(min_value=-300, max_value=300),
        width=st.sampled_from([1, 3, 8, 16, descent._BLOCK_BITS]),
        height=st.integers(min_value=1, max_value=60),
    )
    @example(a=0, b=-36, width=8, height=7)
    @example(a=0, b=-300, width=8, height=9)
    @example(a=0, b=9, width=16, height=16)
    @settings(max_examples=80, deadline=None)
    def test_same_hits_as_the_walk(self, a, b, width, height):
        if b == 0 or a * a == 4 * b:
            return
        with mock.patch.object(descent, "_BLOCK_BITS", width):
            _assert_sieve_matches_walk(CurveModel(a, b), height)

    @pytest.mark.parametrize("curve", MIXED_SIGN + [E7, E11, CurveModel(0, 9), CurveModel(-5, 6)], ids=str)
    @pytest.mark.parametrize("width", [8, 16])
    def test_heights_around_the_block_width(self, curve, width, monkeypatch):
        monkeypatch.setattr(descent, "_BLOCK_BITS", width)
        for height in (width - 1, width, width + 1, 3 * width + 1):
            _assert_sieve_matches_walk(curve, height)

    def test_true_block_width_edges(self):
        # b = 2*(W + 1)^2 + 1 puts a hit at m = W + 1 on the class b and at
        # e = W + 1 on the class 1.  The walk is too slow at this height, so
        # the rings max(m, e) >= W - 4 are checked pair by pair, and the
        # hits inside them must not depend on the height.
        W = descent._BLOCK_BITS
        curve = CurveModel(0, 2 * (W + 1) ** 2 + 1)
        lo = W - 4
        for b1, corner in ((1, (1, W + 1)), (curve.b, (W + 1, 1))):
            strip = set()
            for k in range(lo, W + 2):
                for m, e in [(k, j) for j in range(1, k + 1)] + [(j, k) for j in range(1, k)]:
                    n = b1 * e**4 + curve.a * m * m * e * e + curve.b // b1 * m**4
                    if gcd(m, e) == 1 and n >= 0 and isqrt(n) ** 2 == n:
                        strip.add((m, e, isqrt(n)))
            assert corner + (W * W + 2 * W + 2,) in strip
            inner = []
            for height in (W - 1, W, W + 1):
                got = set(descent._search_class(curve, b1, height))
                assert {h for h in got if max(h[:2]) >= lo} == {h for h in strip if max(h[:2]) <= height}
                inner.append({h for h in got if max(h[:2]) < lo})
            assert inner[0] == inner[1] == inner[2]

    @pytest.mark.parametrize("k", [1, 3])
    def test_rows_past_the_first_block(self, k):
        # Above the block width the second block of numerators starts at
        # m0 = W + 1, which is not 1 mod 9, 5, 7, ...: its rows are cached
        # under their own shift.  b = 2*(W + k)^2 + 1 puts a hit at
        # m = W + k, e = 1 on the class b.
        W = descent._BLOCK_BITS
        height, lo = W + 4, W - 2
        curve = CurveModel(0, 2 * (W + k) ** 2 + 1)
        descent._sieve_rows.cache_clear()
        for b1 in (1, -1, curve.b):
            want = walk_search_class(curve, b1, height, first_only=False, lowest=lo)
            got = [h for h in descent._search_class(curve, b1, height) if max(h[:2]) >= lo]
            assert sorted(got) == sorted(want), b1
        assert (W + k, 1, (W + k) ** 2 + 1) in want

    @pytest.mark.parametrize("q", descent._SIEVE_MODULI)
    @pytest.mark.parametrize("m0", [1, 4097])
    def test_rows_hold_only_primitive_pairs(self, q, m0):
        # bit j of row e is m = m0 + j: set exactly when the value is a
        # square mod q and the prime l of q does not divide both m and e
        l = min(d for d in range(2, q + 1) if q % d == 0)
        squares = {s * s % q for s in range(q)}
        nbits = 3 * q + 5
        for b1, a, d2 in [(1, 0, 1), (1, 0, -1), (3, 2, 5), (-7, 0, 18 * 49)]:
            rows, _ = descent._sieve_rows(q, b1 % q, a % q, d2 % q, m0 % q, nbits)
            for e in range(q):
                for j in range(nbits):
                    m = m0 + j
                    square = (b1 * e**4 + a * m * m * e * e + d2 * m**4) % q in squares
                    assert rows[e] >> j & 1 == (square and (e % l or m % l) != 0), (b1, a, d2, e, m)

    @pytest.mark.parametrize("q", descent._SIEVE_MODULI)
    @pytest.mark.parametrize("m0", [1, 4097])
    def test_one_row_set_per_orbit(self, q, m0):
        # scaling the value by a unit square u^2 keeps it a square mod q
        # or not: the whole orbit has the rows, and the key, of (b1, a, d2)
        units = [u for u in range(1, q) if gcd(u, q) == 1]
        for b1, a, d2 in [(1, 0, 1), (1, 0, -1), (3, 2, 5), (-7, 0, 18 * 49), (q // 2, 0, 6), (0, 0, 1), (3, 0, 0)]:
            rows = descent._sieve_rows(q, b1 % q, a % q, d2 % q, m0 % q, 40)
            key = descent._orbit_key(q, b1, a, d2)
            orbit = {(u * u * b1 % q, u * u * a % q, u * u * d2 % q) for u in units}
            assert key in orbit
            for u in units:
                scaled = (u * u * b1, u * u * a, u * u * d2)
                assert descent._sieve_rows(q, *(c % q for c in scaled), m0 % q, 40) == rows, (b1, a, d2, u)
                assert descent._orbit_key(q, *scaled) == key, (b1, a, d2, u)

    @pytest.mark.parametrize("q", descent._SIEVE_MODULI)
    def test_live_mask_marks_the_non_empty_rows(self, q):
        for nbits in (1, 2, q - 1, q, 2 * q + 3):
            for m0 in (0, 1, q - 1):
                for b1, a, d2 in [(1, 0, 1), (1, 0, -1), (3, 2, 5), (-7, 0, 18 * 49), (0, 0, 1)]:
                    rows, live = descent._sieve_rows(q, b1 % q, a % q, d2 % q, m0, nbits)
                    assert live < 1 << q
                    for r in range(q):
                        assert live >> r & 1 == (rows[r] != 0), (nbits, m0, b1, a, d2, r)

    def test_cache_holds_one_row_set_per_orbit(self, monkeypatch):
        # the scan of the primes <= 1000 at height 60 searches each class
        # in one block (m0 = 1, 60 bits), so it needs one row set for each
        # orbit of residues under the unit squares mod each q
        searched = []
        search = descent._search_class

        def spy(curve, b1, height_bound):
            searched.append((curve.a, b1, curve.b // b1))
            return search(curve, b1, height_bound)

        monkeypatch.setattr(descent, "_search_class", spy)
        descent._sieve_rows.cache_clear()
        for p in primes_up_to(1000):
            rank_bounds(curve_for_prime(p), 60)
        residues, orbits = set(), set()
        for q in descent._SIEVE_MODULI:
            squares = {u * u % q for u in range(1, q) if gcd(u, q) == 1}
            for a, b1, d2 in searched:
                residues.add((q, b1 % q, a % q, d2 % q))
                orbits.add((q, frozenset((s * b1 % q, s * a % q, s * d2 % q) for s in squares)))
        assert descent._sieve_rows.cache_info().currsize <= len(orbits) < len(residues)

    def test_memory_does_not_grow_with_the_height(self):
        # z = 4/11 lies on the class p of E_19249; at height 10^9 an
        # H-bit row alone would take 119 MiB
        descent._sieve_rows.cache_clear()
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with deadline(SEARCH_DEADLINE_S):
                hits = list(itertools.islice(descent._search_class(EBIG, P_BIG, 10**9), 1))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(hits) == 1
        m, e, r = hits[0]
        assert r * r == P_BIG * e**4 + EBIG.b // P_BIG * m**4
        assert elapsed < 5
        assert peak < 1 << 20

class TestHomspaceToCurve:
    def test_big_prime_witness(self):
        P = HomSpacePoint(P_BIG, Fraction(4, 11), Fraction(P_BIG, 121))
        point = homspace_to_curve(EBIG, P)
        assert point.x == Fraction(P_BIG * 121, 16)
        assert on_curve(EBIG, point)

    def test_alpha_class_recovered(self):
        for b1 in (3, 11, 33):
            pts = search_homspace_points(E11, b1, 15)
            if not pts:
                continue
            point = homspace_to_curve(E11, pts[0])
            assert _alpha_class(point, E11.b) == b1

    def test_rejects_z_zero(self):
        with pytest.raises(ValueError):
            HomSpacePoint(1, Fraction(0), Fraction(1))


class TestIsogenies:
    def test_kernel_to_identity(self):
        assert apply_isogeny(E7, CurvePoint(0, 0)).is_identity
        assert apply_isogeny(E7, CurvePoint.identity()).is_identity
        assert apply_dual_isogeny(E7, CurvePoint(0, 0)).is_identity

    def test_image_on_dual(self):
        E = CurveModel(0, 4)
        P = CurvePoint(2, 4)
        image = apply_isogeny(E, P)
        assert on_curve(dual_curve(E), image)

    def test_composition_is_doubling(self):
        samples = [
            (CurveModel(0, 4), CurvePoint(2, 4)),
            (EBIG, homspace_to_curve(EBIG, HomSpacePoint(P_BIG, Fraction(4, 11), Fraction(P_BIG, 121)))),
        ]
        for E, P in samples:
            assert on_curve(E, P)
            composed = apply_dual_isogeny(E, apply_isogeny(E, P))
            assert composed == point_multiply(E, 2, P)

    def test_rejects_points_off_curve(self):
        with pytest.raises(ValueError):
            apply_isogeny(E7, CurvePoint(1, 1))
        Ebar = dual_curve(E7)
        with pytest.raises(ValueError, match=rf"^point .* is not on y\^2 = x\^3 \+ {Ebar.a}x\^2 \+ {Ebar.b}x$"):
            apply_dual_isogeny(E7, CurvePoint(1, 1))

    @given(
        a=st.integers(min_value=-30, max_value=30),
        x0=st.integers(min_value=-30, max_value=30).filter(bool),
        t=st.integers(min_value=-30, max_value=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_both_compositions_are_doubling(self, a, x0, t):
        # b = x0*(t^2 - x0 - a) puts (x0, t*x0) on y^2 = x^3 + a*x^2 + b*x
        b = x0 * (t * t - x0 - a)
        assume(b != 0 and a * a != 4 * b)
        E, P = CurveModel(a, b), CurvePoint(x0, t * x0)
        Ebar = dual_curve(E)
        Q = apply_isogeny(E, P)
        assert apply_dual_isogeny(E, Q) == point_multiply(E, 2, P)
        for R in (Q, point_add(Ebar, Q, CurvePoint(0, 0))):
            assert on_curve(Ebar, R)
            assert apply_isogeny(E, apply_dual_isogeny(E, R)) == point_multiply(Ebar, 2, R)


class TestPointArithmetic:
    def test_add_and_negate(self):
        E = CurveModel(0, 4)
        P = CurvePoint(2, 4)
        assert point_add(E, P, CurvePoint.identity()) == P
        assert point_add(E, P, CurvePoint(2, -4)).is_identity

    def test_order_four(self):
        E = CurveModel(0, 4)
        P = CurvePoint(2, 4)
        assert point_multiply(E, 2, P) == CurvePoint(0, 0)
        assert point_multiply(E, 4, P).is_identity

    def test_int_coordinates_become_fractions(self):
        # int / int is a float: with int coordinates kept, 2(2, 4) on
        # y^2 = x^3 + 4x came out as (0.0, 0.0), and 4(2, 2) on
        # y^2 = x^3 - 2x in floats and off the curve
        doubled = point_add(CurveModel(0, 4), CurvePoint(2, 4), CurvePoint(2, 4))
        E, P = CurveModel(0, -2), CurvePoint(2, 2)
        acc = P
        for _ in range(3):
            acc = point_add(E, acc, P)
        assert {type(c) for Q in (P, doubled, acc) for c in Q} == {Fraction}
        assert on_curve(E, acc)
        assert acc == CurvePoint(Fraction(12769, 7056), Fraction(900271, 592704))
        assert CurvePoint.identity() == (None, None)
        # _replace builds through the same conversion
        assert type(CurvePoint(1, 2)._replace(x=3).x) is Fraction


class TestTorsion:
    def test_family_two_torsion_only(self):
        assert torsion_info(CurveModel(0, 18 * 25)) == [
            CurvePoint.identity(),
            CurvePoint(0, 0),
        ]

    def test_order_four_curve(self):
        points = torsion_info(CurveModel(0, 4))
        assert CurvePoint(2, 4) in points
        assert len(points) == 4

    def test_all_points_on_curve(self):
        for E in (CurveModel(0, 4), CurveModel(0, -1), CurveModel(6, 5)):
            for P in torsion_info(E):
                assert on_curve(E, P)

    def test_full_two_torsion(self):
        # y^2 = x^3 + 6x^2 + 5x = x(x+1)(x+5)
        points = torsion_info(CurveModel(6, 5))
        xs = {P.x for P in points if not P.is_identity}
        assert {Fraction(0), Fraction(-1), Fraction(-5)} <= xs

    @pytest.mark.parametrize("a,b", [(1, 1), (0, 2)])
    def test_no_integer_root_of_the_quadratic(self, a, b):
        # x^2 + a*x + b has no integer root: 0 is the only root of y = 0
        assert torsion_info(CurveModel(a, b)) == [CurvePoint.identity(), CurvePoint(0, 0)]

    @given(a2=st.integers(-2000, 2000), a1=st.integers(-2000, 2000), a0=st.integers(-2000, 2000))
    @example(a2=-3, a1=2, a0=0)  # x(x - 1)(x - 2)
    @example(a2=0, a1=-4, a0=0)  # x(x - 2)(x + 2)
    @example(a2=-6, a1=11, a0=-6)  # (x - 1)(x - 2)(x - 3)
    @settings(max_examples=200, deadline=None)
    def test_cubic_roots_equal_a_walk(self, a2, a1, a0):
        # a nonzero integer root divides the lowest nonzero coefficient
        assume(a0 or a1)
        bound = max(abs(a0), abs(a1))
        walk = [x for x in range(-bound, bound + 1) if ((x + a2) * x + a1) * x + a0 == 0]
        assert points._cubic_integer_roots(a2, a1, a0) == walk


class TestAlphaImage:
    def test_e7_everything_is_torsion(self):
        assert alpha_image(E7, 10) == frozenset({1, 2})

    def test_big_prime_witness_classes(self):
        image = alpha_image(EBIG, 20)
        assert {1, 2, P_BIG, 3 * P_BIG} <= image
        # witnesses generate the whole group: 3 = class(p * 3p)
        assert image == frozenset({1, 2, 3, 6, P_BIG, 2 * P_BIG, 3 * P_BIG, 6 * P_BIG})

    def test_monotone_in_height(self):
        for H1, H2 in ((2, 5), (5, 20)):
            assert alpha_image(E11, H1) <= alpha_image(E11, H2)

    def test_contained_in_selmer(self):
        for E in (E5, E11, E23):
            for curve in (E, dual_curve(E)):
                assert alpha_image(curve, 30) <= selmer(curve).classes

    @pytest.mark.parametrize("p", [P_BIG, 1217])
    def test_takes_one_hit_per_class(self, p):
        # at height 10^9 a drained search would never return; the first
        # hit of each class ends its search
        E = CurveModel(0, 18 * p * p)
        start = time.perf_counter()
        with deadline(SEARCH_DEADLINE_S):
            image = alpha_image(E, 10**9)
        assert time.perf_counter() - start < 5
        assert image == selmer(E).classes


def fixpoint_closure(classes):
    """The subgroup generated by classes: all pairwise products, repeated
    until nothing new appears."""
    group = {1}
    frontier = set(classes) | {1}
    while frontier != group:
        group = set(frontier)
        frontier = {class_product(u, v) for u in group for v in group}
    return frozenset(group)


def reference_alpha_image(curve, height_bound):
    """alpha_image with the group closed afresh after every new class."""
    generated = fixpoint_closure([squarefree_class(curve.b)])
    for b1 in sorted(selmer(curve).classes):
        if b1 not in generated and next(descent._search_class(curve, b1, height_bound), None):
            generated = fixpoint_closure(generated | {b1})
    return generated


class TestAlphaImageGroup:
    @given(a=st.integers(min_value=-30, max_value=30), b=st.integers(min_value=-300, max_value=300))
    @example(a=0, b=18 * 11**2)
    @example(a=-30, b=-279)  # the dual curve's image needs a product of two found classes
    @example(a=-29, b=-170)  # so does the image of E itself
    @settings(max_examples=100, deadline=None)
    def test_same_group_as_the_fixpoint_closure(self, a, b):
        if b == 0 or a * a == 4 * b:
            return
        E = CurveModel(a, b)
        for curve in (E, dual_curve(E)):
            assert alpha_image(curve, 12) == reference_alpha_image(curve, 12), curve


class TestRankBounds:
    def test_e7_rank_zero(self):
        rb = rank_bounds(E7, 10)
        assert (rb.lower, rb.upper) == (0, 0)

    def test_e11_rank_two(self):
        rb = rank_bounds(E11, 10)
        assert rb.upper == 2 and rb.lower == 2

    def test_e73_upper_three(self):
        rb = rank_bounds(E73, 5)
        assert rb.upper == 3

    def test_invariants(self):
        for E in (E5, E7, E11, E23):
            rb = rank_bounds(E, 20)
            assert 0 <= rb.lower <= rb.upper
            assert rb.upper == rb.dim_selmer_psibar + rb.dim_selmer_psi - 2
            assert rb.dim_im_alpha <= rb.dim_selmer_psibar
            assert rb.dim_im_alphabar <= rb.dim_selmer_psi

    def test_reproducible(self):
        assert rank_bounds(E5, 25) == rank_bounds(E5, 25)

    def test_image_that_is_no_group_raises(self, monkeypatch):
        # three classes cannot be a group; the dimension check must say so
        monkeypatch.setattr(descent, "alpha_image", lambda E, height_bound: frozenset({1, 2, 3}))
        with pytest.raises(InternalConsistencyError, match="not a group"):
            rank_bounds(E7, 10)

    @pytest.mark.parametrize("n,congruent", [(1, False), (2, False), (3, False), (5, True), (6, True), (7, True)])
    def test_congruent_number_curves(self, n, congruent):
        # classical: y^2 = x^3 - n^2 x has rank 0 for n = 1, 2, 3 and
        # positive rank for the congruent numbers 5, 6, 7
        rb = rank_bounds(CurveModel(0, -n * n), 200)
        if congruent:
            assert rb.lower >= 1
        else:
            assert rb.upper == 0
