import random
from functools import lru_cache
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isodescent import local
from isodescent.arith import is_prime, jacobi, primes_up_to, quartic_symbol, squarefree_class, valuation
from isodescent.local import (
    INFINITY,
    Place,
    QuarticForm,
    is_zl_square,
    solvable_everywhere_locally,
    solvable_padic,
    solvable_real,
)
from oracle import Verdict, brute_oracle


class TestQuarticForm:
    def test_rejects_zero_outer_coefficients(self):
        with pytest.raises(ValueError):
            QuarticForm(0, 1, 2)
        with pytest.raises(ValueError):
            QuarticForm(2, 1, 0)

    def test_rejects_degenerate(self):
        # c^2 = 4*d1*d2
        with pytest.raises(ValueError):
            QuarticForm(1, 2, 1)
        with pytest.raises(ValueError):
            QuarticForm(3, -6, 3)

    def test_reciprocal(self):
        q = QuarticForm(3, 1, 294)
        assert q.reciprocal() == QuarticForm(294, 1, 3)


class TestPlace:
    def test_infinity(self):
        assert INFINITY.is_infinite
        assert str(INFINITY) == "infinity"

    def test_finite(self):
        assert str(Place(7)) == "7"

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            Place(6)


class TestSolvableReal:
    def test_negative_class_fails(self):
        assert not solvable_real(QuarticForm(-3, 0, -6 * 49**2))

    def test_positive_d1(self):
        assert solvable_real(QuarticForm(3, 0, 294))

    def test_positive_d2_dominates(self):
        assert solvable_real(QuarticForm(-2, 0, 72))

    def test_vertex_case(self):
        # both ends negative but a positive bump in between
        assert solvable_real(QuarticForm(-1, 5, -1))
        assert not solvable_real(QuarticForm(-1, 1, -1))


# known Q_l verdicts for the family spaces, settled by the brute oracle
KNOWN_CASES = [
    # (d1, c, d2, l, solvable)
    (3, 0, 6 * 49, 2, True),  # C_3 at 2 lifts (1, 1) mod 8
    (7, 0, 18 * 7, 2, False),  # C_p at 2 needs p = 1, 3 mod 8; 7 fails
    (11, 0, 18 * 11, 2, True),  # 11 = 3 mod 8
    (17, 0, 18 * 17, 2, True),  # 17 = 1 mod 8
    (3, 0, 6 * 49, 3, True),  # C_3 at 3 always
    (3, 0, 6 * 25, 5, True),  # (3/5) = -1 and (2/5) = -1: reciprocal rescue
    (3, 0, 6 * 49, 7, False),  # p = 7 mod 24: 3 not in the Selmer group
    (3, 0, 6 * 17**2, 17, False),  # p = 17 mod 24 likewise
    (19, 0, 18 * 19, 19, True),  # p = 3 mod 8: C_p(Q_p) nonempty
    (17, 0, 18 * 17, 17, True),  # p = 1 mod 8 with (-18/p)_4 = +1
    (2, 0, 9 * 49, 2, True),  # torsion-image space is everywhere solvable
    (2, 0, 9 * 49, 3, True),
    (2, 0, 9 * 49, 7, True),
]


def _route_residues(q, l):
    """The z0 that the Z_l search of the form, then of its reciprocal,
    returns at the depth cap (None where it finds none)."""
    cap = local._depth_cap(q, l)
    routes = []
    for form in (q, q.reciprocal()):
        poly = local._form_poly(form)
        z0 = local._zl_search_two(poly, cap) if l == 2 else local._zl_search_odd(poly, l, cap)
        routes.append((form, z0))
    return routes


def _found_residues(q, l):
    """(form, z0, F(z0)) for each route that returns a z0, after checking
    that solvable_padic is True exactly when one does and that F(z0) is
    then an exact Z_l square: 0, or an even power of l times a unit that
    is 1 mod 8 at l = 2 and a quadratic residue (by jacobi) at odd l."""
    found = [(form, z0, local._poly_eval(local._form_poly(form), z0)) for form, z0 in _route_residues(q, l) if z0 is not None]
    assert solvable_padic(q, l) == bool(found), (q, l)
    for _, _, val in found:
        assert is_zl_square(val, l), (q, l)
        if val != 0:
            v = valuation(val, l)
            unit = val // l**v
            assert v % 2 == 0, (q, l)
            assert (unit % 8 == 1) if l == 2 else (jacobi(unit, l) == 1), (q, l)
    return found


class TestSolvablePadic:
    @pytest.mark.parametrize("d1,c,d2,l,expected", KNOWN_CASES)
    def test_known_cases(self, d1, c, d2, l, expected):
        assert solvable_padic(QuarticForm(d1, c, d2), l) == expected

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            solvable_padic(QuarticForm(1, 0, 2), 6)

    def test_one_primality_test_per_call(self, monkeypatch):
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(local, "is_prime", counting_is_prime)
        cases = [(QuarticForm(d1, c, d2), l) for d1, c, d2, l, _ in KNOWN_CASES]
        cases += [(QuarticForm(p, 0, 18 * p), l) for p in (7, 17, 1217) for l in (2, 3, p)]
        for q, l in cases:
            solvable_padic(q, l)
        assert len(calls) <= len(cases)

    def test_quartic_criterion_at_p(self):
        # C_p(Q_p) for p = 1 mod 8 is nonempty iff (-18/p)_4 = +1
        for p in primes_up_to(600):
            if p % 8 != 1:
                continue
            want = quartic_symbol(-18, p) == 1
            got = solvable_padic(QuarticForm(p, 0, 18 * p), p)
            assert got == want, p

    def test_rational_witnesses_satisfy_equation(self):
        # where F(z0) is an integer square, (z0, sqrt(F(z0))) is a rational
        # point of the form the route searched
        rational = 0
        for d1, c, d2, l, expected in KNOWN_CASES:
            found = _found_residues(QuarticForm(d1, c, d2), l)
            assert bool(found) == expected
            for form, z0, val in found:
                if val >= 0 and isqrt(val) ** 2 == val:
                    w = isqrt(val)
                    assert w * w == form.d1 + form.c * z0**2 + form.d2 * z0**4
                    rational += 1
        assert rational > 0

    def test_lift_traces_satisfy_hensel_criterion(self):
        # every residue found is one that Hensel's lemma lifts
        for d1, c, d2, l, expected in KNOWN_CASES:
            assert bool(_found_residues(QuarticForm(d1, c, d2), l)) == expected

    def test_unsolvable_has_no_witness(self):
        q = QuarticForm(7, 0, 126)
        assert solvable_padic(q, 2) is False
        assert [z0 for _, z0 in _route_residues(q, 2)] == [None, None]


class TestEngineProperties:
    def _small_forms(self):
        for d1 in range(-12, 13):
            if d1 == 0:
                continue
            for d2 in range(-12, 13):
                if d2 == 0:
                    continue
                for c in (-5, -1, 0, 2, 6):
                    if c * c == 4 * d1 * d2:
                        continue
                    yield QuarticForm(d1, c, d2)

    def test_reciprocal_symmetry(self):
        for q in self._small_forms():
            for l in (2, 3, 5, 7):
                assert (
                    solvable_padic(q, l)
                    == solvable_padic(q.reciprocal(), l)
                )

    def test_square_scaling_invariance(self):
        rng = random.Random(7)
        forms = list(self._small_forms())
        for q in rng.sample(forms, 120):
            for l in (2, 3, 5):
                base = solvable_padic(q, l)
                for u in range(1, 6):
                    if u % l == 0:
                        continue
                    scaled = QuarticForm(q.d1 * u * u, q.c * u * u, q.d2 * u * u)
                    assert solvable_padic(scaled, l) == base

    def test_agreement_with_oracle(self):
        for q in self._small_forms():
            for l in (2, 3, 5, 7, 11):
                verdict = brute_oracle(q, l, 10)
                if verdict is Verdict.UNKNOWN:
                    continue
                assert (verdict is Verdict.SOLVABLE) == solvable_padic(q, l)


def _forms_by_product(limit, cs):
    """(d1, c, n // d1) for 0 < |n| <= limit, every signed divisor d1 of n
    and every c in cs, nondegenerate ones only."""
    for n in range(-limit, limit + 1):
        for d in range(1, abs(n) + 1):
            if n % d == 0:
                for d1 in (d, -d):
                    for c in cs:
                        if c * c != 4 * n:
                            yield QuarticForm(d1, c, n // d1)


def _key(q, l):
    """The key of q's verdict over Q_l: its _verdict_table and its slot there."""
    return local._fixed_key(l, q.c, q.d1 * q.d2), local._square_class_bits(q.d1, l)


class TestVerdictPerClassOverQl:
    """A Q_l verdict is decided once per (l, c, d1*d2, class of d1 in Q_l*/Q_l*^2)."""

    @pytest.mark.parametrize("l", [2, 3, 5, 7, 11])
    def test_square_class_is_the_class_in_ql(self, l):
        # n and m share a class iff n/m, equivalently n*m, is a square in Q_l
        values = [n for n in range(-80, 81) if n != 0]
        for n in values:
            for m in values:
                same = local._power_class(n, l, 2) == local._power_class(m, l, 2)
                assert same == is_zl_square(n * m, l), (n, m)

    @pytest.mark.parametrize("l", [2, 3, 5, 7, 11])
    def test_verdict_depends_only_on_the_key(self, l):
        verdicts = {}
        for q in _forms_by_product(96, (-3, 0, 1, 4, 6)):
            key = (q.c, q.d1 * q.d2, local._power_class(q.d1, l, 2))
            verdicts.setdefault(key, {})[q.d1] = solvable_padic(q, l)
        for key, by_d1 in verdicts.items():
            assert len(set(by_d1.values())) == 1, (key, by_d1)
        # keys that join d1 whose quotient is an l-adic but not a rational square
        joined = [
            by_d1
            for by_d1 in verdicts.values()
            if any(squarefree_class(d * e) != 1 for d in by_d1 for e in by_d1)
        ]
        assert len(joined) > 20

    def test_six_is_a_five_adic_square(self):
        # 6 = 1 mod 5, so (6, c, k) and (1, c, 6k) are one question at l = 5
        assert local._power_class(6, 5, 2) == local._power_class(1, 5, 2)
        for k in (-7, -5, -2, 1, 3, 5, 10, 25):
            for c in (-3, 0, 1, 4):
                six, one = QuarticForm(6, c, k), QuarticForm(1, c, 6 * k)
                assert solvable_padic(six, 5) == solvable_padic(one, 5), (c, k)

    def test_solvable_at_agrees_with_solvable_padic(self):
        # a verdict read from a shared table is the verdict of the form itself
        local._verdict_table.cache_clear()
        for q in _forms_by_product(24, (0, 2)):
            for l in (2, 3, 5):
                assert solvable_everywhere_locally(q, [Place(l)]) == solvable_padic(q, l), (q, l)

    def test_witnesses_hold_over_q(self):
        solvable = 0
        for q, l in _random_forms(random.Random(3), 1500):
            solvable += bool(_found_residues(q, l))
        assert 0 < solvable < 1500


def _is_ql_power(n, l, k):
    """Whether the nonzero integer n is a k-th power in Q_l, k in (2, 4): an
    exponent divisible by k and a unit that is a k-th power mod l, or mod
    32 at l = 2 (enough for Hensel's lemma, as v_2(4*t^3) = 2)."""
    v = valuation(n, l)
    unit = n // l**v
    modulus = 32 if l == 2 else l
    return v % k == 0 and unit % modulus in {pow(t, k, modulus) for t in range(1, modulus)}


@lru_cache(maxsize=None)
def _c0_verdicts(l):
    """The verdict of solvable_padic on every (d1, 0, d2), 0 < |d1|, |d2| <= 40."""
    values = [n for n in range(-40, 41) if n != 0]
    return {(d1, d2): solvable_padic(QuarticForm(d1, 0, d2), l) for d1 in values for d2 in values}


def _conflicts(l, key):
    """The number of forms whose verdict differs from that of the first
    form with the same key."""
    first = {}
    return sum(first.setdefault(key(d1, d2), v) != v for (d1, d2), v in _c0_verdicts(l).items())


def _key_with(l, product_class):
    """The c = 0 key with product_class(v, unit) as the class of d1*d2."""

    def key(d1, d2):
        v = valuation(d1 * d2, l)
        return local._power_class(d1, l, 2), product_class(v, d1 * d2 // l**v)

    return key


# keys coarser than Q_l*/Q_l*^4 for d1*d2, each wrong for some form
COARSER_KEYS = [
    (2, lambda v, u: (v % 4, u % 8)),  # the unit mod 8
    (2, lambda v, u: (v % 2, u % 16)),  # the valuation mod 2
    (3, lambda v, u: (v % 2, u % 3)),  # the valuation mod 2
    (5, lambda v, u: (v % 2, pow(u, 2, 5))),  # the square class
    (13, lambda v, u: (v % 2, pow(u, 6, 13))),  # the square class
]


NONZERO = st.integers(min_value=-10**6, max_value=10**6).filter(bool)
# the real place (None), l = 2 and every odd l <= 50
PLACES = st.sampled_from([None, *primes_up_to(50)])


class TestSquareClassBits:
    """_square_class_bits is the class in Q_v*/Q_v*^2 as a vector over F_2."""

    @given(m=NONZERO, n=NONZERO, l=PLACES)
    @settings(max_examples=400, deadline=None)
    def test_product_is_xor(self, m, n, l):
        assert local._square_class_bits(m * n, l) == local._square_class_bits(m, l) ^ local._square_class_bits(n, l)

    @pytest.mark.parametrize("l", primes_up_to(50))
    def test_bijection_with_the_power_class(self, l):
        # every class of Q_l*/Q_l*^2 has a representative l^e * u, e in (0, 1), 0 < u < 8l
        values = [s * l**e * u for s in (1, -1) for e in (0, 1) for u in range(1, 8 * l) if u % l]
        pairs = {(local._power_class(n, l, 2), local._square_class_bits(n, l)) for n in values}
        classes = {c for c, _ in pairs}
        assert len(classes) == len({b for _, b in pairs}) == len(pairs) == (8 if l == 2 else 4)

    def test_real_place(self):
        assert [local._square_class_bits(n, None) for n in (-7, -1, 1, 12)] == [1, 1, 0, 0]


class TestCZeroQuestionPerClassOverQl:
    """A Q_l verdict is decided once per c = 0 form with a given class of d1
    in Q_l*/Q_l*^2 and class of d1*d2 in Q_l*/Q_l*^4."""

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("l", [2, 3, 5, 7, 13])
    def test_power_class_is_the_class_in_ql(self, l, k):
        # n and m share a class iff n/m, equivalently n*m^(k-1), is a k-th power
        values = [n for n in range(-60, 61) if n != 0]
        for n in values:
            for m in values:
                same = local._power_class(n, l, k) == local._power_class(m, l, k)
                assert same == _is_ql_power(n * m ** (k - 1), l, k), (n, m)

    @pytest.mark.parametrize("l", [2, 3, 5, 7, 11, 13, 17])
    def test_one_verdict_per_key(self, l):
        assert _conflicts(l, lambda d1, d2: _key(QuarticForm(d1, 0, d2), l)) == 0
        keys = {_key(QuarticForm(d1, 0, d2), l) for d1, d2 in _c0_verdicts(l)}
        # classes of d1 mod squares times classes of d1*d2 mod fourth powers
        assert len(keys) <= (8 * 32 if l == 2 else 4 * 4 * gcd(4, l - 1))

    @pytest.mark.parametrize("l,product_class", COARSER_KEYS)
    def test_coarser_keys_conflict(self, l, product_class):
        assert _conflicts(l, _key_with(l, product_class)) > 0

    def test_the_key_helper_is_exact_with_the_right_class(self):
        assert _conflicts(2, _key_with(2, lambda v, u: (v % 4, u % 16))) == 0
        assert _conflicts(13, _key_with(13, lambda v, u: (v % 4, pow(u, 3, 13)))) == 0

    def test_forms_of_different_curves_share_a_verdict(self, monkeypatch):
        # the 3-spaces of E_7 and E_17: 7^2 = 17^2 (mod 16), and both are units at 3
        for l in (2, 3):
            assert _key(QuarticForm(3, 0, 6 * 49), l) == _key(QuarticForm(3, 0, 6 * 289), l)
        calls = []

        def counting_solvable_padic(q, l):
            calls.append((q, l))
            return solvable_padic(q, l)

        monkeypatch.setattr(local, "solvable_padic", counting_solvable_padic)
        local._verdict_table.cache_clear()
        assert solvable_everywhere_locally(QuarticForm(3, 0, 6 * 49), [Place(2)])
        assert solvable_everywhere_locally(QuarticForm(3, 0, 6 * 289), [Place(2)])
        assert calls == [(QuarticForm(3, 0, 6 * 49), 2)]

    def test_c_nonzero_keeps_the_exact_product(self):
        # 18 and 18*81 are one class mod fourth powers at l = 3, not one number
        assert _key(QuarticForm(1, 1, 18), 3) != _key(QuarticForm(1, 1, 18 * 81), 3)
        assert _key(QuarticForm(1, 0, 18), 3) == _key(QuarticForm(1, 0, 18 * 81), 3)


class TestBruteOracle:
    def test_mod8_lift(self):
        assert brute_oracle(QuarticForm(3, 0, 294), 2, 6) is Verdict.SOLVABLE

    def test_certified_unsolvable(self):
        assert brute_oracle(QuarticForm(7, 0, 126), 2, 8) is Verdict.UNSOLVABLE

    def test_agreement_example(self):
        q = QuarticForm(-1, 0, -18)
        verdict = brute_oracle(q, 5, 6)
        assert verdict is Verdict.SOLVABLE
        assert solvable_padic(q, 5)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            brute_oracle(QuarticForm(1, 0, 2), 4, 5)
        with pytest.raises(ValueError):
            brute_oracle(QuarticForm(1, 0, 2), 5, 0)


class TestEverywhereLocally:
    def test_torsion_space_everywhere(self):
        places = {INFINITY, Place(2), Place(3), Place(7)}
        assert solvable_everywhere_locally(QuarticForm(2, 0, 9 * 49), places)

    def test_real_failure_short_circuits(self):
        places = {INFINITY, Place(2)}
        assert not solvable_everywhere_locally(QuarticForm(-3, 0, -6), places)

    def test_three_class_fails_at_seven(self):
        places = {INFINITY, Place(2), Place(3), Place(7)}
        assert not solvable_everywhere_locally(QuarticForm(3, 0, 6 * 49), places)

    def test_empty_places_rejected(self):
        with pytest.raises(ValueError):
            solvable_everywhere_locally(QuarticForm(1, 0, 2), set())

    def test_order_independence(self):
        q = QuarticForm(5, 0, 90)
        a = solvable_everywhere_locally(q, [INFINITY, Place(2), Place(3), Place(5)])
        b = solvable_everywhere_locally(q, [Place(5), Place(3), Place(2), INFINITY])
        assert a == b


class TestIsZlSquare:
    def test_zero(self):
        assert is_zl_square(0, 5)

    def test_even_valuation_unit_square(self):
        assert is_zl_square(4 * 9, 5)  # 36 = 1 mod 5
        assert not is_zl_square(5 * 9, 5)  # odd valuation
        assert is_zl_square(17, 2)  # 17 = 1 mod 8
        assert not is_zl_square(12, 2)  # 12 = 4 * 3, 3 != 1 mod 8

    @given(n=st.integers(min_value=-10**30, max_value=10**30), l=st.sampled_from(primes_up_to(50)))
    @example(n=0, l=2)
    @example(n=-7 * 4**40, l=2)  # -7 = 1 mod 8: a square
    @example(n=3 * 4**40, l=2)
    @example(n=-(3**60), l=3)  # -1 is no square mod 3
    @example(n=2 * 5**41, l=5)  # odd valuation
    @example(n=-(13**26), l=13)  # -1 is a square mod 13
    @settings(max_examples=400, deadline=None)
    def test_is_the_trivial_power_class(self, n, l):
        assert is_zl_square(n, l) == (n == 0 or local._power_class(n, l, 2) == (0, 1))


# ---------------------------------------------------------------------------
# the odd-l search against a walk over all of F_l


def walk_zl_search_odd(f, l, budget):
    """Reference odd-l search: the walk over every residue of F_l that the
    engine used before it found roots algebraically.  Same contract as
    local._zl_search_odd; cost linear in l, so only for small l."""
    squares = {i * i % l for i in range(1, l)}
    f, e = local._strip_even_content(f, l)
    unit_part = f if e == 0 else tuple(c // l for c in f)
    gmod = [c % l for c in unit_part]
    if not any(gmod[1:]):
        return 0 if (e == 0 and gmod[0] in squares) else None
    roots = []
    for t0 in range(l):
        r = local._poly_eval(gmod, t0) % l
        if r == 0:
            roots.append(t0)
        elif e == 0 and r in squares:
            return t0
    for t0 in roots:
        if is_zl_square(local._poly_eval(f, t0), l):
            return t0
        assert budget > 0
        sub = walk_zl_search_odd(local._poly_shift(f, t0, l), l, budget - 1)
        if sub is not None:
            return t0 + l * sub
    return None


def _random_forms(rng, count):
    """(form, l) pairs over odd primes l < 3000, with l-power content and
    square cofactors in d1, c and d2."""
    odd = [p for p in primes_up_to(3000) if p > 2]
    out = []
    while len(out) < count:
        l = rng.choice(odd[:12]) if rng.random() < 0.5 else rng.choice(odd)

        def coefficient():
            x = rng.choice([-1, 1]) * rng.randint(1, 60)
            x *= l ** rng.choice([0, 0, 0, 1, 2, 3])
            return x * rng.choice([1, 1, 4, 9, l * l, rng.randint(1, 40) ** 2])

        d1, d2 = coefficient(), coefficient()
        c = coefficient() if rng.random() < 0.8 else 0
        if c * c != 4 * d1 * d2:
            out.append((QuarticForm(d1, c, d2), l))
    return out


def _walk_residues(q, l):
    """_route_residues with the walk in place of _zl_search_odd."""
    cap = local._depth_cap(q, l)
    return [(form, walk_zl_search_odd(local._form_poly(form), l, cap)) for form in (q, q.reciprocal())]


class TestOddSearchAgainstWalk:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_residue_as_the_walk(self, seed):
        for q, l in _random_forms(random.Random(seed), 1500):
            assert _route_residues(q, l) == _walk_residues(q, l), (q, l)

    def test_family_spaces_match_the_walk(self):
        for p in (7, 11, 17, 23, 41, 73, 97, 113, 1217):
            for b in (18 * p * p, -72 * p * p):
                for b1 in (1, -1, 2, -2, 3, -3, 6, -6, p, -p, 2 * p, -2 * p, 3 * p, -6 * p):
                    if b % b1 == 0:
                        for l in (3, p):
                            q = QuarticForm(b1, 0, b // b1)
                            assert _route_residues(q, l) == _walk_residues(q, l), (q, l)


def _brute_roots(g, l):
    return [t for t in range(l) if local._poly_eval(g, t) % l == 0]


def _even_quartic(lead, u_roots, l):
    """lead * prod(z^2 - u) over the two u_roots, over F_l."""
    u1, u2 = u_roots
    return [lead * u1 * u2 % l, 0, -lead * (u1 + u2) % l, 0, lead % l]


def _nonresidue(l):
    return next(n for n in range(2, l) if jacobi(n, l) == -1)


# l = 3 mod 4, then l = 1 mod 8, where l - 1 has 2-part 2^3, 2^16, 2^23
# (998244353 = 119 * 2^23 + 1) and 2^4
SQRT_PRIMES = [1_000_003, 2**61 - 1, 10009, 65537, 998244353, 10238844796821566353]


class TestSqrtMod:
    @pytest.mark.parametrize("l", SQRT_PRIMES)
    def test_squares_back(self, l):
        assert is_prime(l)
        rng = random.Random(l)
        for a in [0, 1, 2, l - 1, *(rng.randrange(l) for _ in range(200))]:
            r = local._sqrt_mod(a * a % l, l)
            assert r * r % l == a * a % l, a

    @pytest.mark.parametrize("l", SQRT_PRIMES)
    def test_none_for_nonresidues(self, l):
        n = _nonresidue(l)
        rng = random.Random(l + 1)
        for _ in range(50):
            assert local._sqrt_mod(n * rng.randrange(1, l) ** 2, l) is None


class TestFlRoots:
    @pytest.mark.parametrize("l", [3, 5, 7, 11, 13, 9973, 10007, 10009])
    def test_against_brute_walk(self, l):
        rng = random.Random(l)
        cases = []
        for _ in range(40):
            # degree 1 and 2, random and with a repeated root
            cases.append([rng.randrange(l), rng.randrange(1, l)])
            cases.append([rng.randrange(l), rng.randrange(l), rng.randrange(1, l)])
            r, a = rng.randrange(l), rng.randrange(1, l)
            cases.append([a * r * r % l, -2 * a * r % l, a])
            # even quartics: random, split in u, a repeated u, a zero u
            cases.append([rng.randrange(l), 0, rng.randrange(l), 0, rng.randrange(1, l)])
            u1, u2 = rng.randrange(l), rng.randrange(l)
            for us in ((u1, u2), (u1, u1), (0, u2), (0, 0)):
                cases.append(_even_quartic(rng.randrange(1, l), us, l))
            # u a non-residue, and C + A*z^2 with C = 0
            cases.append(_even_quartic(rng.randrange(1, l), (_nonresidue(l), u1), l))
            cases.append([0, 0, rng.randrange(1, l)])
        for g in cases:
            assert local._fl_roots(g, l) == _brute_roots(g, l), g

    @pytest.mark.parametrize("l", [3, 5, 7, 11, 13, 10007])
    def test_every_residue_a_root_and_irreducible_factors(self, l):
        rng = random.Random(l + 1)
        n = _nonresidue(l)
        # z^2 - n has no root; alone, and times z^2 - r^2, with r = 0 or not
        assert local._fl_roots([-n % l, 0, 1], l) == []
        for _ in range(20):
            r = rng.randrange(l)
            g = _even_quartic(rng.randrange(1, l), (n, r * r % l), l)
            assert local._fl_roots(g, l) == _brute_roots(g, l) == sorted({r, -r % l})
        # z^4 - z^2 vanishes on every residue mod 3, z^4 - 1 on every unit mod 5
        if l == 3:
            assert local._fl_roots(_even_quartic(1, (0, 1), l), l) == [0, 1, 2]
        if l == 5:
            assert local._fl_roots(_even_quartic(1, (1, 4), l), l) == [1, 2, 3, 4]

    @pytest.mark.parametrize("g", [[1, 2, 0, 1], [1, 1, 0, 0, 1], [1, 0, 0, 1, 1], [0, 1, 1, 1]])
    def test_other_shapes_raise(self, g):
        # a cubic and quartics with an odd-degree term cannot occur (the lemma)
        with pytest.raises(AssertionError):
            local._fl_roots(g, 7)
        with pytest.raises(AssertionError):
            local._fl_is_scaled_square(g, 7)


class TestScaledSquareEarlyStop:
    # l = 3 mod 4, so 1 + t^2 has no root mod l; a walk over F_l would
    # test l - 1 residues
    L = 1_000_003

    def test_scaled_square_recognized(self):
        l = 10007
        # 7*(z^2 - 5)^2 and 7*(z - 3)^2, but not 7*(z^2 - 5)*(z^2 - 6) or 7*(z - 3)
        assert local._fl_is_scaled_square(_even_quartic(7, (5, 5), l), l)
        assert local._fl_is_scaled_square([7 * 9, -42 % l, 7], l)
        assert not local._fl_is_scaled_square(_even_quartic(7, (5, 6), l), l)
        assert not local._fl_is_scaled_square([-21 % l, 7], l)

    def test_nonresidue_times_square_stops_after_one_residue(self, monkeypatch):
        l = self.L
        assert is_prime(l) and l % 4 == 3
        n = next(n for n in range(2, 100) if jacobi(n, l) == -1)
        # n*(1 + z^2)^2 + l*z^4: every unit value is n times a square
        q = QuarticForm(n, 2 * n, n + l)
        tested = []
        real_test = local.is_zl_square

        def counting(val, ll):
            tested.append(val)
            return real_test(val, ll)

        monkeypatch.setattr(local, "is_zl_square", counting)
        assert local._zl_search_odd(local._form_poly(q), l, 5) is None
        assert tested == [n]
        assert solvable_padic(q, l) is False

    def test_residue_times_square_is_solvable_at_zero(self):
        l = self.L
        r = next(r for r in (2, 3, 5, 6, 7, 10, 11) if jacobi(r, l) == 1)
        q = QuarticForm(r, 2 * r, r + l)
        # the form itself is found at z0 = 0, where F(0) = r is a unit residue
        assert _found_residues(q, l)[0] == (q, 0, r)


class TestGiantPlace:
    # the large prime factor of 10^30 + 7 = 251897 * 387727 * L
    L = 10238844796821566353

    def test_minus_four_space(self):
        # w^2 = L - 4z^4 has a Q_L point iff -1 is a square mod L
        assert solvable_padic(QuarticForm(self.L, 0, -4), self.L) == (jacobi(-1, self.L) == 1)

    def test_selmer_space_of_the_curve(self):
        assert solvable_padic(QuarticForm(self.L, 0, 1), self.L)
