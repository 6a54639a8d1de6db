import collections
import inspect
import itertools
import math
import random
import re
import sys
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isodescent import arith
from isodescent.arith import (
    IS_PRIME_LIMIT,
    _iroot,
    class_product,
    factorize,
    is_prime,
    iter_primes,
    quartic_symbol,
    squarefree_class,
)
from oracle import jacobi, valuation


def _trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# psi_k, the least strong pseudoprime to each of the first k prime bases,
# for k = 1 ... 13 (Jaeschke; Sorenson-Webster for psi_12 and psi_13):
# psi_7 = psi_8 and psi_9 = psi_10 = psi_11
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


class TestIsPrime:
    def test_smallest_prime(self):
        assert is_prime(2)

    def test_19249(self):
        assert is_prime(19249)

    def test_3651_composite(self):
        assert 3651 == 3 * 1217
        assert not is_prime(3651)

    def test_one(self):
        assert not is_prime(1)

    def test_agrees_with_trial_division(self):
        for n in range(1, 3000):
            assert is_prime(n) == _trial_division_prime(n), n

    def test_agrees_with_sympy_on_larger_samples(self):
        sympy = pytest.importorskip("sympy")
        for n in (10**9 + 7, 10**9 + 9, 2**61 - 1, 2**61 + 15, 10**12 + 39, 10**12 + 41):
            assert is_prime(n) == bool(sympy.isprime(n))

    @pytest.mark.parametrize("psi", sorted(set(PSI[:12])))
    def test_strong_pseudoprimes_are_composite(self, psi):
        assert not is_prime(psi)

    # the bands [psi_(k-1), psi_k) that hold an n (psi_0 = 1): those of
    # k = 8, 10 and 11 are empty
    @pytest.mark.parametrize("k", [k for k in range(1, 14) if k == 1 or PSI[k - 2] < PSI[k - 1]])
    def test_miller_rabin_stops_at_psi_k(self, k, monkeypatch):
        # an n in [psi_(k-1), psi_k) is decided by the first k bases: a
        # prime runs exactly those, a composite at most those.  A psi_k in
        # arith above the true one lets a prime sampled between the two stop
        # a base early; one below it, run a base too many.
        sympy = pytest.importorskip("sympy")
        assert PSI[-1] == IS_PRIME_LIMIT
        lo, hi = (PSI[k - 2] if k > 1 else 1), PSI[k - 1]
        bases = []

        def counting_pow(base, exp, mod=None):
            # the body's one pow per base: the base to the odd part of n - 1
            bases.append(base)
            return pow(base, exp, mod)

        monkeypatch.setattr(arith, "pow", counting_pow, raising=False)
        rng = random.Random(k)
        primes = 0
        for _ in range(200):
            n = rng.randrange(lo | 1, hi, 2)
            bases.clear()
            prime = bool(sympy.isprime(n))
            assert arith.is_prime.__wrapped__(n) == prime, n
            if prime and n > arith._BASES[-1]:
                assert bases == list(arith._BASES[:k]), n
                primes += 1
            else:
                assert bases == list(arith._BASES[: len(bases)]) and len(bases) <= k, n
        assert primes > 0

    def test_largest_prime_in_range(self):
        sympy = pytest.importorskip("sympy")
        assert is_prime(sympy.prevprime(IS_PRIME_LIMIT))

    def test_agrees_with_sympy_near_the_limit(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(0)
        for _ in range(2000):
            n = rng.randrange(10**23 + 1, IS_PRIME_LIMIT, 2)
            assert is_prime(n) == bool(sympy.isprime(n)), n

    @pytest.mark.parametrize("bad", [0, -5])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            is_prime(bad)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            is_prime(IS_PRIME_LIMIT)


class TestValuation:
    @pytest.mark.parametrize(
        "n,l,expected",
        [
            (72, 2, 3),
            (72, 3, 2),
            (18 * 121, 11, 2),
            (18 * 121**2, 11, 4),
            (-40, 2, 3),
            (7, 5, 0),
        ],
    )
    def test_examples(self, n, l, expected):
        assert valuation(n, l) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            valuation(0, 2)

    def test_composite_base_rejected(self):
        with pytest.raises(ValueError):
            valuation(12, 4)


class TestSquarefreeClass:
    @pytest.mark.parametrize(
        "n,expected",
        [(18, 2), (-72, -2), (19249**2 * 6, 6), (1, 1), (-1, -1), (450, 2)],
    )
    def test_examples(self, n, expected):
        assert squarefree_class(n) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_class(0)

    @given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0))
    def test_idempotent(self, n):
        s = squarefree_class(n)
        assert squarefree_class(s) == s

    @given(
        st.integers(min_value=-3000, max_value=3000).filter(lambda n: n != 0),
        st.integers(min_value=1, max_value=60),
    )
    def test_square_invariance(self, n, k):
        assert squarefree_class(n * k * k) == squarefree_class(n)

    @given(
        st.integers(min_value=-5000, max_value=5000).filter(lambda n: n != 0),
        st.integers(min_value=-5000, max_value=5000).filter(lambda n: n != 0),
    )
    def test_multiplicative_up_to_squares(self, u, v):
        lhs = squarefree_class(u * v)
        rhs = squarefree_class(squarefree_class(u) * squarefree_class(v))
        assert lhs == rhs

    def test_class_product_matches_factoring(self):
        for u in (-30, -6, -1, 2, 15, 210):
            for v in (-35, -2, 1, 6, 77):
                su, sv = squarefree_class(u), squarefree_class(v)
                assert class_product(su, sv) == squarefree_class(u * v)


class TestFactorize:
    def test_known(self):
        assert factorize(18 * 49) == {2: 1, 3: 2, 7: 2}
        assert factorize(-72) == {2: 3, 3: 2}

    def test_large_prime_square(self):
        p = 19249
        assert factorize(18 * p * p) == {2: 1, 3: 2, p: 2}

    def test_large_prime_powers(self):
        p = 10238844796821566353
        for e in (1, 2, 3, 4):
            assert factorize(-12 * p**e) == {2: 2, 3: 1, p: e}

    def test_each_call_gets_its_own_dict(self):
        first = factorize(18 * 49)
        first[7] = 0
        assert factorize(18 * 49) == {2: 1, 3: 2, 7: 2}

    @pytest.mark.parametrize("n", [10**27 + 7, 10**400 + 1], ids=["28-digit", "401-digit"])
    def test_unsupported_cofactor_rejected(self, n):
        # 10^27 + 7 = 8325465851 * 120113398805171557; 10^400 + 1 is past float range
        with pytest.raises(ValueError, match="out of supported factoring range"):
            factorize(n)


@lru_cache(maxsize=1)
def _primes_to_a_million():
    return list(iter_primes(10**6))


def full_trial_division(n):
    """factorize as it was before it stopped early: trial division by every
    prime up to 10^6 while p^2 <= n, then a prime-power cofactor."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out = {}
    for p in _primes_to_a_million():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        for mult in (1, 2, 3, 4):
            root = _iroot(n, mult)
            if root**mult == n and root < IS_PRIME_LIMIT and is_prime(root):
                out[root] = out.get(root, 0) + mult
                break
        else:
            raise ValueError(f"cofactor {n} out of supported factoring range")
    return out


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def trial_divisors(n):
    """factorize(n) and the divisors it tries: on each line of its source
    that takes n modulo a name, the value of that name as the line starts."""
    lines, first = inspect.getsourcelines(factorize)
    divisor_at = {}
    for i, text in enumerate(lines):
        match = re.search(r"\bn % (\w+)", text)
        if match:
            divisor_at[first + i] = match[1]
    assert divisor_at, "factorize takes n modulo nothing"
    tried = []

    def trace(frame, event, arg):
        if frame.f_code is not factorize.__code__:
            return None
        if event == "line" and frame.f_lineno in divisor_at:
            tried.append(frame.f_locals[divisor_at[frame.f_lineno]])
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = factorize(n)
    finally:
        sys.settrace(previous)
    return result, tried


class TestFactorizeStopsEarly:
    def test_prime_square_cofactor_builds_no_sieve(self):
        # once 2 and 3 are divided out the cofactor p^2 is a prime power,
        # so no trial divisor past 3 is tried
        p = 1043113
        result, tried = trial_divisors(18 * p * p)
        assert result == {2: 1, 3: 2, p: 2}
        assert set(tried) == {2, 3}, sorted(set(tried))[:10]

    @given(
        small=st.lists(st.sampled_from(list(iter_primes(100))), max_size=6),
        r=st.integers(min_value=2, max_value=9_999_991).map(_next_prime),
        k=st.integers(min_value=1, max_value=5),
        sign=st.sampled_from([1, -1]),
    )
    @example(small=[2, 3, 3], r=1043113, k=2, sign=1)
    @example(small=[2, 3, 3], r=1043113, k=5, sign=1)  # past 10^6: rejected as before
    @example(small=[2, 2, 2, 3, 3], r=999983, k=5, sign=-1)  # trial division finds it
    @example(small=[97, 97], r=2, k=5, sign=1)
    @example(small=[], r=7, k=1, sign=1)
    @example(small=[999979], r=999983, k=1, sign=1)  # the two largest primes below 10^6
    @example(small=[1000003], r=1000033, k=1, sign=1)  # two primes past 10^6: rejected
    @settings(max_examples=200, deadline=None)
    def test_same_as_full_trial_division(self, small, r, k, sign):
        n = sign * math.prod(small) * r**k
        try:
            want = full_trial_division(n)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                factorize(n)
            assert str(raised.value) == str(exc)
        else:
            assert factorize(n) == want


class TestIroot:
    @given(st.integers(min_value=0, max_value=10**1200), st.sampled_from([1, 2, 3, 4]))
    @settings(max_examples=300, deadline=None)
    def test_floor_of_root(self, n, k):
        r = _iroot(n, k)
        assert r**k <= n < (r + 1) ** k

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exact_powers_and_neighbours(self, k):
        for base in (0, 1, 2, 3, 10**9 + 7, 10**110 + 3):
            assert _iroot(base**k, k) == base
            if base:
                assert _iroot(base**k - 1, k) == base - 1


class TestJacobi:
    def test_three_mod_seven(self):
        # squares mod 7 are {1, 2, 4}
        assert jacobi(3, 7) == -1

    def test_one_is_always_residue(self):
        for p in (3, 5, 7, 11, 1217):
            assert jacobi(1, p) == 1

    def test_six_mod_five(self):
        assert jacobi(6, 5) == 1

    def test_zero_iff_common_factor(self):
        assert jacobi(15, 9) == 0
        assert jacobi(14, 9) != 0

    @pytest.mark.parametrize("bad", [0, -3, 4])
    def test_rejects_bad_modulus(self, bad):
        with pytest.raises(ValueError):
            jacobi(5, bad)

    @given(
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=0, max_value=200),
    )
    def test_multiplicative_in_numerator(self, a, b, k):
        n = 2 * k + 1
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_matches_legendre_on_primes(self):
        for p in list(iter_primes(200))[1:]:
            for a in range(1, p):
                expected = 1 if any(x * x % p == a for x in range(1, p)) else -1
                assert jacobi(a, p) == expected

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        for a in range(-50, 51):
            for n in range(1, 100, 2):
                assert jacobi(a, n) == sympy.jacobi_symbol(a, n)


def _plain_sieve(limit: int) -> list[int]:
    """The whole-range sieve of Eratosthenes that iter_primes replaced."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i in range(2, limit + 1) if sieve[i]]


class TestIterPrimes:
    def test_segment_edges(self):
        # segments start at 2 + k * _SEGMENT: the limits around the first
        # three edges
        S = arith._SEGMENT
        reference = _plain_sieve(3 * S + 4)
        for edge in (2 + S, 2 + 2 * S, 2 + 3 * S):
            for limit in range(edge - 2, edge + 3):
                assert list(iter_primes(limit)) == [p for p in reference if p <= limit], limit

    def test_small_limits(self):
        for limit in range(-2, 200):
            assert list(iter_primes(limit)) == [p for p in _plain_sieve(200) if p <= limit]

    def test_memory_follows_the_position_not_the_limit(self):
        # the first 10^5 primes below 10^24: a whole-range sieve would need
        # 10^24 bytes, the segments need their sieving primes up to ~1140
        tracemalloc.start()
        try:
            last = collections.deque(itertools.islice(iter_primes(10**24), 10**5), maxlen=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert last[0] == 1_299_709
        assert peak < 1 << 20, peak


class TestQuarticSymbol:
    def test_2_mod_17(self):
        # 2^4 = 16 = -1 mod 17
        assert quartic_symbol(2, 17) == -1

    def test_2_mod_73(self):
        # 2^9 = 1 mod 73, hence 2^18 = 1
        assert quartic_symbol(2, 73) == 1

    def test_one_trivial(self):
        for p in (5, 13, 17, 73, 1217):
            assert quartic_symbol(1, p) == 1

    def test_rank_one_prime_list(self):
        for p in (1217, 1601, 5297, 9521, 19249):
            assert quartic_symbol(2, p) == 1

    def test_rejects_non_residue(self):
        # 3 is not a square mod 5
        with pytest.raises(ValueError):
            quartic_symbol(3, 5)

    def test_rejects_divisible(self):
        with pytest.raises(ValueError):
            quartic_symbol(34, 17)

    def test_rejects_p_3_mod_4(self):
        with pytest.raises(ValueError):
            quartic_symbol(2, 7)

    def test_square_consistency(self):
        # (a^2/p)_4 = (a/p) whenever defined
        for p in (13, 17, 29, 73, 97):
            for a in range(1, p):
                if a % p == 0:
                    continue
                assert quartic_symbol(a * a, p) == jacobi(a, p)

    @pytest.mark.parametrize("p", [p for p in iter_primes(300) if p % 4 == 1])
    def test_defined_exactly_on_the_residues(self, p):
        fourth_powers = {pow(x, 4, p) for x in range(1, p)}
        for a in range(1, p):
            if jacobi(a, p) == -1:
                with pytest.raises(ValueError, match=f"^quartic_symbol undefined: {a} is not a quadratic residue mod {p}$"):
                    quartic_symbol(a, p)
            else:
                assert quartic_symbol(a, p) == (1 if a in fourth_powers else -1)

    def test_fourth_power_equivalence_sample(self):
        for p in (17, 41, 73, 89, 97, 113, 137, 193):
            expected = 1 if any(pow(x, 4, p) == 2 for x in range(1, p)) else -1
            assert quartic_symbol(2, p) == expected

    def test_symbol_relation_sample(self):
        # (-18/p)_4 = (2/p)_4 * (3/p) for p = 1 mod 8
        for p in iter_primes(3000):
            if p % 8 != 1:
                continue
            assert quartic_symbol(-18, p) == quartic_symbol(2, p) * jacobi(3, p)
