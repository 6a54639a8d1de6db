"""Exact integer arithmetic primitives.

Primality, p-adic valuations, Jacobi and rational quartic residue symbols,
and canonical square-class representatives.  Everything here is a pure
function on Python ints (arbitrary precision), deterministic, and safe to
call concurrently.

Square classes are represented by signed squarefree integers: the class of
a nonzero rational v is the unique squarefree integer s with v = s * k^2.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, Optional

# Deterministic Miller-Rabin witness set, valid for all n below this bound
# (Sorenson-Webster).  Inputs past the bound are rejected rather than
# answered probabilistically.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
IS_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


# the factorizations, places and symbols of one curve ask about the same few
# primes again and again
@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic primality test for 1 <= n < IS_PRIME_LIMIT.

    Raises ValueError outside the supported range (never cached); never
    probabilistic.
    """
    if n < 1:
        raise ValueError(f"is_prime requires n >= 1, got {n}")
    if n >= IS_PRIME_LIMIT:
        raise ValueError(f"is_prime supports n < {IS_PRIME_LIMIT}, got {n}")
    if n == 1:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    # n odd, n > 47: Miller-Rabin with the fixed witness set
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n: int, l: int) -> int:
    """Largest e with l^e dividing n.  n must be nonzero, l prime."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if not is_prime(l):
        raise ValueError(f"valuation requires a prime base, got {l}")
    return _vl(n, l)


def _vl(n: int, l: int) -> int:
    """valuation(n, l) without its checks, for callers that already know
    n != 0 and l prime (the local engine asks this at every residue)."""
    e = 0
    while n % l == 0:
        n //= l
        e += 1
    return e


# integers sieved at a time by iter_primes
_SEGMENT = 1 << 16


def iter_primes(limit: int) -> Iterator[int]:
    """The primes <= limit, ascending: a sieve of Eratosthenes over the
    segments [2 + k*_SEGMENT, 2 + (k + 1)*_SEGMENT).

    The sieving primes come, as far as each segment needs them, from the
    primes <= isqrt(limit), so memory grows like the square root of the
    position reached, not like limit.
    """
    root = math.isqrt(max(limit, 0))
    source = iter_primes(root) if root >= 2 else iter(())
    base: list[int] = []
    nxt = next(source, None)
    for lo in range(2, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        while nxt is not None and nxt * nxt < hi:
            base.append(nxt)
            nxt = next(source, None)
        segment = bytearray([1]) * (hi - lo)
        for p in base:
            start = max(p * p, -(-lo // p) * p) - lo
            segment[start::p] = bytes(len(range(start, hi - lo, p)))
        yield from itertools.compress(range(lo, hi), segment)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        raise ValueError(f"primes_up_to requires limit >= 2, got {limit}")
    return list(iter_primes(limit))


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0 for k in (1, 2, 3, 4), in exact
    integer arithmetic (no float, so no overflow and no long walk)."""
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    if k == 4:
        return math.isqrt(math.isqrt(n))
    # k == 3, by Newton from above: 2^ceil(bits/3) > n^(1/3), and the
    # iterates fall until they reach the floor of the cube root
    r = 1 << -(-n.bit_length() // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            return r
        r = s


def _prime_power(n: int) -> Optional[tuple[int, int]]:
    """(r, k) with n = r^k, r prime (below IS_PRIME_LIMIT) and k <= 4, or None."""
    for k in (1, 2, 3, 4):
        root = _iroot(n, k)
        if root**k == n and root < IS_PRIME_LIMIT and is_prime(root):
            return root, k
    return None


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Desk-scale only: trial division by 2 and the odd numbers up to 10^6
    (an odd composite never divides: its primes are divided out first),
    then the remainder must be a prime power p^e, e <= 4 (all that descent
    coefficients like 2*b*bbar ever produce).  Anything else is rejected.
    Trial division stops as soon as the cofactor is such a prime power.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    power = _prime_power(n)
    for d in itertools.chain((2,), range(3, 1_000_001, 2)):
        if power is not None or d * d > n:
            break
        if n % d == 0:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            power = _prime_power(n)
    # every cofactor was tested as it arose, so what is left is final
    if power is not None:
        out[power[0]] = power[1]
    elif n > 1:
        raise ValueError(f"cofactor {n} out of supported factoring range")
    return out


@lru_cache(maxsize=64)
def _factorization(m: int) -> tuple[tuple[int, int], ...]:
    """factorize(m) for m >= 1 as ascending (prime, exponent) pairs.

    The package's own callers go through this cache, so each distinct |n|
    is trial-divided once per process; a tuple, so no caller can change
    what another one reads.
    """
    return tuple(sorted(factorize(m).items()))


def squarefree_class(n: int) -> int:
    """Canonical representative of n modulo nonzero rational squares.

    sign(n) times the product of primes dividing n to an odd power.
    Idempotent: squarefree_class(v * k^2) == squarefree_class(v).
    """
    if n == 0:
        raise ValueError("0 has no square class")
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in _factorization(abs(n)):
        if e % 2:
            out *= p
    return out


def class_product(u: int, v: int) -> int:
    """Product of two square classes (inputs must already be squarefree)."""
    g = math.gcd(u, v)
    return (u * v) // (g * g)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; the Legendre symbol for prime n.

    0 iff gcd(a, n) > 1.  Multiplicative in both arguments.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"jacobi requires odd n >= 1, got n={n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def quartic_symbol(a: int, p: int) -> int:
    """Rational quartic residue symbol (a/p)_4 = a^((p-1)/4) mod p in {+1,-1}.

    Defined only for p prime, p = 1 mod 4, p not dividing a, and a a
    quadratic residue mod p; +1 exactly when a is a fourth power mod p.
    Non-residues are rejected, not extended to fourth roots of unity.
    """
    if not is_prime(p):
        raise ValueError(f"quartic_symbol requires prime p, got {p}")
    if p % 4 != 1:
        raise ValueError(f"quartic_symbol requires p = 1 mod 4, got {p}")
    if a % p == 0:
        raise ValueError(f"quartic_symbol undefined: {p} divides {a}")
    # r^2 = (a/p) by Euler's criterion, so r = +-1 iff a is a residue
    r = pow(a % p, (p - 1) // 4, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise ValueError(f"quartic_symbol undefined: {a} is not a quadratic residue mod {p}")
