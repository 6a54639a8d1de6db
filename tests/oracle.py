"""References for the tests: a brute-force oracle for local solvability,
and the two arithmetic functions (jacobi, valuation) that the tests check
the engine against and that no engine module calls.

brute_oracle is a breadth-first residue search that only ever reports a
definite answer with a certificate (an exact Z_l-square value, or a
proof that every residue class mod l^k is pinned to a non-square).  The
tests use it to cross-examine isodescent.local.solvable_padic; it is
tri-state because it must never claim completeness beyond its depth.
Its square test reads the class of a value in Q_l*/Q_l*^2 from
_power_class, not from the class bits (_square_class_bits) that the
engine's is_zl_square reads, so a fault in either shows as disagreement.

jacobi is the Jacobi symbol by quadratic reciprocity, which the engine's
Euler-criterion class bits and quartic_symbol do not use; valuation is
the checked form of the engine's _vl.
"""

from enum import Enum

from isodescent.arith import _vl, is_prime
from isodescent.local import Poly, QuarticForm, _poly_eval, _power_class


def valuation(n: int, l: int) -> int:
    """Largest e with l^e dividing n.  n must be nonzero, l prime."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if not is_prime(l):
        raise ValueError(f"valuation requires a prime base, got {l}")
    return _vl(n, l)


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


class Verdict(Enum):
    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"
    UNKNOWN = "unknown"


def _bfs_one(f: Poly, l: int, depth: int) -> Verdict:
    """Breadth-first certified search for z in Z_l with f(z) a square."""
    prune_gap = 3 if l == 2 else 1
    live = [0]
    modulus = 1
    for k in range(1, depth + 1):
        nxt: list[int] = []
        for base in live:
            for digit in range(l):
                z0 = base + digit * modulus
                val = _poly_eval(f, z0)
                if val == 0 or _power_class(val, l, 2) == (0, 1):
                    return Verdict.SOLVABLE
                # f(z) = val mod l^k on the whole class; once v(val) is
                # far enough below k the square-ness of the class is pinned.
                if _vl(val, l) <= k - prune_gap:
                    continue
                nxt.append(z0)
        if not nxt:
            return Verdict.UNSOLVABLE
        live = nxt
        modulus *= l
    return Verdict.UNKNOWN


def brute_oracle(q: QuarticForm, l: int, depth: int) -> Verdict:
    """Tri-state exhaustive residue search over the form and its reciprocal.

    SOLVABLE and UNSOLVABLE are certified; UNKNOWN means the depth ran out
    before every residue branch was decided.
    """
    if not is_prime(l):
        raise ValueError(f"brute_oracle requires a prime, got {l}")
    if depth < 1:
        raise ValueError(f"brute_oracle requires depth >= 1, got {depth}")
    a = _bfs_one((q.d1, 0, q.c, 0, q.d2), l, depth)
    if a is Verdict.SOLVABLE:
        return a
    b = _bfs_one((q.d2, 0, q.c, 0, q.d1), l, depth)
    if b is Verdict.SOLVABLE:
        return b
    if a is Verdict.UNSOLVABLE and b is Verdict.UNSOLVABLE:
        return Verdict.UNSOLVABLE
    return Verdict.UNKNOWN
