"""Local solvability of quartic spaces w^2 = d1 + c*z^2 + d2*z^4.

Decides existence of points over the reals and over every Q_l, which is
what membership in a descent Selmer group reduces to.

solvable_padic is a complete residue-recursion engine that answers
True or False.  A Q_l-point exists iff a Z_l-point (with v(z) >= 0)
exists on the form or on its reciprocal (d2, c, d1), the image of
z -> 1/z, w -> w/z^2; points with v(z) < 0 are never enumerated
directly.  Each Z_l question is decided by recursing on residue discs
around roots of the reduced polynomial, stripping even powers of l
from the content as it goes.  Recursion depth is capped at
D = v_l(4*d1*d2*(c^2-4*d1*d2)) + 3 (two more at l = 2); exceeding the
cap raises rather than guessing.

At odd l nothing walks all of F_l, so the cost is polynomial in log l.
Every reduction g the search meets is a quadratic in u = z^2 (an even
quartic) or in u = z (degree <= 2); see _as_quadratic for why.  So
its roots come from the quadratic formula and modular square roots
(Tonelli-Shanks), and g = c*h^2 mod l iff the discriminant vanishes.
Residues are tested with Euler's criterion, and the walk for a first
square unit value stops at the first non-square one when g = c*h^2
mod l (every unit value then has the character of c), while
otherwise Weil's bound guarantees a square value once l >= 17.  At
l = 2 units are recognized mod 8 by a walk over residues mod 8.

The descent asks solvable_padic once per class of the form over Q_l.
For u, v in Q_l*, z -> u*z, w -> v*w takes (d1, c, d2) to
(v^2*d1, u^2*v^2*c, u^4*v^2*d2) (Cremona, Algorithms for Modular
Elliptic Curves, 3.5).  With u*v = 1 this fixes c and d1*d2, so the
verdict depends only on l, c, d1*d2 and the class of d1 in
Q_l*/Q_l*^2.  When c = 0 any u, v will do, and the class of d1 in
Q_l*/Q_l*^2 with that of d1*d2 in Q_l*/Q_l*^4 fix the form exactly.
So the Q_l key (l, c, d1*d2 or its class mod fourth powers) of
_fixed_key leaves only the class of d1 free, and the class bits
(_square_class_bits) write that class as a vector over F_2 of at most
3 bits.  _verdict_table gives each key one table of 8 verdicts,
indexed by those bits and filled on first use, and keeps the tables of
the 256 most recently used keys.  The spaces of one Selmer group share
c and d1*d2, so each of its places (_GroupVerdicts) reads one table,
and different curves with a key in common read the same one.  One
Selmer group costs at most 8 + 4*(number of odd bad places)
solvable_padic calls, and the c = 0 spaces of different curves share
their verdicts: all E_p : y^2 = x^3 + 18p^2x with p > 3 ask the same
32 Q_2 and 8 Q_3 questions at most, over both sides.

The test suite cross-examines solvable_padic with an independent,
certified breadth-first residue search (tests/oracle.py), whose square
test is _power_class, not the class bits that is_zl_square reads.

Values that are exact squares in Z_l include 0: a point with w = 0 is a
point.  All arithmetic is exact.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, NamedTuple, Optional

from .arith import _vl, is_prime


class LocalEngineError(RuntimeError):
    """Residue recursion exceeded its proven depth cap (engine bug)."""


class QuarticForm(NamedTuple("QuarticForm", [("d1", int), ("c", int), ("d2", int)])):
    """The curve w^2 = d1 + c*z^2 + d2*z^4 with nonzero discriminant."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _make and _replace run __new__

    def __new__(cls, d1: int, c: int, d2: int) -> "QuarticForm":
        if d1 == 0 or d2 == 0:
            raise ValueError("quartic form requires d1 != 0 and d2 != 0")
        if c * c == 4 * d1 * d2:
            raise ValueError("degenerate quartic form: c^2 = 4*d1*d2")
        # the tuple itself, without the generated __new__ of NamedTuple:
        # selmer builds one form per candidate
        return tuple.__new__(cls, (d1, c, d2))

    def reciprocal(self) -> "QuarticForm":
        return QuarticForm(self.d2, self.c, self.d1)


class Place(NamedTuple("Place", [("prime", Optional[int])])):
    """A place of Q: a finite prime, or None for the real place."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _make and _replace run __new__

    def __new__(cls, prime: Optional[int]) -> "Place":
        if prime is not None and not is_prime(prime):
            raise ValueError(f"finite place must be prime, got {prime}")
        return super().__new__(cls, prime)

    @property
    def is_infinite(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "infinity" if self.prime is None else str(self.prime)


INFINITY = Place(None)


# ---------------------------------------------------------------------------
# real place


def solvable_real(q: QuarticForm) -> bool:
    """True iff w^2 = d1 + c*t + d2*t^2 is nonnegative for some t = z^2 >= 0."""
    if q.d2 > 0 or q.d1 > 0:
        return True
    # d1, d2 < 0: the parabola opens downward; its vertex is at t >= 0
    # only when c > 0, and the max value there is (4*d1*d2 - c^2)/(4*d2).
    return q.c > 0 and q.c * q.c >= 4 * q.d1 * q.d2


# ---------------------------------------------------------------------------
# Z_l machinery

Poly = tuple[int, ...]  # coefficients, low degree first


def _poly_eval(f: Poly, x: int) -> int:
    acc = 0
    for coeff in reversed(f):
        acc = acc * x + coeff
    return acc


def _poly_shift(f: Poly, t0: int, l: int) -> Poly:
    """Coefficients of f(t0 + l*s) as a polynomial in s.

    Taylor coefficients at t0 come from repeated synthetic division by
    (x - t0); the i-th then picks up a factor l^i.
    """
    taylor: list[int] = []
    work = list(f)
    while work:
        carry = 0
        quot = [0] * (len(work) - 1)
        for j in range(len(work) - 1, 0, -1):
            carry = carry * t0 + work[j]
            quot[j - 1] = carry
        taylor.append(carry * t0 + work[0])
        work = quot
    return tuple(taylor[i] * l**i for i in range(len(taylor)))


def is_zl_square(val: int, l: int) -> bool:
    """Whether the integer val is a square in Z_l: 0, or no class bit set."""
    return val == 0 or not _square_class_bits(val, l)


def _strip_even_content(f: Poly, l: int) -> tuple[Poly, int]:
    """Divide f by the largest even power of l in its content.

    Returns (reduced poly, residual content exponent in {0, 1}).
    """
    e = min(_vl(c, l) for c in f if c != 0)
    if e >= 2:
        f = tuple(c // l ** (e - (e % 2)) for c in f)
        e %= 2
    return f, e


# ---------------------------------------------------------------------------
# roots over F_l, l an odd prime, of the reductions the Z_l search meets


def _sqrt_mod(a: int, l: int) -> Optional[int]:
    """A square root of a mod the odd prime l, or None if a is not a square
    mod l (Tonelli-Shanks; Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 1.5.1)."""
    a %= l
    if a == 0:
        return 0
    if pow(a, (l - 1) // 2, l) != 1:
        return None
    q, e = l - 1, 0  # l - 1 = 2^e * q with q odd
    while q % 2 == 0:
        q, e = q // 2, e + 1
    n = 2
    while pow(n, (l - 1) // 2, l) == 1:
        n += 1
    y, r = pow(n, q, l), e  # y generates the 2-Sylow subgroup of F_l*
    x = pow(a, (q - 1) // 2, l)
    b, x = a * x * x % l, a * x % l  # x^2 = a*b, b in the 2-Sylow subgroup
    while b != 1:
        m, b2 = 1, b * b % l  # b has order 2^m, with m < r
        while b2 != 1:
            m, b2 = m + 1, b2 * b2 % l
        t = pow(y, 1 << (r - m - 1), l)
        y, r = t * t % l, m
        x, b = x * t % l, b * y % l
    return x


def _as_quadratic(g: list[int]) -> tuple[int, int, int, bool]:
    """(A, B, C, even) with g = A*u^2 + B*u + C, where u = z^2 if even and
    u = z otherwise, for g of degree 1 to 4 with no trailing zeros.

    Every reduction g that _zl_search_odd meets has one of these shapes:
    it is even of degree <= 4 or of degree <= 2.  The forms are even, and
    a shift at the root 0 keeps them even.  After a shift at a root t0 of
    multiplicity m, the next reduction has degree <= m: in f(t0 + l*s),
    coefficient i has valuation >= e + i + v(b_i), where l^e is the
    content of f and b_i the i-th Taylor coefficient of f/l^e at t0, and
    for every i > m that is more than e + m, the valuation of coefficient
    m.  A nonzero root t0 of an even g = h(z^2) has the multiplicity of
    t0^2 in h, which is <= 2, because z + t0 is a unit for odd l; a root
    of a g of degree <= 2 has multiplicity <= 2.  Any other shape is an
    engine bug and raises AssertionError.
    """
    if len(g) <= 3:
        C, B, A = g + [0] * (3 - len(g))
        return A, B, C, False
    if len(g) == 5 and g[1] == g[3] == 0:
        return g[4], g[2], g[0], True
    raise AssertionError(f"reduction {g} is neither even of degree <= 4 nor of degree <= 2")


def _fl_roots(g: list[int], l: int) -> list[int]:
    """The distinct roots in F_l of g, ascending: the roots u of the
    quadratic A*u^2 + B*u + C, and for u = z^2 their square roots."""
    A, B, C, even = _as_quadratic(g)
    if A == 0:
        us = [-C * pow(B, -1, l) % l]
    else:
        s = _sqrt_mod(B * B - 4 * A * C, l)
        inv = pow(2 * A, -1, l)
        us = [] if s is None else [(-B + s) * inv % l, (-B - s) * inv % l]
    if not even:
        return sorted(set(us))
    square_roots = (_sqrt_mod(u, l) for u in us)
    return sorted({z for r in square_roots if r is not None for z in (r, -r % l)})


def _fl_is_scaled_square(g: list[int], l: int) -> bool:
    """True iff g = c*h^2 over F_l for a constant c (g of degree >= 1)."""
    A, B, C, _ = _as_quadratic(g)
    return (B * B - 4 * A * C) % l == 0


# ---------------------------------------------------------------------------
# Z_l searches


def _zl_search_odd(f: Poly, l: int, budget: int) -> Optional[int]:
    """Smallest-digit z in Z_l (returned as a nested-disc integer) with f(z)
    an exact Z_l square, or None if no such z exists.  Complete for odd l.

    A residue t0 where the primitive part g of f is a unit mod l decides on
    the spot: f(t0) is a square iff the content is even and g(t0) is a
    square mod l.  So the first such t0 in 0, 1, ... is the answer; only
    when there is none are the roots of g searched, in ascending order.
    """
    f, e = _strip_even_content(f, l)
    unit_part = f if e == 0 else tuple(c // l for c in f)
    gmod = [c % l for c in unit_part]
    while gmod and gmod[-1] == 0:
        gmod.pop()
    if not gmod:
        raise AssertionError("primitive polynomial reduced to zero mod l")
    if len(gmod) == 1:
        # constant reduction: one test covers every residue class
        return 0 if (e == 0 and is_zl_square(gmod[0], l)) else None
    if e == 0:
        # If g = c*h^2 mod l, every unit value has the character of c, so
        # the first one settles the question.  Otherwise Weil's bound,
        # |sum_t (g(t)/l)| <= 3*sqrt(l) with at most 4 roots, leaves a
        # square unit value once l >= 17, and the walk stops early.
        scaled_square = _fl_is_scaled_square(gmod, l)
        for t0 in range(l):
            r = _poly_eval(gmod, t0) % l
            if r == 0:
                continue
            if is_zl_square(r, l):
                return t0
            if scaled_square:
                break
    for t0 in _fl_roots(gmod, l):
        val = _poly_eval(f, t0)
        if is_zl_square(val, l):
            return t0
        if budget == 0:
            raise LocalEngineError("depth cap exceeded at odd prime (engine bug)")
        sub = _zl_search_odd(_poly_shift(f, t0, l), l, budget - 1)
        if sub is not None:
            return t0 + l * sub
    return None


def _zl_search_two(f: Poly, budget: int) -> Optional[int]:
    """Same as _zl_search_odd for l = 2: units are recognized mod 8."""
    f, e = _strip_even_content(f, 2)
    unit_part = f if e == 0 else tuple(c // 2 for c in f)
    for t0 in range(8):
        if is_zl_square(_poly_eval(f, t0), 2):
            return t0
    for t0 in (0, 1):
        if _poly_eval(unit_part, t0) % 2 == 0:
            if budget == 0:
                raise LocalEngineError("depth cap exceeded at l = 2 (engine bug)")
            sub = _zl_search_two(_poly_shift(f, t0, 2), budget - 1)
            if sub is not None:
                return t0 + 2 * sub
    return None


def _depth_cap(q: QuarticForm, l: int) -> int:
    disc_data = 4 * q.d1 * q.d2 * (q.c * q.c - 4 * q.d1 * q.d2)
    cap = _vl(abs(disc_data), l) + 3
    if l == 2:
        cap += 2
    return cap


def _form_poly(q: QuarticForm) -> Poly:
    return (q.d1, 0, q.c, 0, q.d2)


def solvable_padic(q: QuarticForm, l: int) -> bool:
    """Whether w^2 = d1 + c*z^2 + d2*z^4 has a point over Q_l: whether the
    Z_l search of the form or of its reciprocal finds a z0.

    Raises ValueError unless l is prime.
    """
    if not is_prime(l):
        raise ValueError(f"solvable_padic requires a prime, got {l}")
    cap = _depth_cap(q, l)
    for form in (q, q.reciprocal()):
        poly = _form_poly(form)
        z0 = _zl_search_two(poly, cap) if l == 2 else _zl_search_odd(poly, l, cap)
        if z0 is not None:
            return True
    return False


def _power_class(n: int, l: int, k: int) -> tuple[int, int]:
    """The class of the nonzero integer n in Q_l*/Q_l*^k, k in (2, 4), as
    v_l(n) mod k and the unit part up to k-th powers: at l = 2 its residue
    mod 4k, since (Z_2*)^2 = 1 + 8Z_2 and (Z_2*)^4 = 1 + 16Z_2; at odd l,
    by Hensel's lemma, its power (l-1)/gcd(k, l-1) mod l."""
    v = _vl(n, l)
    unit = n // l**v
    if l == 2:
        return v % k, unit % (4 * k)
    return v % k, pow(unit % l, (l - 1) // gcd(k, l - 1), l)


def _square_class_bits(n: int, l: Optional[int]) -> int:
    """The class of the nonzero integer n in Q_v*/Q_v*^2 as a vector over
    F_2, so that the bits of m*n are those of m XOR those of n: at the
    real place (l None) whether n < 0; at a prime l, bit 0 is v_l(n) mod 2
    and the rest tell the unit part u: at odd l bit 1 is set when u is a
    non-residue (Euler's criterion), at l = 2 bit 1 when u = 3 (mod 4) and
    bit 2 when u = +-3 (mod 8)."""
    if l is None:
        return int(n < 0)
    v = _vl(n, l)
    unit = n // l**v
    if l == 2:
        return v & 1 | (unit % 4 == 3) << 1 | (unit % 8 in (3, 5)) << 2
    return v & 1 | (pow(unit % l, (l - 1) // 2, l) != 1) << 1


def _fixed_key(l: int, c: int, d1d2: int) -> tuple:
    """The Q_l key that the forms (d1, c, d1d2/d1) share: (l, c, d1*d2)
    when c != 0, (l, 0, class of d1*d2 in Q_l*/Q_l*^4) when c = 0.  With
    the class of d1 in Q_l*/Q_l*^2 it fixes the form up to isomorphism
    over Q_l (see the module docstring)."""
    return l, c, _power_class(d1d2, l, 4) if c == 0 else d1d2


# a curve's two Selmer groups use 2 * (prime bad places) tables, and LRU
# keeps the Q_2 and Q_3 tables that every E_p shares
@lru_cache(maxsize=256)
def _verdict_table(key: tuple) -> list[Optional[bool]]:
    """The Q_l verdicts of the forms with this _fixed_key, indexed by the
    class bits of d1, None until decided; shared by every curve."""
    return [None] * 8


class _GroupVerdicts:
    """The places of the forms (d1, c, d1d2/d1) that share c and d1*d2, as
    the spaces of one Selmer group do, in the canonical order (infinity
    first, then ascending primes).  Each place has a table of 8 verdicts
    indexed by the class bits of d1 there: a table of the group's own at
    infinity, and at a prime l the _verdict_table of the forms' Q_l key,
    which every curve with that key shares."""

    __slots__ = ("places", "tables")

    def __init__(self, places: Iterable[Place], c: int, d1d2: int) -> None:
        self.places = sorted(places, key=lambda pl: -1 if pl.is_infinite else pl.prime)
        if not self.places:
            raise ValueError("solvable_everywhere_locally requires a nonempty place set")
        # (shift of the place's bits in a class vector, verdicts, prime or None)
        self.tables = [
            (3 * i, [None] * 8 if pl.is_infinite else _verdict_table(_fixed_key(pl.prime, c, d1d2)), pl.prime)
            for i, pl in enumerate(self.places)
        ]

    def class_vector(self, n: int) -> int:
        """The class bits of n at every place, 3 bits a place: the vector
        of m*n is the XOR of those of m and of n."""
        return sum(_square_class_bits(n, pl.prime) << 3 * i for i, pl in enumerate(self.places))


def solvable_everywhere_locally(
    q: QuarticForm, places: Iterable[Place] | _GroupVerdicts, vector: Optional[int] = None
) -> bool:
    """Conjunction of local solvability over the given places.

    Short-circuits on the first failing place; places are visited in a
    canonical order (infinity first, then ascending primes) so the result
    is reproducible.  places may be the _GroupVerdicts of q's c and d1*d2,
    and vector the class vector of q.d1 there.  Each place reads the
    verdict of q's class from its table, and decides it on first use with
    solvable_real or solvable_padic.
    """
    if not isinstance(places, _GroupVerdicts):
        places = _GroupVerdicts(places, q.c, q.d1 * q.d2)
    if vector is None:
        vector = places.class_vector(q.d1)
    for shift, table, l in places.tables:
        bits = vector >> shift & 7
        verdict = table[bits]
        if verdict is None:
            verdict = table[bits] = solvable_real(q) if l is None else solvable_padic(q, l)
        if not verdict:
            return False
    return True
