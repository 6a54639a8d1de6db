"""Local solvability of quartic spaces w^2 = d1 + c*z^2 + d2*z^4.

Decides existence of points over the reals and over every Q_l, which is
what membership in a descent Selmer group reduces to.  Two independent
routes are provided:

  * solvable_padic: a complete residue-recursion engine.  A Q_l-point
    exists iff a Z_l-point (with v(z) >= 0) exists on the form or on its
    reciprocal (d2, c, d1), the image of z -> 1/z, w -> w/z^2; points with
    v(z) < 0 are never enumerated directly.  Each Z_l question is decided
    by recursing on residue discs around roots of the reduced polynomial,
    stripping even powers of l from the content as it goes.  Recursion
    depth is capped at D = v_l(4*d1*d2*(c^2-4*d1*d2)) + 3 (two more at
    l = 2); exceeding the cap raises rather than guessing.

    At odd l nothing walks all of F_l, so the cost is polynomial in log l:
    the roots of the reduction g come from gcd(g, t^l - t), split by
    Cantor-Zassenhaus; residues are tested with Euler's criterion; and the
    walk for a first square unit value stops at the first non-square one
    when g = c*h^2 mod l (every unit value then has the character of c),
    while otherwise Weil's bound guarantees a square value once l >= 17.
    At l = 2 units are recognized mod 8 by a walk over residues mod 8.

    solvable_at, the route the descent takes, asks solvable_padic once per
    class of the form over Q_l and caches the verdict (4096 entries).  For
    u, v in Q_l*, z -> u*z, w -> v*w takes (d1, c, d2) to
    (v^2*d1, u^2*v^2*c, u^4*v^2*d2) (Cremona, Algorithms for Modular
    Elliptic Curves, 3.5).  With u*v = 1 this fixes c and d1*d2, so the
    verdict depends only on l, c, d1*d2 and the class of d1 in
    Q_l*/Q_l*^2.  When c = 0 any u, v will do, and the class of d1 in
    Q_l*/Q_l*^2 with that of d1*d2 in Q_l*/Q_l*^4 fix the form exactly.
    So one Selmer group costs at most 8 + 4*(number of odd bad places)
    solvable_padic calls, and the c = 0 spaces of different curves share
    their verdicts: all E_p : y^2 = x^3 + 18p^2x with p > 3 ask the same
    32 Q_2 and 8 Q_3 questions at most, over both sides.

  * brute_oracle: a breadth-first residue search that only ever reports a
    definite answer with a certificate (an exact Z_l-square value, or a
    proof that every residue class mod l^k is pinned to a non-square).
    Used by the test suite to cross-examine the engine; tri-state because
    it must never claim completeness beyond its depth.

Values that are exact squares in Z_l include 0: a point with w = 0 is a
point.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable, Optional, Union

from .arith import _vl, is_prime


class LocalEngineError(RuntimeError):
    """Residue recursion exceeded its proven depth cap (engine bug)."""


@dataclass(frozen=True)
class QuarticForm:
    """The curve w^2 = d1 + c*z^2 + d2*z^4 with nonzero discriminant."""

    d1: int
    c: int
    d2: int

    def __post_init__(self) -> None:
        if self.d1 == 0 or self.d2 == 0:
            raise ValueError("quartic form requires d1 != 0 and d2 != 0")
        if self.c * self.c == 4 * self.d1 * self.d2:
            raise ValueError("degenerate quartic form: c^2 = 4*d1*d2")

    def reciprocal(self) -> "QuarticForm":
        return QuarticForm(self.d2, self.c, self.d1)

    def value(self, z: Fraction) -> Fraction:
        z2 = z * z
        return self.d1 + self.c * z2 + self.d2 * z2 * z2


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime, or None for the real place."""

    prime: Optional[int]

    def __post_init__(self) -> None:
        if self.prime is not None and not is_prime(self.prime):
            raise ValueError(f"finite place must be prime, got {self.prime}")

    @property
    def is_infinite(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "infinity" if self.prime is None else str(self.prime)


INFINITY = Place(None)


@dataclass(frozen=True)
class PointWitness:
    """Exact rational point; on the reciprocal form iff on_reciprocal."""

    z: Fraction
    w: Fraction
    on_reciprocal: bool = False


@dataclass(frozen=True)
class LiftTrace:
    """Residue z0 mod l^modulus_exp whose exact value F(z0) is a Z_l square.

    valuation is v_l(F(z0)) (even), unit the cofactor F(z0)/l^valuation;
    for odd l the unit is a quadratic residue mod l, for l = 2 it is
    1 mod 8, so w lifts by Hensel's lemma with z frozen at z0.
    """

    z0: int
    modulus_exp: int
    valuation: int
    unit: int
    on_reciprocal: bool = False


@dataclass(frozen=True)
class SolvabilityCertificate:
    form: QuarticForm
    place: Place
    solvable: bool
    witness: Union[PointWitness, LiftTrace, None]
    route: str  # "direct", "reciprocal", or "none"


class Verdict(Enum):
    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"
    UNKNOWN = "unknown"


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
    """Exact test: is the integer val a square in Z_l (0 counts)."""
    if val == 0:
        return True
    v = _vl(val, l)
    if v % 2:
        return False
    u = val // l**v
    if l == 2:
        return u % 8 == 1
    return pow(u % l, (l - 1) // 2, l) == 1  # Euler's criterion


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
# polynomials over F_l, l an odd prime: residue lists, low degree first,
# with no trailing zeros ([] is the zero polynomial)


def _fl_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _fl_sub(f: list[int], g: list[int], l: int) -> list[int]:
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return _fl_trim([(a - b) % l for a, b in zip(f, g)])


def _fl_mul(f: list[int], g: list[int], l: int) -> list[int]:
    if not f or not g:
        return []
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] += a * b
    return [c % l for c in prod]


def _fl_divmod(f: list[int], g: list[int], l: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by the nonzero g."""
    rem = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, l)
    quot = [0] * max(len(f) - dg, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dg] * inv % l
        quot[i] = c
        for j in range(dg + 1):
            rem[i + j] = (rem[i + j] - c * g[j]) % l
    return quot, _fl_trim(rem[:dg])


def _fl_mulmod(f: list[int], g: list[int], m: list[int], l: int) -> list[int]:
    """f*g mod m, for m monic of degree >= 1."""
    prod = _fl_mul(f, g, l)
    dm = len(m) - 1
    for i in range(len(prod) - 1, dm - 1, -1):
        c = prod[i] % l
        if c:
            for j in range(dm):
                prod[i - dm + j] -= c * m[j]
    return _fl_trim([c % l for c in prod[:dm]])


def _fl_powmod(f: list[int], n: int, m: list[int], l: int) -> list[int]:
    """f^n mod m by square-and-multiply, for m monic of degree >= 1."""
    result = [1]
    base = _fl_mulmod(f, [1], m, l)
    while n:
        if n & 1:
            result = _fl_mulmod(result, base, m, l)
        base = _fl_mulmod(base, base, m, l)
        n >>= 1
    return result


def _fl_monic(f: list[int], l: int) -> list[int]:
    inv = pow(f[-1], -1, l)
    return [c * inv % l for c in f]


def _fl_gcd(f: list[int], g: list[int], l: int) -> list[int]:
    """Monic gcd of f and g, not both zero."""
    while g:
        f, g = g, _fl_divmod(f, g, l)[1]
    return _fl_monic(f, l)


def _fl_roots(g: list[int], l: int) -> list[int]:
    """The distinct roots in F_l of g, of degree >= 1, ascending.

    gcd(g, t^l - t) is the product of t - r over the roots r; Cantor-
    Zassenhaus splits it.
    """
    g, t = _fl_monic(g, l), [0, 1]
    return sorted(_fl_split(_fl_gcd(g, _fl_sub(_fl_powmod(t, l, g, l), t, l), l), l))


def _fl_split(h: list[int], l: int) -> list[int]:
    """Roots of the monic h, a product of distinct linear factors.

    gcd(h, (t + delta)^((l-1)/2) - 1) keeps the roots r with r + delta a
    nonzero square.  For two distinct roots some delta < l makes one of
    r1 + delta, r2 + delta a square and the other not (otherwise the
    squares would be closed under adding r2 - r1), so the loop splits h.
    """
    if len(h) == 1:
        return []
    if len(h) == 2:
        return [-h[0] % l]
    for delta in range(l):
        k = _fl_gcd(h, _fl_sub(_fl_powmod([delta, 1], (l - 1) // 2, h, l), [1], l), l)
        if 1 < len(k) < len(h):
            return _fl_split(k, l) + _fl_split(_fl_divmod(h, k, l)[0], l)
    raise AssertionError("no shift splits a product of distinct linear factors")


def _fl_is_scaled_square(g: list[int], l: int) -> bool:
    """True iff g = c*h^2 over F_l for a constant c (g nonzero)."""
    n = len(g) - 1
    if n % 2:
        return False
    m = n // 2
    monic = _fl_monic(g, l)
    # the coefficient of t^(m+j) in h^2 is 2*h_j plus terms in h_(j+1..m),
    # so the top half of the monic g fixes the only monic candidate h
    h = [0] * m + [1]
    half = (l + 1) // 2
    for j in range(m - 1, -1, -1):
        rest = sum(h[i] * h[m + j - i] for i in range(j + 1, m))
        h[j] = (monic[m + j] - rest) * half % l
    return _fl_mul(h, h, l) == monic


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
    gmod = _fl_trim([c % l for c in unit_part])
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


def _certificate(q: QuarticForm, l: int, z0: int, on_reciprocal: bool, depth_used: int):
    """Build the strongest witness available for the found residue."""
    poly_form = q.reciprocal() if on_reciprocal else q
    n = _poly_eval(_form_poly(poly_form), z0)
    root = isqrt(n) if n >= 0 else -1
    if n >= 0 and root * root == n:
        z = Fraction(z0)
        w = Fraction(root)
        if on_reciprocal and z0 != 0:
            # convert back to the direct form: z -> 1/z, w -> w/z^2
            return PointWitness(z=1 / z, w=w / (z * z), on_reciprocal=False)
        return PointWitness(z=z, w=w, on_reciprocal=on_reciprocal)
    v = _vl(n, l)
    unit = n // l**v
    return LiftTrace(
        z0=z0,
        modulus_exp=depth_used,
        valuation=v,
        unit=unit,
        on_reciprocal=on_reciprocal,
    )


def solvable_padic(q: QuarticForm, l: int) -> SolvabilityCertificate:
    """Decide whether w^2 = d1 + c*z^2 + d2*z^4 has a point over Q_l.

    Raises ValueError unless l is prime; building the Place checks it.
    """
    place = Place(l)
    cap = _depth_cap(q, l)
    for route, form in (("direct", q), ("reciprocal", q.reciprocal())):
        poly = _form_poly(form)
        if l == 2:
            z0 = _zl_search_two(poly, cap)
        else:
            z0 = _zl_search_odd(poly, l, cap)
        if z0 is not None:
            witness = _certificate(q, l, z0, route == "reciprocal", cap)
            return SolvabilityCertificate(q, place, True, witness, route)
    return SolvabilityCertificate(q, place, False, None, "none")


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


@dataclass(frozen=True, slots=True)
class _PadicQuestion:
    """One Q_l question, keyed by l, c, the class of d1 in Q_l*/Q_l*^2 and
    d1*d2: exactly when c != 0, by its class in Q_l*/Q_l*^4 when c = 0.
    These fix the form up to isomorphism over Q_l (see the module
    docstring).  The form is the representative that gets decided and
    takes no part in equality or hashing."""

    l: int
    c: int
    d1_class: tuple[int, int]
    d1d2_class: Union[int, tuple[int, int]]
    form: QuarticForm = field(compare=False)


def _question(q: QuarticForm, l: int) -> _PadicQuestion:
    d1d2 = q.d1 * q.d2
    d1d2_class = _power_class(d1d2, l, 4) if q.c == 0 else d1d2
    return _PadicQuestion(l, q.c, _power_class(q.d1, l, 2), d1d2_class, q)


@lru_cache(maxsize=4096)
def _padic_verdict(question: _PadicQuestion) -> bool:
    return solvable_padic(question.form, question.l).solvable


def solvable_at(q: QuarticForm, place: Place) -> bool:
    """Whether q has a point over the completion at place; a Q_l verdict
    is decided once per _PadicQuestion and then read from a bounded cache."""
    if place.is_infinite:
        return solvable_real(q)
    return _padic_verdict(_question(q, place.prime))


def solvable_everywhere_locally(q: QuarticForm, places: Iterable[Place]) -> bool:
    """Conjunction of local solvability over the given places.

    Short-circuits on the first failing place; places are visited in a
    canonical order (infinity first, then ascending primes) so the result
    and any certificates are reproducible.
    """
    ordered = sorted(places, key=lambda pl: (-1 if pl.prime is None else pl.prime))
    if not ordered:
        raise ValueError("solvable_everywhere_locally requires a nonempty place set")
    return all(solvable_at(q, pl) for pl in ordered)


# ---------------------------------------------------------------------------
# brute oracle


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
                if is_zl_square(val, l):
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
    a = _bfs_one(_form_poly(q), l, depth)
    if a is Verdict.SOLVABLE:
        return a
    b = _bfs_one(_form_poly(q.reciprocal()), l, depth)
    if b is Verdict.SOLVABLE:
        return b
    if a is Verdict.UNSOLVABLE and b is Verdict.UNSOLVABLE:
        return Verdict.UNSOLVABLE
    return Verdict.UNKNOWN
