"""2-isogeny descent for curves y^2 = x^3 + a*x^2 + b*x.

Curve and dual-curve models, Selmer groups from local solvability of the
quartic spaces w^2 = b1 + a*z^2 + (b/b1)*z^4, the descent map alpha with a
bounded, sieved rational point search on those spaces, and the rank
bounds

    upper = dim S[psibar] + dim S[psi] - 2
    lower = dim Im(alpha) + dim Im(alphabar) - 2   (floored at 0)

Each Selmer group belongs to one curve and is computed from that curve's
own spaces, whose middle coefficient is the curve's own a: S[psibar] of E
is selmer(E) and S[psi] of E is selmer(dual_curve(E)).  A curve and its
dual have the same bad places.  Rational points and their arithmetic are
in points.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterator, NamedTuple

from .arith import _factorization, class_product, squarefree_class
from .local import (
    INFINITY,
    Place,
    QuarticForm,
    _class_vector,
    _GroupVerdicts,
    solvable_everywhere_locally,
)


class InternalConsistencyError(RuntimeError):
    """The engine broke an invariant of its own (a bug, not bad input): a
    Selmer set failed subgroup closure, a set of square classes taken for a
    group has a size that is not a power of 2, or an alpha image escaped
    its Selmer group."""


class CurveModel(NamedTuple("CurveModel", [("a", int), ("b", int)])):
    """y^2 = x^3 + a*x^2 + b*x, nonsingular."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _make and _replace run __new__

    def __new__(cls, a: int, b: int) -> "CurveModel":
        if b == 0:
            raise ValueError("curve requires b != 0")
        if a * a == 4 * b:
            raise ValueError("singular curve: a^2 = 4b")
        return super().__new__(cls, a, b)


def _group_dim(classes: frozenset[int]) -> int:
    """Dimension over F_2 of a group of square classes, checked to be one."""
    n = len(classes)
    if n & (n - 1):
        raise InternalConsistencyError(f"{n} square classes are not a group: not a power of 2")
    return n.bit_length() - 1


class SelmerGroup(NamedTuple):
    classes: frozenset[int]

    @property
    def dim(self) -> int:
        return _group_dim(self.classes)

    def sorted_classes(self) -> list[int]:
        return sorted(self.classes)


class RankBounds(NamedTuple):
    dim_selmer_psibar: int
    dim_selmer_psi: int
    dim_im_alpha: int
    dim_im_alphabar: int
    lower: int
    upper: int


# ---------------------------------------------------------------------------
# curve-level operations


def dual_curve(E: CurveModel) -> CurveModel:
    """(a, b) -> (-2a, a^2 - 4b); nonsingular whenever E is."""
    return CurveModel(-2 * E.a, E.a * E.a - 4 * E.b)


def _bad_primes(E: CurveModel) -> tuple[int, ...]:
    """The primes dividing 2*b*bbar, ascending, the same for E and its dual.

    2 is always among them, so a factor 16 of bbar is dropped before it is
    factored: the dual of the dual has bbar = 16b, and the dual's primes
    then come from the factorizations E already made.
    """
    bbar = abs(E.a * E.a - 4 * E.b)
    if bbar % 16 == 0:
        bbar //= 16
    return tuple(sorted({2} | {p for p, _ in _factorization(abs(E.b)) + _factorization(bbar)}))


def bad_places(E: CurveModel) -> frozenset[Place]:
    """Infinity together with every prime dividing 2*b*bbar, the same set
    for E and its dual."""
    return frozenset({INFINITY} | {Place(p) for p in _bad_primes(E)})


# a curve and its dual have the same primes, so the second Selmer group of a
# record reads the setup of the first
@lru_cache(maxsize=4)
def _place_setup(primes: tuple[int, ...]) -> tuple[tuple[Place, ...], tuple[tuple[int, int], ...]]:
    """(places, generators) for the ascending primes of a curve pair: its
    bad places in the canonical order (infinity, then the primes), and the
    pairs (g, class vector of g at those places) for g = -1 and each prime."""
    places = (INFINITY, *map(Place, primes))
    return places, tuple((g, _class_vector(g, places)) for g in (-1, *primes))


def _divisors_of(fact: dict[int, int]) -> list[int]:
    out = [1]
    for p, e in fact.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def divisor_classes(b: int) -> list[int]:
    """Signed squarefree divisors supported on the primes of b, ascending.

    These are the candidate square classes b1 with b1 and b/b1 both
    supported on primes of b; there are 2^(omega+1) of them.
    """
    if b == 0:
        raise ValueError("divisor_classes requires b != 0")
    divisors = _divisors_of({p: 1 for p, _ in _factorization(abs(b))})
    return sorted(d * s for d in divisors for s in (1, -1))


# each record asks for its curves' groups only while it is built
@lru_cache(maxsize=64)
def selmer(E: CurveModel) -> SelmerGroup:
    """Square classes b1 | b whose space of E is solvable at every bad place.

    This is S[psibar] of E; S[psi] of E is selmer(dual_curve(E)).  The
    candidates b1 are the products of the subsets of -1 and the primes of
    b, and their classes in Q_v*/Q_v*^2 at the bad places are vectors
    over F_2; the places and the generators' vectors come from the setup
    that E shares with its dual (_place_setup).  The subsets are walked
    in Gray-code order, so each b1 and its class vector cost one
    multiplication or exact division by one generator and one XOR.  The verdict of a place depends only on the
    class of b1 there (see local), so each place decides each of its at
    most 8 classes once, for the first candidate that has it.  The result
    is checked to contain 1 and the class of b, and to be a subgroup: the
    accepted subsets number 2^(rank of their span).
    """
    a, b = E
    places, generators = _place_setup(_bad_primes(E))
    verdicts = _GroupVerdicts(places, a, b)
    # -1 and the primes of b, in that order
    gens = [(g, w) for g, w in generators if b % g == 0]
    # step i of the Gray code flips bit t of the subset: b1 gains or loses
    # generator t, and its class vector XORs in that generator's
    b1, v, accepted = 1, 0, {}
    for i in range(1 << len(gens)):
        subset = i ^ (i >> 1)
        if i:
            t = (i & -i).bit_length() - 1
            g, w = gens[t]
            b1 = b1 * g if subset >> t & 1 else b1 // g
            v ^= w
        if solvable_everywhere_locally(QuarticForm(b1, a, b // b1), verdicts, v):
            accepted[subset] = b1
    classes = frozenset(accepted.values())
    torsion_class = squarefree_class(b)
    if 1 not in classes or torsion_class not in classes:
        raise InternalConsistencyError(
            f"Selmer set {sorted(classes)} is missing a guaranteed class"
        )
    # an F_2 basis of the accepted subsets: each new vector loses the
    # leading bit of every earlier one
    basis: list[int] = []
    for v in accepted:
        for u in basis:
            v = min(v, v ^ u)
        if v:
            basis.append(v)
    if len(accepted) != 1 << len(basis):
        raise InternalConsistencyError(
            f"Selmer set {sorted(classes)} is not closed: it spans 2^{len(basis)} classes"
        )
    return SelmerGroup(classes)


# ---------------------------------------------------------------------------
# point search on the spaces


# Moduli of the square sieve, each a prime power: a power of 2 (every value
# is a square mod 2), 9, and small odd primes.  Few and small, so that the
# tables of a class cost far less than the pairs they rule out.
_SIEVE_MODULI = (16, 9, 5, 7, 11, 13, 17, 19, 23, 29)
# numerators are sieved this many at a time, whatever the height bound
_BLOCK_BITS = 4096


def _every(q: int, nbits: int) -> int:
    """A 1 every q bits, past bit nbits + q."""
    return ((1 << (nbits // q + 2) * q) - 1) // ((1 << q) - 1)


@lru_cache(maxsize=None)
def _square_scalings(q: int) -> tuple[int, ...]:
    """Entry x: for a unit x, the unit square s with s*x least; else 0."""
    squares = {u * u % q for u in range(q) if gcd(u, q) == 1}
    return tuple(min(squares, key=lambda s: s * x % q) if gcd(x, q) == 1 else 0 for x in range(q))


def _orbit_key(q: int, b1: int, a: int, d2: int) -> tuple[int, int, int]:
    """One member of the orbit of (b1, a, d2) mod q under the unit squares,
    the same for all: scaling the quartic by a unit square keeps its square
    values square mod q, so the orbit has one set of sieve rows."""
    scale = _square_scalings(q)
    s = scale[d2 % q] or scale[b1 % q] or scale[a % q] or 1
    return s * b1 % q, s * a % q, s * d2 % q


# keyed by residues only, one triple per orbit (_orbit_key): a = 0 on every
# E_p and its dual, so most classes of a scan share their rows with an
# earlier curve; rows of the full block width fill about 5 KiB an entry, so
# the cache holds at most about 5 MiB
@lru_cache(maxsize=1024)
def _sieve_rows(q: int, b1: int, a: int, d2: int, m0: int, nbits: int) -> tuple[tuple[int, ...], int, int]:
    """(rows, live, diagonal).  Entry r of rows is the nbits-bit row whose
    bit j is set when m = m0 + j makes b1*r^4 + a*m^2*r^2 + d2*m^4 a
    square mod q and shares no prime of q with r (all arguments but nbits
    taken mod q): the row of every denominator e = r (mod q).  Bit r of
    live is set when row r is not empty.  Bit k of diagonal is set when
    the row of e = m0 + k is not empty: the denominators worth walking in
    a block whose e run over the same nbits values as its m.

    q is a prime power, so a pair (m, e) left out for a common prime of
    q has gcd(m, e) > 1 and is no primitive point.  Entries r and q - r
    are the same object: the value depends on r^2, and gcd(r, q) =
    gcd(q - r, q).
    """
    sq = [s * s % q for s in range(q)]
    squares = set(sq)
    repeat = _every(q, nbits)
    full = (1 << nbits) - 1
    coprime = sum(1 << s for s in range(q) if gcd(s, q) == 1)
    half = []
    for r, r2 in enumerate(sq[: q // 2 + 1]):
        c0, c1 = b1 * r2 * r2, a * r2
        mask = sum(1 << s for s, s2 in enumerate(sq) if (c0 + (c1 + d2 * s2) * s2) % q in squares)
        if gcd(r, q) > 1:
            mask &= coprime
        # repeated past nbits + q bits, then shifted so bit j is residue m0 + j
        half.append(mask * repeat >> m0 & full)
    rows = tuple(half + half[1 : (q + 1) // 2][::-1])
    live = sum(1 << r for r, row in enumerate(rows) if row)
    return rows, live, live * repeat >> m0 & full


def _search_class(
    curve: CurveModel, b1: int, height_bound: int
) -> Iterator[tuple[int, int, int]]:
    """Primitive hits (m, e, w_num) with w^2 = b1 + a*z^2 + (b/b1)*z^4 at
    z = m/e, gcd(m, e) = 1, 1 <= m, e and max(m, e) <= height_bound.

    A square sieve in the style of ratpoints.  For each denominator e the
    candidate numerators form a bitset row of _BLOCK_BITS bits at a time:
    the AND, over the moduli q of _SIEVE_MODULI, of the rows (_sieve_rows,
    shared by every class with residues in one orbit, _orbit_key) of the m
    for which b1*e^4 + a*m^2*e^2 + d2*m^4 is a square mod q and which share
    no prime of q with e.  A square integer is a square mod every q and a
    primitive pair has no common prime, so no hit is sieved out.  Pairs
    with a common prime of the moduli never reach the exact gcd and isqrt
    test that each surviving m gets; the gcd still rules out common
    primes above 29.  A block walks only the e for which no modulus has an
    empty row.  Blocks are visited in rings of increasing
    max(block of m, block of e), so memory does not grow with the height
    bound.

    The hits are yielded by ring, block, e, then m: the first lies in the
    innermost ring of blocks holding one, but need not be the smallest
    point.  A caller that takes only the first hit stops the search there.
    """
    a, d2 = curve.a, curve.b // b1
    width = min(_BLOCK_BITS, height_bound)
    residues = [(q, *_orbit_key(q, b1, a, d2)) for q in _SIEVE_MODULI]
    for ring in range(-(-height_bound // width)):
        # the blocks (i, j) of m and e with max(i, j) = ring
        outer = itertools.chain(((ring, j) for j in range(ring + 1)), ((i, ring) for i in range(ring)))
        for i, j in outer:
            m0 = i * width + 1
            nbits = min(width, height_bound + 1 - m0)
            full = (1 << nbits) - 1
            e0 = j * width + 1
            ebits = min(width, height_bound + 1 - e0)
            # bit k of alive is e = e0 + k
            alive = (1 << ebits) - 1
            sieve = []
            for q, b1q, aq, d2q in residues:
                rows, live, diagonal = _sieve_rows(q, b1q, aq, d2q, m0 % q, nbits)
                alive &= diagonal if i == j else live * _every(q, ebits) >> e0 % q
                sieve.append((q, rows))
            while alive:
                low = alive & -alive
                alive ^= low
                e = e0 + low.bit_length() - 1
                row = full
                for q, masks in sieve:
                    row &= masks[e % q]
                    if not row:
                        break
                e2 = e * e
                while row:
                    low = row & -row
                    row ^= low
                    m = m0 + low.bit_length() - 1
                    if gcd(m, e) != 1:
                        continue
                    m2 = m * m
                    n = b1 * e2 * e2 + a * m2 * e2 + d2 * m2 * m2
                    if n < 0:
                        continue
                    r = isqrt(n)
                    if r * r != n:
                        continue
                    yield m, e, r


def alpha_image(E: CurveModel, height_bound: int) -> frozenset[int]:
    """Subgroup of square classes proven to lie in the image of E(Q) under
    the descent map (x, y) -> x mod squares.

    Generated by 1 and the class of b (images of the identity and (0, 0))
    together with every Selmer class whose space yields a rational point
    within the height bound.  Monotone nondecreasing in the bound.

    Each class takes the first hit _search_class yields and stops the
    search there.  That hit is the first in ring order, not necessarily
    the smallest point; only whether the bound holds one matters.
    """
    if height_bound < 1:
        raise ValueError("height_bound must be >= 1")
    sel = selmer(E)
    generated = frozenset({1, squarefree_class(E.b)})
    for b1 in sorted(sel.classes):
        if b1 in generated:
            continue
        if next(_search_class(E, b1, height_bound), None) is not None:
            # square classes form an F_2-vector space: G and b1*G span <G, b1>
            generated |= {class_product(b1, g) for g in generated}
    if not generated <= sel.classes:
        raise InternalConsistencyError("alpha image escaped its Selmer group")
    return generated


# ---------------------------------------------------------------------------
# rank bounds


def rank_bounds(E: CurveModel, height_bound: int = 2000) -> RankBounds:
    """Selmer upper bound and search-based lower bound on rank(E(Q))."""
    pair = (E, dual_curve(E))
    db, dp = (selmer(C).dim for C in pair)
    ia, ib = (_group_dim(alpha_image(C, height_bound)) for C in pair)
    return RankBounds(
        dim_selmer_psibar=db,
        dim_selmer_psi=dp,
        dim_im_alpha=ia,
        dim_im_alphabar=ib,
        lower=max(0, ia + ib - 2),
        upper=db + dp - 2,
    )
