"""The curve family y^2 = x^3 + 18p^2x for prime p.

Classification by p mod 24 and the quartic character of 2, closed-form
Selmer groups (the five-case and three-case tables), rank ceilings, the
fourth-power representation searches 3p = a^4 + 2b^4 and p = a^4 + 18b^4,
and a cross-validation harness that runs the generic descent engine
against all of it.  The points these representations induce are in points.

Closed forms here are lookup tables; the generic engine in descent.py
recomputes the same groups from local solvability, and verify_prime
reports (rather than assumes) their agreement.

Every function of p starts from classify, which alone tests p for
primality and is memoized, so a run that asks several tables about one p
tests it once.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional

from .arith import _iroot, is_prime, quartic_symbol
from .descent import CurveModel, RankBounds, SelmerGroup, dual_curve, rank_bounds, selmer

KIND_3P = "a4+2b4=3p"  # 3p = a^4 + 2*b^4, point on the 3p-space
KIND_P = "a4+18b4=p"  # p  = a^4 + 18*b^4, point on the p-space


class PrimeClass(NamedTuple):
    p: int
    residue_mod_24: int
    quartic2: Optional[int]  # (2/p)_4, defined iff p = 1 mod 8


class ReprWitness(NamedTuple):
    kind: str
    a: int
    b: int


class RankStatement(NamedTuple):
    """A rank assertion: exact value or a ceiling."""

    ceiling: int
    exact: bool

    def __str__(self) -> str:
        return f"exact {self.ceiling}" if self.exact else f"<={self.ceiling}"


class PropositionRank(NamedTuple):
    """Outcome of the representation-based rank criteria."""

    kind: str  # "exact" or "at_least"
    value: int

    def __str__(self) -> str:
        op = "=" if self.kind == "exact" else ">="
        return f"rank {op} {self.value}"


class FamilyReport(NamedTuple):
    prime_class: PrimeClass
    engine_psibar: SelmerGroup
    engine_psi: SelmerGroup
    theorem_bound: RankStatement
    repr_3p: Optional[ReprWitness]  # find_repr(3p, 2)
    repr_p: Optional[ReprWitness]  # find_repr(p, 18)
    proposition: Optional[PropositionRank]
    rank_bounds: RankBounds
    consistent: bool


@lru_cache(maxsize=64)
def classify(p: int) -> PrimeClass:
    """p mod 24 and (2/p)_4; the one primality test of p in this module."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    quartic2 = quartic_symbol(2, p) if p % 8 == 1 else None
    return PrimeClass(p, p % 24, quartic2)


def curve_for_prime(p: int) -> CurveModel:
    """y^2 = x^3 + 18p^2x."""
    classify(p)
    return CurveModel(0, 18 * p * p)


def closed_form_selmer_psibar(p: int) -> SelmerGroup:
    """The five-case table for S_p[psibar], keyed on p mod 24 and (2/p)_4."""
    _, r, q4 = classify(p)
    if p in (2, 3):
        members = [1, 2]
    elif r in (11, 19) or (r == 1 and q4 == 1):
        members = [1, 2, 3, 6, p, 2 * p, 3 * p, 6 * p]
    elif r in (5, 13, 23) or (r == 1 and q4 == -1):
        members = [1, 2, 3, 6]
    elif r == 17 and q4 == 1:
        members = [1, 2, 3 * p, 6 * p]
    elif r == 17 and q4 == -1:
        members = [1, 2, p, 2 * p]
    else:  # p = 7 mod 24
        members = [1, 2]
    return SelmerGroup(frozenset(members))


def closed_form_selmer_psi(p: int) -> SelmerGroup:
    """The three-case table for S_p[psi]."""
    _, r, q4 = classify(p)
    if r == 1 and q4 == 1:
        members = [1, -2, p, -2 * p]
    elif r == 23:
        members = [1, -2, -p, 2 * p]
    else:
        members = [1, -2]
    return SelmerGroup(frozenset(members))


def theorem_bound(p: int) -> RankStatement:
    """Rank ceiling by residue class: 0 exact, or <=1 / <=2 / <=3."""
    _, r, q4 = classify(p)
    if p in (2, 3) or r == 7:
        return RankStatement(0, exact=True)
    if r in (5, 13, 17):
        return RankStatement(1, exact=False)
    if r == 1 and q4 == 1:
        return RankStatement(3, exact=False)
    return RankStatement(2, exact=False)


def find_repr(n: int, k: int) -> Optional[ReprWitness]:
    """Lexicographically smallest (a, b), a, b >= 1, with a^4 + k*b^4 = n.

    Exhaustive over a <= n^(1/4); absence is therefore a proof.
    """
    if n < 1:
        raise ValueError(f"find_repr requires n >= 1, got {n}")
    if k not in (2, 18):
        raise ValueError(f"find_repr supports k in {{2, 18}}, got {k}")
    kind = KIND_3P if k == 2 else KIND_P
    a = 1
    while a**4 < n:
        rem = n - a**4
        if rem % k == 0:
            q = rem // k
            b = _iroot(q, 4)
            if b >= 1 and b**4 == q:
                return ReprWitness(kind, a, b)
        a += 1
    return None


def proposition_rank(p: int) -> Optional[PropositionRank]:
    """Representation-based rank conclusions.

    p = 17 mod 24, (2/p)_4 = 1, 3p = a^4 + 2b^4 with gcd(a, 6p) = 1: the
    3p-space carries a rational point, the alpha image fills its whole
    Selmer group, and the rank is exactly 1.

    p = 1 mod 24, (2/p)_4 = 1, both 3p = c^4 + 2d^4 and p = a^4 + 18b^4
    (gcd(a, 18p) = 1): the alpha image is all of S_p[psibar], so the rank
    is at least 2.
    """
    return _proposition(classify(p), find_repr(3 * p, 2), find_repr(p, 18))


def _proposition(
    cls: PrimeClass, w3p: Optional[ReprWitness], wp: Optional[ReprWitness]
) -> Optional[PropositionRank]:
    """proposition_rank given both representation searches' results."""
    p, r, q4 = cls.p, cls.residue_mod_24, cls.quartic2
    if q4 != 1 or r not in (1, 17):
        return None
    if w3p is None or gcd(w3p.a, 6 * p) != 1:
        return None
    if r == 17:
        return PropositionRank("exact", 1)
    if wp is None or gcd(wp.a, 18 * p) != 1:
        return None
    return PropositionRank("at_least", 2)


def verify_prime(p: int, height_bound: int = 2000) -> FamilyReport:
    """Run closed forms and the generic engine side by side.

    Inconsistency is reported in the `consistent` flag, never raised: the
    whole point of the harness is to surface disagreement as data.
    """
    cls = classify(p)
    E = curve_for_prime(p)
    engine_bar = selmer(E)
    engine_psi = selmer(dual_curve(E))
    bounds = rank_bounds(E, height_bound)
    w3p, wp = find_repr(3 * p, 2), find_repr(p, 18)
    prop = _proposition(cls, w3p, wp)
    bound_stmt = theorem_bound(p)

    consistent = (
        closed_form_selmer_psibar(p) == engine_bar
        and closed_form_selmer_psi(p) == engine_psi
        and bounds.upper <= bound_stmt.ceiling
        and (prop is None or prop.value <= bounds.upper)
    )
    return FamilyReport(
        prime_class=cls,
        engine_psibar=engine_bar,
        engine_psi=engine_psi,
        theorem_bound=bound_stmt,
        repr_3p=w3p,
        repr_p=wp,
        proposition=prop,
        rank_bounds=bounds,
        consistent=consistent,
    )
