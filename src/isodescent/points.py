"""Rational points on the curves y^2 = x^3 + a*x^2 + b*x and on their spaces.

Chord-tangent addition, the isogeny pair (composition is multiplication
by 2), the bounded point search on the spaces w^2 = b1 + a*z^2 + (b/b1)*z^4
with the map from a space point to its curve, Lutz-Nagell torsion, and
for y^2 = x^3 + 18p^2x the change of model to Y^2 = 3X^3 + 6p^2X and the
space points induced by 3p = a^4 + 2b^4 and p = a^4 + 18b^4.

Every coordinate is a Fraction, so all point arithmetic is exact.  No rank
bound, Selmer group or CLI record builds a point: descent and family do
not import this module, so neither a rank nor a scan loads fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .arith import factorize, squarefree_class
from .descent import CurveModel, _divisors_of, _search_class, divisor_classes, dual_curve
from .family import KIND_3P, KIND_P, ReprWitness, curve_for_prime

# Mazur: rational torsion has order at most 12
_MAX_TORSION_ORDER = 12

TO_REDUCED = "to_reduced"  # (X, Y) on Y^2 = 3X^3 + 6p^2X  ->  (3X, 3Y)
FROM_REDUCED = "from_reduced"


class CurvePoint(NamedTuple("CurvePoint", [("x", Optional[Fraction]), ("y", Optional[Fraction])])):
    """The identity (None, None), or an affine rational point whose
    coordinates are converted with Fraction when it is built."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _make and _replace run __new__

    def __new__(cls, x, y) -> "CurvePoint":
        return super().__new__(cls, *(None if c is None else Fraction(c) for c in (x, y)))

    @classmethod
    def identity(cls) -> "CurvePoint":
        return cls(None, None)

    @property
    def is_identity(self) -> bool:
        return self.x is None


class HomSpacePoint(NamedTuple("HomSpacePoint", [("b1", int), ("z", Fraction), ("w", Fraction)])):
    """Rational point (z, w) on w^2 = b1 + a*z^2 + (b/b1)*z^4, z != 0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _make and _replace run __new__

    def __new__(cls, b1: int, z: Fraction, w: Fraction) -> "HomSpacePoint":
        if z == 0:
            raise ValueError("homogeneous space point requires z != 0")
        return super().__new__(cls, b1, z, w)


# ---------------------------------------------------------------------------
# curve-level operations


def on_curve(E: CurveModel, P: CurvePoint) -> bool:
    if P.is_identity:
        return True
    x, y = P.x, P.y
    return y * y == x * x * x + E.a * x * x + E.b * x


def _require_on_curve(E: CurveModel, P: CurvePoint) -> None:
    if not on_curve(E, P):
        raise ValueError(f"point {P} is not on y^2 = x^3 + {E.a}x^2 + {E.b}x")


def point_add(E: CurveModel, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition on y^2 = x^3 + a*x^2 + b*x."""
    if P.is_identity:
        return Q
    if Q.is_identity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return CurvePoint.identity()
        # duplication
        lam = (3 * P.x * P.x + 2 * E.a * P.x + E.b) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - E.a - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return CurvePoint(x3, y3)


# ---------------------------------------------------------------------------
# rational points on the spaces


def search_homspace_points(E: CurveModel, b1: int, height_bound: int) -> list[HomSpacePoint]:
    """All rational points z = m/e, max(|m|, e) <= height_bound, on the b1
    space of E, with both signs of z and w emitted.

    The search is drained and its hits are sorted, so the list does not
    depend on the ring order in which the sieve yields them.
    """
    if height_bound < 1:
        raise ValueError("height_bound must be >= 1")
    if b1 not in divisor_classes(E.b):
        raise ValueError(f"{b1} is not a divisor class of b = {E.b}")
    points: list[HomSpacePoint] = []
    for m, e, wn in sorted(_search_class(E, b1, height_bound)):
        z = Fraction(m, e)
        w = Fraction(wn, e * e)
        for zs in (z, -z):
            for ws in (w, -w) if w != 0 else (w,):
                points.append(HomSpacePoint(b1, zs, ws))
    return points


def homspace_to_curve(E: CurveModel, P: HomSpacePoint) -> CurvePoint:
    """(z, w) on the b1 space maps to (b1/z^2, b1*w/z^3) on E."""
    x = Fraction(P.b1) / (P.z * P.z)
    y = Fraction(P.b1) * P.w / (P.z * P.z * P.z)
    point = CurvePoint(x, y)
    _require_on_curve(E, point)
    return point


# ---------------------------------------------------------------------------
# isogenies


def apply_isogeny(E: CurveModel, P: CurvePoint) -> CurvePoint:
    """The 2-isogeny (x, y) -> (y^2/x^2, y*(b - x^2)/x^2) onto the dual.

    The kernel {O, (0,0)} maps to the identity.
    """
    _require_on_curve(E, P)
    target = dual_curve(E)
    if P.is_identity or P.x == 0:
        return CurvePoint.identity()
    x, y = P.x, P.y
    X = (y / x) ** 2
    Y = y * (E.b - x * x) / (x * x)
    image = CurvePoint(X, Y)
    _require_on_curve(target, image)
    return image


def apply_dual_isogeny(E: CurveModel, P: CurvePoint) -> CurvePoint:
    """The dual isogeny (X, Y) -> (Y^2/4X^2, Y*(bbar - X^2)/8X^2) onto E.

    That is the isogeny of the dual curve, onto its dual (4a, 16b),
    followed by (x, y) -> (x/4, y/8) onto E.  Composing after apply_isogeny
    is multiplication by 2 on E.
    """
    image = apply_isogeny(dual_curve(E), P)
    if image.is_identity:
        return image
    image = CurvePoint(image.x / 4, image.y / 8)
    _require_on_curve(E, image)
    return image


# ---------------------------------------------------------------------------
# torsion


def _cubic_integer_roots(a2: int, a1: int, a0: int) -> list[int]:
    """Integer roots of x^3 + a2*x^2 + a1*x + a0, a0 or a1 nonzero: 0 when
    a0 = 0, and the others divide the lowest nonzero coefficient
    (rational-root theorem)."""
    roots = set() if a0 else {0}
    for d in _divisors_of(factorize(a0 or a1)):
        for x in (d, -d):
            if ((x + a2) * x + a1) * x + a0 == 0:
                roots.add(x)
    return sorted(roots)


def torsion_info(E: CurveModel) -> list[CurvePoint]:
    """All rational torsion points, by Lutz-Nagell candidates certified
    through multiples (Mazur's bound caps the order at 12).

    Candidates have y = 0 or y^2 | disc = 16*b^2*(a^2 - 4b); integral x.
    """
    disc = 16 * E.b * E.b * (E.a * E.a - 4 * E.b)
    fact = factorize(disc)
    y_candidates = [0] + _divisors_of({p: e // 2 for p, e in fact.items() if e >= 2})
    found = {CurvePoint.identity()}
    for y in y_candidates:
        for x in _cubic_integer_roots(E.a, E.b, -y * y):
            for sign in (1, -1) if y else (1,):
                P = CurvePoint(x, sign * y)
                if not on_curve(E, P) or P in found:
                    continue
                acc = P
                for _ in range(_MAX_TORSION_ORDER):
                    if acc.is_identity:
                        found.add(P)
                        break
                    acc = point_add(E, acc, P)
    return sorted(found, key=lambda P: (not P.is_identity, P.x or 0, P.y or 0))


# ---------------------------------------------------------------------------
# the family y^2 = x^3 + 18p^2x


def transform_point(p: int, P: CurvePoint, direction: str) -> CurvePoint:
    """Move points between Y^2 = 3X^3 + 6p^2X and y^2 = x^3 + 18p^2x.

    The change of variables is (x, y) = (3X, 3Y); both directions are
    exact bijections on rational points.
    """
    E = curve_for_prime(p)
    if direction not in (TO_REDUCED, FROM_REDUCED):
        raise ValueError(f"unknown direction {direction!r}")
    if P.is_identity:
        return P
    X, Y = P.x, P.y
    if direction == TO_REDUCED:
        if Y * Y != 3 * X**3 + 6 * p * p * X:
            raise ValueError("point is not on Y^2 = 3X^3 + 6p^2X")
        return CurvePoint(3 * X, 3 * Y)
    if not on_curve(E, P):
        raise ValueError("point is not on y^2 = x^3 + 18p^2x")
    return CurvePoint(X / 3, Y / 3)


def witness_homspace_point(p: int, w: ReprWitness) -> HomSpacePoint:
    """Point induced by a representation witness.

    3p = a^4 + 2b^4 gives (z, w) = (b/a, 3p/a^2) on w^2 = 3p + 6p*z^4;
    p = a^4 + 18b^4 gives (z, w) = (b/a, p/a^2) on w^2 = p + 18p*z^4.
    """
    curve = curve_for_prime(p)
    a, b = w.a, w.b
    if w.kind == KIND_3P:
        if a**4 + 2 * b**4 != 3 * p:
            raise ValueError(f"witness {w} does not represent 3*{p}")
        b1 = squarefree_class(3 * p)
        point = HomSpacePoint(b1, Fraction(b, a), Fraction(3 * p, a * a))
    elif w.kind == KIND_P:
        if a**4 + 18 * b**4 != p:
            raise ValueError(f"witness {w} does not represent {p}")
        point = HomSpacePoint(p, Fraction(b, a), Fraction(p, a * a))
    else:
        raise ValueError(f"unknown witness kind {w.kind!r}")
    value = point.b1 + (curve.b // point.b1) * point.z**4
    if point.w**2 != value:
        raise AssertionError("witness point fails its space equation")
    return point
