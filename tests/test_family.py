from fractions import Fraction
from itertools import product

import pytest

from isodescent.arith import factorize, is_prime, primes_up_to
from isodescent.descent import CurveModel, bad_places, dual_curve, selmer
from isodescent.family import (
    KIND_3P,
    KIND_P,
    ReprWitness,
    classify,
    closed_form_selmer_psi,
    closed_form_selmer_psibar,
    curve_for_prime,
    find_repr,
    proposition_rank,
    theorem_bound,
    verify_prime,
)
from isodescent.points import FROM_REDUCED, TO_REDUCED, CurvePoint, transform_point, witness_homspace_point


class TestCurveForPrime:
    def test_seven(self):
        assert curve_for_prime(7) == CurveModel(0, 882)

    def test_two(self):
        assert curve_for_prime(2) == CurveModel(0, 72)

    def test_big(self):
        assert curve_for_prime(19249) == CurveModel(0, 18 * 19249**2)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            curve_for_prime(15)


class TestTransformPoint:
    def test_identity_fixed(self):
        P = CurvePoint.identity()
        assert transform_point(5, P, TO_REDUCED) == P
        assert transform_point(5, P, FROM_REDUCED) == P

    def test_two_torsion_fixed(self):
        P = CurvePoint(0, 0)
        assert transform_point(5, P, TO_REDUCED) == P
        assert transform_point(5, P, FROM_REDUCED) == P

    def test_round_trip(self):
        # (25, 225) lies on Y^2 = 3X^3 + 6*25*X; its image is (75, 675)
        P = CurvePoint(25, 225)
        reduced = transform_point(5, P, TO_REDUCED)
        assert reduced == CurvePoint(75, 675)
        assert transform_point(5, reduced, FROM_REDUCED) == P

    def test_thirds_stay_rational(self):
        reduced = CurvePoint(75, 675)
        back = transform_point(5, reduced, FROM_REDUCED)
        assert back.x == Fraction(25) and back.y == Fraction(225)

    def test_rejects_off_model(self):
        with pytest.raises(ValueError):
            transform_point(5, CurvePoint(1, 1), TO_REDUCED)
        with pytest.raises(ValueError):
            transform_point(5, CurvePoint(1, 1), FROM_REDUCED)


class TestClassify:
    def test_1217(self):
        cls = classify(1217)
        assert (cls.residue_mod_24, cls.quartic2) == (17, 1)

    def test_17(self):
        cls = classify(17)
        assert (cls.residue_mod_24, cls.quartic2) == (17, -1)

    def test_11_has_no_quartic(self):
        cls = classify(11)
        assert (cls.residue_mod_24, cls.quartic2) == (11, None)

    def test_quartic_defined_exactly_mod_8(self):
        for p in primes_up_to(300):
            cls = classify(p)
            assert (cls.quartic2 is not None) == (p % 8 == 1)


class TestClosedForms:
    def test_psibar_case1(self):
        assert closed_form_selmer_psibar(11).sorted_classes() == sorted(
            [1, 2, 3, 6, 11, 22, 33, 66]
        )

    def test_psibar_case4(self):
        # 41 = 17 mod 24 and (2/41)_4 = -1
        assert closed_form_selmer_psibar(41).sorted_classes() == sorted([1, 2, 41, 82])

    def test_psibar_small_primes(self):
        assert closed_form_selmer_psibar(3).sorted_classes() == [1, 2]
        assert closed_form_selmer_psibar(2).sorted_classes() == [1, 2]

    def test_psi_case2(self):
        assert closed_form_selmer_psi(23).sorted_classes() == sorted([1, -2, -23, 46])

    def test_psi_case1(self):
        assert closed_form_selmer_psi(73).sorted_classes() == sorted([1, -2, 73, -146])

    def test_psi_otherwise(self):
        assert closed_form_selmer_psi(7).sorted_classes() == [-2, 1]


class TestTheoremBound:
    @pytest.mark.parametrize(
        "p,text",
        [(7, "exact 0"), (2, "exact 0"), (5, "<=1"), (17, "<=1"), (73, "<=3"), (11, "<=2"), (97, "<=2")],
    )
    def test_examples(self, p, text):
        assert str(theorem_bound(p)) == text


class TestFindRepr:
    def test_3651(self):
        assert find_repr(3 * 1217, 2) == ReprWitness(KIND_3P, 7, 5)

    def test_19249(self):
        assert find_repr(19249, 18) == ReprWitness(KIND_P, 11, 4)

    def test_3_19249(self):
        assert find_repr(3 * 19249, 2) == ReprWitness(KIND_3P, 5, 13)

    def test_absent(self):
        assert find_repr(6, 2) is None
        assert find_repr(2, 18) is None

    def test_lexicographic_minimum(self):
        # 4803 = 1 + 2 * 7^4 has a = 1, the smallest possible
        assert find_repr(4803, 2) == ReprWitness(KIND_3P, 1, 7)

    def test_identity_holds(self):
        for n, k in ((3 * 5297, 2), (3 * 9521, 2), (19249, 18)):
            w = find_repr(n, k)
            assert w is not None
            assert w.a**4 + k * w.b**4 == n

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            find_repr(100, 3)

    @pytest.mark.parametrize("k,kind", [(2, KIND_3P), (18, KIND_P)])
    def test_against_brute_double_loop(self, k, kind):
        # every a, b <= 60 with a^4 + k*b^4 = n, since 60^4 > 19 * 25^4 + 1
        brute = {}
        for a, b in product(range(1, 61), repeat=2):
            brute.setdefault(a**4 + k * b**4, ReprWitness(kind, a, b))
        targets = {a**4 + k * b**4 + d for a, b in product(range(1, 26), repeat=2) for d in (-1, 0, 1)}
        for n in sorted(targets):
            assert find_repr(n, k) == brute.get(n), n
        assert any(n not in brute for n in targets)


class TestWitnessHomspacePoint:
    def test_kind_p(self):
        point = witness_homspace_point(19249, ReprWitness(KIND_P, 11, 4))
        assert point.z == Fraction(4, 11)
        assert point.w == Fraction(19249, 121)

    def test_kind_3p(self):
        point = witness_homspace_point(19249, ReprWitness(KIND_3P, 5, 13))
        assert point.z == Fraction(13, 5)
        assert point.w == Fraction(3 * 19249, 25)

    def test_1217(self):
        point = witness_homspace_point(1217, ReprWitness(KIND_3P, 7, 5))
        assert point.z == Fraction(5, 7)
        assert point.w == Fraction(3651, 49)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            witness_homspace_point(19249, ReprWitness(KIND_P, 3, 4))


class TestPropositionRank:
    def test_rank_one_primes(self):
        for p in (1217, 1601, 5297, 9521):
            prop = proposition_rank(p)
            assert prop is not None
            assert (prop.kind, prop.value) == ("exact", 1)

    def test_rank_at_least_two(self):
        prop = proposition_rank(19249)
        assert prop is not None
        assert (prop.kind, prop.value) == ("at_least", 2)
        assert str(prop) == "rank >= 2"

    def test_absent_when_hypotheses_fail(self):
        assert proposition_rank(7) is None
        assert proposition_rank(17) is None  # (2/17)_4 = -1
        assert proposition_rank(73) is None  # no representation of 3*73

    def test_absent_without_a_representation_of_p(self):
        # 6481 = 1 mod 24, (2/6481)_4 = 1 and 3*6481 = 11^4 + 2*7^4, but
        # 6481 = a^4 + 18b^4 has no solution: the smallest such prime
        p = 6481
        assert classify(p) == (p, 1, 1)  # (p, p mod 24, (2/p)_4)
        assert find_repr(3 * p, 2) == ReprWitness(KIND_3P, 11, 7)
        assert find_repr(p, 18) is None
        assert proposition_rank(p) is None


class TestVerifyPrime:
    def test_seven(self):
        report = verify_prime(7, 10)
        assert report.consistent
        assert (report.rank_bounds.lower, report.rank_bounds.upper) == (0, 0)

    def test_eleven(self):
        report = verify_prime(11, 10)
        assert report.consistent
        assert report.rank_bounds.upper == 2
        assert report.rank_bounds.lower == 2

    def test_big_prime(self):
        report = verify_prime(19249, 20)
        assert report.consistent
        assert report.rank_bounds.upper == 3
        assert report.rank_bounds.lower >= 2
        assert str(report.proposition) == "rank >= 2"

    def test_one_representation_search_per_kind(self, monkeypatch):
        import isodescent.family as family_mod

        calls = []

        def counting_find_repr(n, k):
            calls.append((n, k))
            return find_repr(n, k)

        monkeypatch.setattr(family_mod, "find_repr", counting_find_repr)
        report = verify_prime(19249, 20)
        assert sorted(calls) == [(19249, 18), (3 * 19249, 2)]
        assert report.proposition == proposition_rank(19249)

    def test_one_trial_division_per_coefficient(self, monkeypatch):
        import isodescent.arith as arith_mod
        import isodescent.family as family_mod

        calls = []

        def counting_factorize(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(arith_mod, "factorize", counting_factorize)
        arith_mod._factorization.cache_clear()
        selmer.cache_clear()
        p = 1043113
        report = family_mod.verify_prime(p, 60)
        arith_mod._factorization.cache_clear()
        # b = 18p^2 and |bbar| = 72p^2, each trial-divided once
        assert sorted(calls) == [18 * p * p, 72 * p * p]
        assert report.consistent

    def test_one_primality_test_of_p(self, monkeypatch):
        import isodescent.family as family_mod

        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(family_mod, "is_prime", counting_is_prime)
        family_mod.classify.cache_clear()
        for p in (7, 1217, 19249):
            calls.clear()
            family_mod.verify_prime(p, 10)
            assert calls == [p]

    def test_miller_rabin_once_per_argument(self, monkeypatch):
        # the factorizations, places and symbols of one verification test
        # the same primes again and again; each check still runs, but each
        # distinct n reaches the Miller-Rabin body once
        import isodescent.arith as arith_mod
        import isodescent.descent as descent_mod
        import isodescent.family as family_mod
        import isodescent.local as local_mod

        runs = []

        def counting_pow(base, exp, mod=None):
            # the body's first pow: witness 2 to the odd part of n - 1
            if base == 2 and mod is not None and exp == (mod - 1) >> arith_mod._vl(mod - 1, 2):
                runs.append(mod)
            return pow(base, exp, mod)

        monkeypatch.setattr(arith_mod, "pow", counting_pow, raising=False)
        for cache in (
            arith_mod.is_prime,
            arith_mod._factorization,
            family_mod.classify,
            descent_mod.selmer,
            local_mod._verdict_table,
        ):
            cache.cache_clear()
        assert family_mod.verify_prime(1043113, 60).consistent
        assert 1043113 in runs
        assert len(runs) == len(set(runs))

    @pytest.mark.parametrize(
        "fn", [verify_prime, classify, curve_for_prime, closed_form_selmer_psibar, closed_form_selmer_psi, theorem_bound]
    )
    def test_public_functions_still_reject_composites(self, fn):
        with pytest.raises(ValueError, match="15 is not prime"):
            fn(15)

    def test_bad_places_once_per_curve(self, monkeypatch):
        import isodescent.descent as descent_mod

        calls = []

        def counting_bad_places(E):
            calls.append(E)
            return bad_places(E)

        monkeypatch.setattr(descent_mod, "bad_places", counting_bad_places)
        selmer.cache_clear()
        verify_prime(1217, 10)
        # one computation for each curve of the pair, each asked once:
        # every later Selmer lookup is a hit in selmer's own cache
        E = curve_for_prime(1217)
        assert sorted(calls) == sorted([E, dual_curve(E)])

    def test_closed_forms_factor_nothing(self, monkeypatch):
        import isodescent.arith as arith_mod

        calls = []

        def counting_factorize(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(arith_mod, "factorize", counting_factorize)
        arith_mod._factorization.cache_clear()
        for p in (7, 1217, 1043113):
            closed_form_selmer_psibar(p)
            closed_form_selmer_psi(p)
        assert calls == []

    def test_dimension_dichotomy(self):
        for p in primes_up_to(200):
            E = curve_for_prime(p)
            assert selmer(E).dim in (1, 2, 3)
            assert selmer(dual_curve(E)).dim in (1, 2)
