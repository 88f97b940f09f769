"""Tests for the explicit small witness constructions."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_image
from linform.intsets import FiniteIntSet, LinearForm, canonical_pair
from linform.smallsets import (
    WitnessPair,
    ap_equality_set,
    classify_triples,
    conjugate_four_set_witness,
    five_set_witness,
    three_set_witness,
)


def scan_triples(u, v):
    """Exceptional classes {key: |f|} over coprime {0, a, b} with b <= 2(u + |v|)."""
    found = {}
    for b in range(2, 2 * (u + abs(v)) + 1):
        for a in range(1, b):
            if math.gcd(a, b) == 1 and (card := len(brute_image((u, v), (0, a, b)))) < 9:
                found[canonical_pair(FiniteIntSet((0, a, b))).elements] = card
    return found


def coprime_pairs(max_u, min_u=2):
    for u in range(min_u, max_u + 1):
        for v in range(1, u):
            if math.gcd(u, v) == 1:
                yield u, v


class TestClassifyTriples:
    def test_three_one(self):
        result = classify_triples(LinearForm((3, 1)))
        assert result.as_pairs() == (((0, 1, 3), 8), ((0, 1, 4), 8))

    def test_two_one(self):
        result = classify_triples(LinearForm((2, 1)))
        assert result.as_pairs() == (((0, 1, 2), 7), ((0, 1, 3), 8))

    def test_conjugate_forms_classify_identically(self):
        for u, v in coprime_pairs(10):
            plus = classify_triples(LinearForm((u, v)))
            minus = classify_triples(LinearForm((u, -v)))
            assert plus.as_pairs() == minus.as_pairs(), (u, v)

    def test_matches_independent_enumeration_for_3_2(self):
        form = LinearForm((3, 2))
        found = {}
        for b in range(2, 6):
            for a in range(1, b):
                if math.gcd(a, b) != 1:
                    continue
                card = len(brute_image((3, 2), (0, a, b)))
                if card < 9:
                    found[canonical_pair(FiniteIntSet((0, a, b))).elements] = card
        result = classify_triples(form)
        got = {s.elements: c
               for s, c in zip(result.exceptional_canonicals, result.cardinalities)}
        assert got == found

    def test_bound_stability(self):
        # Every class has a member with b <= u + |v|; an independent scan to
        # twice that finds no further class.  (For u = 1 every triple is exceptional.)
        for u, v in coprime_pairs(12):
            for sv in (v, -v):
                assert dict(classify_triples(LinearForm((u, sv))).as_pairs()) == scan_triples(u, sv), (u, sv)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 60).flatmap(
        lambda u: st.tuples(st.just(u), st.sampled_from(
            [s * v for v in range(1, u) if math.gcd(u, v) == 1 for s in (1, -1)]))))
    def test_matches_brute_scan(self, uv):
        u, v = uv
        assert dict(classify_triples(LinearForm(uv)).as_pairs()) == scan_triples(u, v)

    def test_classes_satisfy_a_collision_equation(self):
        # Two of the nine values u*x + v*y coincide iff u*dx + v*dy = 0 for
        # some dx, dy in A - A, not both 0.
        for u, v in coprime_pairs(20):
            for sv in (v, -v):
                for triple, _ in classify_triples(LinearForm((u, sv))).as_pairs():
                    diffs = {x - y for x in triple for y in triple}
                    assert any(u * dx + sv * dy == 0 for dx in diffs for dy in diffs
                               if (dx, dy) != (0, 0)), (u, sv, triple)

    def test_candidates_match_the_checking_constructor(self, monkeypatch):
        # Every candidate triple, and each set canonical_pair builds from it,
        # goes through the trusted constructor; check each against the
        # checking one, and the classification against an unchecked run.
        rng = random.Random(101)
        forms = [LinearForm((u, s * v)) for u, v in rng.sample(list(coprime_pairs(40)), 60) for s in (1, -1)]
        expected = [classify_triples(f) for f in forms]
        trusted = FiniteIntSet._from_sorted.__func__
        built = []

        def checked(cls, elements):
            made = trusted(cls, elements)
            assert made == FiniteIntSet(elements), elements
            built.append(made)
            return made

        monkeypatch.setattr(FiniteIntSet, "_from_sorted", classmethod(checked))
        assert [classify_triples(f) for f in forms] == expected
        assert len(built) > len(forms)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            classify_triples(LinearForm((2, 4)))
        with pytest.raises(ValueError):
            classify_triples(LinearForm((-3, 1)))

    @pytest.mark.parametrize("v", [1, -1])
    def test_rejects_sum_and_difference(self, v):
        # Every triple is exceptional here: {0, 1, 3} and {0, 1, 4} as much as {0, 1, 2}.
        assert all(len(brute_image((1, v), t)) <= 7 for t in ((0, 1, 2), (0, 1, 3), (0, 1, 4)))
        with pytest.raises(ValueError, match="every triple is exceptional"):
            classify_triples(LinearForm((1, v)))


class TestThreeSetWitness:
    def test_separated_leading_coefficients(self):
        w = three_set_witness(LinearForm((3, 1)), LinearForm((5, 1)))
        assert w.set_a.elements == (0, 1, 3)
        assert w.set_b.elements == (0, 1, 5)
        assert (w.f_of_a, w.g_of_a, w.f_of_b, w.g_of_b) == (8, 9, 9, 8)

    def test_touching_leading_coefficients(self):
        # u2 = u1 + |v1| forces the second family for B
        w = three_set_witness(LinearForm((3, 1)), LinearForm((4, 1)))
        assert w.set_b.elements == (0, 1, 5)

    def test_equal_leading_coefficients(self):
        w = three_set_witness(LinearForm((3, 1)), LinearForm((3, 2)))
        assert w.set_a.elements == (0, 1, 4)
        assert w.set_b.elements == (0, 2, 5)

    def test_swapped_arguments(self):
        w = three_set_witness(LinearForm((5, 1)), LinearForm((3, 1)))
        assert w.f_of_a < w.g_of_a
        assert w.f_of_b > w.g_of_b
        assert w.set_a.elements == (0, 1, 5)

    def test_u_equals_two_gives_seven(self):
        w = three_set_witness(LinearForm((2, 1)), LinearForm((5, 2)))
        assert w.f_of_a == 7  # {0,1,2} under 2x+y

    def test_many_pairs_verify(self):
        forms = [LinearForm((u, sv)) for u, v in coprime_pairs(7) for sv in (v, -v)]
        checked = 0
        for f in forms:
            for g in forms:
                if [abs(c) for c in f.coefficients] == [abs(c) for c in g.coefficients]:  # u > 0
                    continue
                w = three_set_witness(f, g)
                assert w.f_of_a < w.g_of_a and w.f_of_b > w.g_of_b
                checked += 1
        assert checked > 100

    def test_rejects_conjugates_and_small_u(self):
        with pytest.raises(ValueError):
            three_set_witness(LinearForm((3, 1)), LinearForm((3, -1)))
        with pytest.raises(ValueError):
            three_set_witness(LinearForm((1, 1)), LinearForm((3, 1)))


class TestConjugateFourSetWitness:
    def test_u_two_table(self):
        w = conjugate_four_set_witness(2, 1)
        assert w.set_a.elements == (0, 3, 4, 6)
        assert w.set_b.elements == (0, 4, 6, 7)
        assert (w.f_of_a, w.g_of_a, w.f_of_b, w.g_of_b) == (13, 12, 13, 14)
        # published value tables for u = 2
        assert brute_image((2, 1), (0, 3, 4, 6)) == [0, 3, 4, 6, 8, 9, 10, 11, 12, 14, 15, 16, 18]
        assert brute_image((2, -1), (0, 3, 4, 6)) == [-6, -4, -3, 0, 2, 3, 4, 5, 6, 8, 9, 12]
        assert brute_image((2, 1), (0, 4, 6, 7)) == [0, 4, 6, 7, 8, 12, 14, 15, 16, 18, 19, 20, 21]
        assert brute_image((2, -1), (0, 4, 6, 7)) == [-7, -6, -4, 0, 1, 2, 4, 5, 6, 7, 8, 10, 12, 14]

    def test_three_one(self):
        w = conjugate_four_set_witness(3, 1)
        assert w.set_a.elements == (0, 8, 9, 12)
        assert w.set_b.elements == (0, 6, 8, 9)
        assert (w.f_of_a, w.g_of_a, w.f_of_b, w.g_of_b) == (14, 13, 13, 14)

    def test_five_two(self):
        w = conjugate_four_set_witness(5, 2)
        assert (w.f_of_a, w.g_of_a, w.f_of_b, w.g_of_b) == (14, 13, 13, 14)

    def test_all_pairs_to_twenty(self):
        for u, v in coprime_pairs(20):
            w = conjugate_four_set_witness(u, v)
            expected = (13, 12, 13, 14) if u == 2 else (14, 13, 13, 14)
            assert (w.f_of_a, w.g_of_a, w.f_of_b, w.g_of_b) == expected, (u, v)

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            conjugate_four_set_witness(4, 2)
        with pytest.raises(ValueError):
            conjugate_four_set_witness(2, 3)


class TestFiveSetWitness:
    def test_two_one(self):
        a, card_f, card_d = five_set_witness(2, 1)
        assert a.elements == (0, 1, 3, 7, 15)
        assert card_d == 21
        assert card_f <= 19

    def test_collision_identities_for_3_2(self):
        # the six forced coincidences under f = ux+vy, each a distinct value
        u, v = 3, 2
        a = [0, v**3, v**3 + v * v * u, v**3 + v * v * u + v * u * u,
             v**3 + v * v * u + v * u * u + u**3]
        f = lambda x, y: u * x + v * y
        collisions = [
            (f(a[1], a[1]), f(a[0], a[2])),
            (f(a[2], a[1]), f(a[0], a[3])),
            (f(a[2], a[2]), f(a[1], a[3])),
            (f(a[3], a[1]), f(a[0], a[4])),
            (f(a[3], a[2]), f(a[1], a[4])),
            (f(a[3], a[3]), f(a[2], a[4])),
        ]
        values = []
        for left, right in collisions:
            assert left == right
            values.append(left)
        assert values == sorted(values)
        assert len(set(values)) == 6
        _, card_f, card_d = five_set_witness(u, v)
        assert card_f <= 19 and card_d == 21

    def test_sidon_differences_for_5_1(self):
        a, _, card_d = five_set_witness(5, 1)
        diffs = [y - x for i, x in enumerate(a) for y in list(a)[i + 1:]]
        assert len(diffs) == len(set(diffs)) == 10
        assert card_d == 21

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            five_set_witness(4, 2)
        with pytest.raises(ValueError):
            five_set_witness(1, 1)


class TestApEqualitySet:
    def test_three_two_three(self):
        a = ap_equality_set(3, 2, 3)
        assert a.elements == (0, 1, 2)
        assert len(brute_image((3, 2), a.elements)) == 9
        assert len(brute_image((3, -2), a.elements)) == 9

    def test_length_one(self):
        assert ap_equality_set(7, 3, 1).elements == (0,)

    def test_five_two_four(self):
        a = ap_equality_set(5, 2, 4)
        assert a.elements == (0, 1, 2, 3)
        assert len(brute_image((5, 2), a.elements)) == 16

    def test_rejects_long_progressions(self):
        with pytest.raises(ValueError):
            ap_equality_set(3, 2, 4)

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            ap_equality_set(4, 2, 2)


class TestWitnessPairInvariant:
    def test_same_direction_rejected(self):
        f, g = LinearForm((3, 1)), LinearForm((5, 1))
        a, b = FiniteIntSet([0, 1]), FiniteIntSet([0, 2])
        with pytest.raises(RuntimeError):
            WitnessPair(f, g, a, b, f_of_a=8, g_of_a=9, f_of_b=8, g_of_b=9)
        with pytest.raises(RuntimeError):
            WitnessPair(f, g, a, b, f_of_a=9, g_of_a=9, f_of_b=9, g_of_b=8)
