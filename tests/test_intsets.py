"""Tests for sets, forms, images, canonicalization, and amplification."""

from __future__ import annotations

import functools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_image
from linform import intsets
from linform.intsets import (
    DIFFERENCE,
    SUM,
    FiniteIntSet,
    LinearForm,
    affine_canonical,
    amplify,
    canonical_pair,
    image,
    image_cardinality,
    normalize_form,
    set_from_json,
    set_from_text,
    set_to_text,
)
from linform.modular import ResidueSet, crt_product, rectify
from linform.verify import packaged_locals

MSTD = FiniteIntSet((0, 2, 3, 4, 7, 11, 12, 14))

small_sets = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12).map(FiniteIntSet)
nonzero = st.integers(-9, 9).filter(lambda c: c != 0)
binary_forms = st.tuples(nonzero, nonzero).map(LinearForm)


class TestTypes:
    def test_set_normalizes(self):
        assert FiniteIntSet([3, 1, 2, 1]).elements == (1, 2, 3)

    def test_set_rejects_non_integers(self):
        with pytest.raises(ValueError):
            FiniteIntSet([1, 2.5])
        with pytest.raises(ValueError):
            FiniteIntSet([True])

    @pytest.mark.parametrize("elements", [[], (), iter(()), range(0)], ids=["list", "tuple", "iterator", "range"])
    def test_set_rejects_empty(self, elements):
        with pytest.raises(ValueError, match="^a set needs at least one element$"):
            FiniteIntSet(elements)

    def test_set_needs_an_argument(self):
        with pytest.raises(TypeError):
            FiniteIntSet()

    def test_set_protocols(self):
        a = FiniteIntSet([5, 1, 3])
        assert len(a) == 3
        assert list(a) == [1, 3, 5]
        assert 3 in a and 2 not in a
        assert a[0] == 1
        assert a == FiniteIntSet((1, 3, 5))
        assert hash(a) == hash(FiniteIntSet((1, 3, 5)))

    def test_form_validation(self):
        with pytest.raises(ValueError):
            LinearForm(())
        with pytest.raises(ValueError):
            LinearForm((2, 0))
        with pytest.raises(ValueError):
            LinearForm((2, "x"))

    def test_form_properties(self):
        f = LinearForm((3, -2))
        assert f.arity == 2 and f.height == 5
        assert f.is_normalized
        assert not LinearForm((2, 3)).is_normalized
        assert SUM.coefficients == (1, 1)
        assert DIFFERENCE.coefficients == (1, -1)

    def test_unary_and_ternary_forms(self):
        assert LinearForm((4,)).arity == 1
        assert LinearForm((1, 2, 3)).height == 6
        with pytest.raises(ValueError):
            LinearForm((1, 2, 3)).is_normalized  # noqa: B018


@pytest.mark.parametrize("call", [
    lambda e: image(SUM, e),
    lambda e: image_cardinality(SUM, e),
    lambda e: amplify(SUM, DIFFERENCE, e),
], ids=["image", "image_cardinality", "amplify"])
def test_operations_reject_an_empty_set(call):
    with pytest.raises(ValueError, match="^a set needs at least one element$"):
        call([])


class TestImage:
    def test_more_sums_than_differences(self):
        assert image_cardinality(SUM, MSTD) == 26
        assert image_cardinality(DIFFERENCE, MSTD) == 25

    def test_two_one_on_three_elements(self):
        assert image(LinearForm((2, 1)), [0, 1, 2]).elements == (0, 1, 2, 3, 4, 5, 6)

    def test_singleton(self):
        for f in (SUM, DIFFERENCE, LinearForm((7, -3))):
            assert image_cardinality(f, [5]) == 1

    def test_two_element_sets_give_four(self):
        for u, v in ((2, 1), (3, -2), (7, 5)):
            assert image_cardinality(LinearForm((u, v)), [0, 1]) == 4

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            image(SUM, FiniteIntSet([]))

    def test_kernel_is_not_an_argument(self):
        for call in (image, image_cardinality):
            with pytest.raises(TypeError):
                call(SUM, [0, 1], "merge")

    def test_matches_brute_force_oracle(self):
        rng = random.Random(5)
        for _ in range(50):
            elems = rng.sample(range(-50, 50), rng.randint(1, 10))
            coeffs = tuple(rng.choice([c for c in range(-6, 7) if c]) for _ in range(rng.randint(1, 3)))
            got = image(LinearForm(coeffs), elems)
            assert list(got) == brute_image(coeffs, elems)

    def test_kernels_agree_on_200_random_instances(self):
        # merge folds on numpy and the bitset kernels on a big int or words,
        # at every tuple count, against brute force on Python ints.
        rng = random.Random(11)
        for _ in range(200):
            a = FiniteIntSet(rng.sample(range(-500, 500), rng.randint(1, 64)))
            f = LinearForm((rng.choice([c for c in range(-10, 11) if c]),
                            rng.choice([c for c in range(-10, 11) if c])))
            expected = tuple(brute_image(f.coefficients, a.elements))
            results = {k: intsets._image(f, a, k).elements for k in KERNEL_FUNCTIONS}
            assert set(results.values()) == {expected}, (f, results)
            # _image trusts the fold to give sorted, distinct Python ints;
            # the checking constructor must agree with it.
            for elements in results.values():
                assert elements == FiniteIntSet(elements).elements
                assert all(type(x) is int for x in elements)
            cards = {intsets._cardinality(f, a, k) for k in KERNEL_FUNCTIONS}
            assert cards == {len(expected)}

    def test_each_label_runs_exactly_its_own_kernel(self, monkeypatch):
        calls = {name: spy(monkeypatch, name) for name in KERNEL_FUNCTIONS.values()}
        rng = random.Random(67)
        f = LinearForm((2, -1))
        for n, top in ((4, 10**4), (64, 10**5)):  # 16 and 4,096 tuples
            a = FiniteIntSet(rng.sample(range(top), n))
            expected = brute_image((2, -1), a.elements)
            for label, kernel in KERNEL_FUNCTIONS.items():
                for c in calls.values():
                    del c[:]
                assert list(intsets._image(f, a, label)) == expected
                assert intsets._cardinality(f, a, label) == len(expected)
                assert {name: len(c) for name, c in calls.items()} == {
                    name: 2 if name == kernel else 0 for name in calls}, (n, label)

    @pytest.mark.parametrize("label", ["pairs", "bitset", "auto", "Merge", ""])
    def test_unknown_kernel_labels_are_rejected(self, monkeypatch, label):
        # A label outside _KERNEL_NS raises before any fold runs, rather than
        # falling through to the big-int fold, which would build a mask as
        # wide as the window (2**70 bits on the second set).
        calls = {name: spy(monkeypatch, name) for name in KERNEL_FUNCTIONS.values()}
        for a in (FiniteIntSet((0, 1, 5)), FiniteIntSet((0, 2**70))):
            for run in (intsets._image, intsets._cardinality):
                with pytest.raises(ValueError, match=f"^unknown kernel {label!r}: the kernels are merge, big-int, word$"):
                    run(SUM, a, label)
        assert not any(calls.values())

    def test_auto_picks_the_kernel_by_tuples_and_window(self, monkeypatch):
        # Stubs stand in for the kernels, so that the 4,000,000-tuple folds
        # are dispatched but not run.  The window of x + y on [0, d] spans
        # 2d + 1 integers: d = 2**26 - 1 fits BITSET_WIDTH_CAP, 2**26 does not.
        calls = []
        stubs = {"_sort_fold": (np.zeros((1, 0), np.int64), 1), "_big_int_fold": 0}
        for name, result in stubs.items():
            monkeypatch.setattr(intsets, name, lambda *args, name=name, result=result: calls.append(name) or result)
        fits, wide = 2**26 - 1, 2**26
        assert 2 * fits + 1 <= intsets.BITSET_WIDTH_CAP < 2 * wide + 1
        rng = random.Random(71)
        cases = [
            (15, 99, "_big_int_fold"),    # cheap mask
            (15, fits, "_sort_fold"),     # 225 tuples, mask too costly
            (20, fits, "_sort_fold"),     # 400 tuples
            (15, wide, "_sort_fold"),
            (20, wide, "_sort_fold"),
            (2000, fits, "_sort_fold"),   # 4,000,000 tuples, mask too costly
            (2001, fits, "_sort_fold"),   # the cost rule alone decides at any tuple count
            (2000, wide, "_sort_fold"),
            (2001, wide, "_sort_fold"),
        ]
        labels = {name: label for label, name in KERNEL_FUNCTIONS.items()}
        for n, d, kernel in cases:
            a = FiniteIntSet([0, d] + rng.sample(range(1, d), n - 2))
            assert intsets._plan(SUM.coefficients, a) == labels[kernel], (n, d)
            del calls[:]
            image(SUM, a)
            image_cardinality(SUM, a)
            assert calls == [kernel] * 2, (n, d)

    @pytest.mark.usefixtures("time_limit")
    def test_sort_kernel_matches_brute_force_and_python_kernels(self, monkeypatch):
        # Windows too wide for the bitset kernels but within int64; a spy
        # confirms that auto and merge reach the sort kernel.
        sort_folds = spy(monkeypatch, "_sort_fold")
        rng = random.Random(23)
        top = 1 << 40
        exact = (2**63 - 1) // 7  # (4, -3) then spans exactly 2**63 integers
        cases = [
            ((3, -2), rng.sample(range(top), 64)),
            ((-1, -4), rng.sample(range(top), 48)),
            ((-5, 2), rng.sample(range(-top, top), 48)),
            ((1, 2, -3), rng.sample(range(top), 24)),
            ((-1, -1, -1), rng.sample(range(top), 16)),
            ((2, 1), [10**40 + x for x in rng.sample(range(top), 64)]),
            ((1, -1), [-10**40 - x for x in rng.sample(range(top), 64)]),
            ((4, -3), [0, exact] + rng.sample(range(1, exact), 30)),
        ]
        assert width((4, -3), cases[-1][1]) == 2**63
        for coeffs, elems in cases:
            assert_image_exact(coeffs, elems)
        assert len(sort_folds) == 4 * len(cases)

    @pytest.mark.usefixtures("time_limit")
    def test_window_one_past_int64_folds_on_limbs(self, monkeypatch):
        limb_folds = spy(monkeypatch, "_limb_fold")
        rng = random.Random(29)
        elems = [0, 2**62] + rng.sample(range(1, 2**62), 30)
        assert width((1, 1), elems) == 2**63 + 1
        assert_image_exact((1, 1), elems)
        assert len(limb_folds) == 4  # auto and merge
        assert all(terms[0].shape[0] == 2 for terms, _ in limb_folds)  # two 62-bit limbs

    @pytest.mark.usefixtures("time_limit")
    def test_sort_kernel_merges_overlapping_blocks(self, monkeypatch):
        # A block cap of 64 values splits each stage into one block per
        # accumulator row; on a dense set the blocks share most values.
        monkeypatch.setattr(intsets, "_SORT_CHUNK", 64)
        sort_folds = spy(monkeypatch, "_sort_fold")
        rng = random.Random(31)
        a = FiniteIntSet(rng.sample(range(300), 60))
        forms = ((1, 1), (2, -1), (1, 1, 1), (-3, 1, 2))
        expected = {coeffs: brute_image(coeffs, a.elements) for coeffs in forms}
        for coeffs in forms:
            assert len(expected[coeffs]) < len(a) ** len(coeffs) // 4
            assert list(intsets._image(LinearForm(coeffs), a, "merge")) == expected[coeffs]
            assert intsets._cardinality(LinearForm(coeffs), a, "merge") == len(expected[coeffs])
        assert len(sort_folds) == 2 * len(forms)

    @pytest.mark.usefixtures("time_limit")
    def test_kernels_agree_on_wide_windows(self, monkeypatch):
        # Windows of up to 2**20 per term, whose words span several 64-bit
        # edges; a spy confirms that the word label reaches the word kernel.
        word_folds = spy(monkeypatch, "_word_fold")
        rng = random.Random(17)
        top = 1 << 20
        edges = [0, 63, 64, 65, 127, 128]
        cases = [
            ((3, -2), rng.sample(range(top), 64)),
            ((-1, -4), rng.sample(range(top), 48)),
            ((1, 2, -3), rng.sample(range(top // 2), 24)),
            ((2, 1), [10**40 + x for x in rng.sample(range(top), 64)]),
            ((1, -1), [-10**40 - x for x in rng.sample(range(top), 64)]),
            ((1, 1), edges + [top - e for e in edges] + rng.sample(range(129, top - 128), 30)),
            ((1, -1), edges + [top - e for e in edges] + rng.sample(range(129, top - 128), 30)),
        ]
        for coeffs, elems in cases:
            f, a, expected = LinearForm(coeffs), FiniteIntSet(elems), tuple(brute_image(coeffs, elems))
            results = {k: intsets._image(f, a, k).elements for k in KERNEL_FUNCTIONS}
            assert set(results.values()) | {image(f, a).elements} == {expected}, coeffs
            cards = {intsets._cardinality(f, a, k) for k in KERNEL_FUNCTIONS} | {image_cardinality(f, a)}
            assert cards == {len(expected)}
        assert len(word_folds) == 2 * len(cases)  # auto runs merge on every case

    def test_word_kernel_matches_big_int_kernel(self, monkeypatch):
        rng = random.Random(19)
        cases = []
        for _ in range(200):
            elems = rng.sample(range(-500, 500), rng.randint(1, 64))
            coeffs = tuple(rng.choice([c for c in range(-10, 11) if c]) for _ in range(rng.randint(1, 3)))
            cases.append((coeffs, elems))
        qr = [ResidueSet(p, {x * x % p for x in range(1, p)}) for p in (13, 29, 37)]
        rectified = rectify(crt_product(qr), 1)
        assert len(rectified) == 6 * 14 * 18
        cases += [(coeffs, rectified) for coeffs in ((2, 1), (1, 1), (1, -1), (1, 1, 1))]
        for coeffs, elems in cases:
            terms = intsets._terms(LinearForm(coeffs), FiniteIntSet(elems))
            assert intsets._word_fold(terms, intsets._pair_fold(coeffs)) == intsets._big_int_fold(terms), coeffs

    @given(a=small_sets, f=binary_forms)
    @settings(max_examples=100, deadline=None)
    def test_cardinality_bounded_by_tuple_count(self, a, f):
        assert image_cardinality(f, a) <= len(a) ** f.arity

    def test_interval_saturates_the_bound(self):
        # an interval [0, t-1] with t <= u gives every pair a distinct value
        for u, v, t in ((3, 2, 3), (5, -2, 4), (7, 1, 7)):
            a = FiniteIntSet(range(t))
            assert image_cardinality(LinearForm((u, v)), a) == t * t

    def test_image_is_sumset_of_dilations(self):
        # f(A) = u*A + v*A, which brute_image enumerates pair by pair.
        rng = random.Random(3)
        for _ in range(20):
            elems = FiniteIntSet(rng.sample(range(-30, 30), rng.randint(1, 8)))
            u = rng.choice([c for c in range(-8, 9) if c])
            v = rng.choice([c for c in range(-8, 9) if c])
            expected = brute_image((u, v), elems)
            assert list(image(LinearForm((u, v)), elems)) == expected, (u, v)
            for label in KERNEL_FUNCTIONS:
                assert list(intsets._image(LinearForm((u, v)), elems, label)) == expected, (u, v, label)

    @pytest.mark.parametrize("elems", [[0], [5], [-(10**30)], [0, 1], [-3, 4], [-4, 4], [0, 2**70]],
                             ids=["zero", "five", "far", "0-1", "-3-4", "symmetric", "wide"])
    def test_pair_folds_read_off_the_coefficients_on_one_and_two_elements(self, elems):
        # Only equal-magnitude coefficients fold unordered pairs, so (2, 1) on
        # {0}, whose two terms are equal, does not, and (1, 1) on {-4, 4},
        # whose terms also mirror, folds as a pair.  The planned kernel and
        # every kernel (the bitset ones where the window fits) count exactly.
        a = FiniteIntSet(elems)
        for coeffs in ((1, 1), (1, -1), (-2, 2), (2, 1), (1, 1, 1)):
            f, expected = LinearForm(coeffs), brute_image(coeffs, elems)
            fits = width(coeffs, elems) <= intsets.BITSET_WIDTH_CAP
            assert list(image(f, a)) == expected, coeffs
            assert image_cardinality(f, a) == len(expected), coeffs
            for kernel in KERNEL_FUNCTIONS if fits else ("merge",):
                assert list(intsets._image(f, a, kernel)) == expected, (coeffs, kernel)
                assert intsets._cardinality(f, a, kernel) == len(expected), (coeffs, kernel)
        assert intsets._pair_fold((2, 1)) is None and intsets._pair_fold((-2, 2)) == "mirrored"


# Each kernel label _plan returns, and the fold function it runs.
KERNEL_FUNCTIONS = {"merge": "_sort_fold", "big-int": "_big_int_fold", "word": "_word_fold"}


def width(coeffs, elems):
    """The number of integers in the window of f(A): height(f) * (max A - min A) + 1."""
    return LinearForm(coeffs).height * (max(elems) - min(elems)) + 1


def spy(monkeypatch, name):
    """Wrap intsets.<name>; returns the list of argument tuples it was called with."""
    calls = []
    real = getattr(intsets, name)
    monkeypatch.setattr(intsets, name, lambda *args: calls.append(args) or real(*args))
    return calls


def assert_image_exact(coeffs, elems):
    """The image and its cardinality, planned and on merge, against brute force.

    brute_image folds on Python ints, independently of the package, so it
    checks the sort kernel that merge runs.
    """
    f, a = LinearForm(coeffs), FiniteIntSet(elems)
    expected = brute_image(coeffs, elems)
    for label in ("auto", "merge"):
        planned = label == "auto"
        got = (image(f, a) if planned else intsets._image(f, a, label)).elements
        assert list(got) == expected, (coeffs, label)
        # _image trusts the fold to give sorted, distinct Python ints.
        assert got == FiniteIntSet(got).elements
        assert all(type(x) is int for x in got)
        card = image_cardinality(f, a) if planned else intsets._cardinality(f, a, label)
        assert card == len(expected), (coeffs, label)


@pytest.mark.usefixtures("time_limit")
class TestWideSortFold:
    """The sort kernel on windows wider than 2**63: gcd reduction and 62-bit limbs.

    Every case is checked against brute force, a Python fold, under the
    time limit.
    """

    @pytest.mark.parametrize("dilation", [2**62, 3 * 2**61, 2**116], ids=["2^62", "3*2^61", "2^116"])
    def test_low_limb_collisions_group_by_hash(self, monkeypatch, dilation):
        # Half the elements are dilation*b, half dilation*b + 1, so the
        # offsets' gcd is 1 and every image value's low limb is one of a few
        # values shared by many different high limbs; at 2^116 the high
        # limbs differ only in their top bits.  The hash of all limbs still
        # tells them apart, so nothing is lexsorted.
        lexsorts = spy(monkeypatch, "_lexsorted_distinct")
        limb_folds = spy(monkeypatch, "_limb_fold")
        rng = random.Random(37)
        shift = -(10**30) - 7
        for coeffs, n in (((1, 1), 24), ((1, -1), 24), ((2, 1), 20), ((-3, 1), 20),
                          ((1, 1, 1), 10), ((1, -2, 1), 10)):
            elems = [dilation * b + i % 2 + shift for i, b in enumerate(rng.sample(range(300), n))]
            assert_image_exact(coeffs, elems)
        assert len(limb_folds) == 6 * 4  # auto and merge
        assert not lexsorts

    def test_offsets_at_limb_edges(self, monkeypatch):
        limb_folds = spy(monkeypatch, "_limb_fold")
        rng = random.Random(43)
        edges = [0, 1, 2**62 - 1, 2**62, 2**62 + 1, 2**124 - 1, 2**124, 2**124 + 1, 2**125]
        for coeffs, n in (((1, 1), 20), ((1, -1), 20), ((3, -2), 20), ((-1, -1), 20),
                          ((1, 2, -3), 10), ((-1, -1, -1), 10)):
            for shift in (0, -(10**40) - 3):
                elems = [x + shift for x in edges + [rng.getrandbits(125) for _ in range(n - len(edges))]]
                assert_image_exact(coeffs, elems)
        # windows of about 2**127 to 2**128: three limbs
        assert len(limb_folds) == 6 * 2 * 4
        assert {terms[0].shape[0] for terms, _ in limb_folds} == {3}

    def test_one_element_terms_and_unary_forms(self, monkeypatch):
        limb_folds = spy(monkeypatch, "_limb_fold")
        rng = random.Random(47)
        elems = sorted({rng.getrandbits(100) for _ in range(512)})
        big = 7 * 2**100
        for coeffs in ((1, 1), (1, -1), (3, -2), (1, 2, -3)):  # every term one element
            assert_image_exact(coeffs, [big])
        assert_image_exact((-5,), elems[:300])  # nothing to fold: auto runs merge too
        assert len(limb_folds) == 4 * 2 + 4

    def test_gcd_reduces_dilated_windows_to_int64(self, monkeypatch):
        limb_folds = spy(monkeypatch, "_limb_fold")
        rng = random.Random(53)
        for dilation in (10**40, 2**124 + 1, 3 * 2**61):
            for coeffs, n in (((1, -1), 40), ((2, 1), 40), ((1, 1, 1), 12)):
                base = rng.sample(range(0, 3000, 3), n)  # the gcd of offsets is 3*dilation or more
                elems = sorted(dilation * b - 10**35 for b in base)
                span = width(coeffs, elems) - 1
                g = math.gcd(*(x - elems[0] for x in elems))
                assert span >= 2**63 and g % (3 * dilation) == 0
                del limb_folds[:]
                assert_image_exact(coeffs, elems)
                assert len(limb_folds) == 4
                for terms, _ in limb_folds:
                    assert terms[0].shape[0] == 1  # one int64 limb
                    assert sum(int(t[0, -1]) for t in terms) == span // g < 3000 * len(coeffs)
        # Doubling a set whose sum window is just under 2**63 gives a window
        # between 2**63 and 2**64, which the gcd brings back under 2**63.
        elems = [0, 2**62 - 2] + rng.sample(range(1, 2**62 - 2), 30)
        doubled = [2 * x + 5 for x in elems]
        assert 2**63 < width((1, 1), doubled) < 2**64
        del limb_folds[:]
        assert_image_exact((1, 1), doubled)
        assert len(limb_folds) == 4
        assert all(terms[0].shape[0] == 1 for terms, _ in limb_folds)

    def test_limb_blocks_merge(self, monkeypatch):
        # A cap of 128 limb values holds one row of 60 two-limb offsets per
        # block, or two of the shorter rows that x + y keeps; the set is dense
        # near 0, so the blocks share most values.
        monkeypatch.setattr(intsets, "_SORT_CHUNK", 128)
        carried = spy(monkeypatch, "_carry")
        distinct = spy(monkeypatch, "_distinct_columns")
        rng = random.Random(59)
        elems = rng.sample(range(300), 59) + [2**80]
        for coeffs in ((1, 1), (2, -1), (1, 1, 1)):
            del carried[:], distinct[:]
            assert_image_exact(coeffs, elems)
            assert len(carried) >= 4 * 30
            assert all(limbs.shape[0] == 2 and limbs.size <= 128 for limbs, in carried)
            assert len(distinct) > len(carried)  # the merges

    def test_random_wide_sets_match_python_fold(self, monkeypatch):
        # Dilations by limb-aligned and huge factors, then translated; a
        # second, shifted copy of part of the set defeats the gcd step.
        lexsorts = spy(monkeypatch, "_lexsorted_distinct")
        limb_folds = spy(monkeypatch, "_limb_fold")
        rng = random.Random(61)
        forms = ((1, 1), (1, -1), (2, 1), (-2, 3), (1, 1, 1), (1, -1, 2))
        for i in range(24):
            dilation = (2**62, 3 * 2**61, 2**124 + 1, 10**40)[i % 4]
            n = rng.randint(16, 24)
            base = rng.sample(range(200), n)
            elems = {dilation * b for b in base} | {dilation * b + 1 for b in base[:rng.randint(0, 4)]}
            shift = rng.randrange(-(10**45), 10**45)
            elems = sorted(x + shift for x in elems)
            for coeffs in forms:
                if len(coeffs) == 3:
                    elems = elems[:10]
                assert_image_exact(coeffs, elems)
        # the gcd step sends the sets without a shifted copy to one int64 limb
        assert {terms[0].shape[0] == 1 for terms, _ in limb_folds} == {True, False}
        assert not lexsorts

    def test_hash_clashes_fall_back_to_lexsort(self, monkeypatch):
        # A zero multiplier makes the hash the low limb, so every run of
        # values sharing one clashes and goes to np.lexsort.
        monkeypatch.setattr(intsets, "_HASH_MUL", 0)
        lexsorts = spy(monkeypatch, "_lexsorted_distinct")
        rng = random.Random(41)
        for coeffs in ((1, 1), (1, -1), (2, 1), (1, 1, 1)):
            elems = [2**62 * b + i % 2 - 10**30 for i, b in enumerate(rng.sample(range(300), 12))]
            assert_image_exact(coeffs, elems)
        assert lexsorts


def pair_fold_sets():
    """(name, elements) on one int64, gcd-reduced and two- and three-limb windows.

    The tie-heavy ones: arithmetic progressions, sets with A = -A, and
    sets whose values share low limbs; a one-element set on each window.
    """
    rng = random.Random(73)
    sym = {x for x in rng.sample(range(1, 10**6), 15)}
    wide_sym = {rng.getrandbits(100) for _ in range(15)}
    return [
        ("int64", rng.sample(range(10**9), 40)),
        ("int64-ap", [5 + 7 * i for i in range(40)]),
        ("int64-symmetric", sorted(sym | {-x for x in sym} | {0})),
        ("int64-one", [-(10**9)]),
        ("gcd", [10**40 * b - 10**35 for b in rng.sample(range(0, 3000, 3), 40)]),
        ("gcd-ap", [2**100 * i + 7 for i in range(40)]),
        ("two-limb", [rng.getrandbits(100) for _ in range(40)]),
        ("two-limb-ap", [2**70 * i for i in range(39)] + [1]),  # the 1 defeats the gcd
        ("two-limb-symmetric", sorted(wide_sym | {-x for x in wide_sym})),
        ("two-limb-shared-low", [2**62 * b + i % 2 - 10**30 for i, b in enumerate(rng.sample(range(300), 30))]),
        ("two-limb-one", [2**100 + 3]),
        # low limbs that differ only in their top bits, which the packed sort key drops
        ("two-limb-top-bits", [2**60 * i for i in range(29)] + [1]),
        ("three-limb", [rng.getrandbits(125) - 2**124 for _ in range(30)]),
        ("three-limb-ap", [3**80 * i for i in range(29)] + [1]),
        ("three-limb-shared-low", [2**124 * b + i % 2 for i, b in enumerate(rng.sample(range(300), 30))]),
    ]


PAIR_COEFFS = [(c, s * c) for c in (1, -1, 2, -2, 3) for s in (1, -1)]


@pytest.mark.usefixtures("time_limit")
class TestPairFolds:
    """c*(x + y) and c*(x - y) fold each unordered pair once, against brute force."""

    @pytest.mark.parametrize("chunk", [None, 64, 256], ids=["one-block", "chunk64", "chunk256"])
    def test_matches_brute_force_and_pairs(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(intsets, "_SORT_CHUNK", chunk)
        limb_folds = spy(monkeypatch, "_limb_fold")
        for name, elems in pair_fold_sets():
            for coeffs in PAIR_COEFFS:
                assert_image_exact(coeffs, elems)
        # every window kind ran: one, two and three limbs
        assert {terms[0].shape[0] for terms, _ in limb_folds} == {1, 2, 3}

    def test_outer_sum_holds_each_unordered_pair_once(self, monkeypatch):
        distinct = spy(monkeypatch, "_distinct_columns")
        for name, elems in pair_fold_sets():
            n = len(elems)
            for coeffs in PAIR_COEFFS:
                del distinct[:]
                intsets._cardinality(LinearForm(coeffs), FiniteIntSet(elems), "merge")
                held = sum(limbs.shape[1] for limbs, *_ in distinct)
                assert held <= n * (n + 1) // 2, (name, coeffs)
                # x - y keeps the pairs with a positive value and x + y the
                # pairs i <= j, even if A = -A, where A + A = A - A
                mirrored = coeffs[0] != coeffs[1]
                assert held == (n * (n - 1) // 2 if mirrored else n * (n + 1) // 2), (name, coeffs)

    def test_differences_under_the_cap_fold_in_one_block(self, monkeypatch):
        # x - y on 2,050 int64 elements keeps 2,101,225 positive differences,
        # under _SORT_CHUNK: one staircase, one grouping and no merge.
        elems = random.Random(107).sample(range(10**9), 2050)
        terms = intsets._terms(DIFFERENCE, FiniteIntSet(elems))
        stairs, distinct = spy(monkeypatch, "_staircase"), spy(monkeypatch, "_distinct_columns")
        limbs, g = intsets._sort_fold(terms, "mirrored")
        assert len(stairs) == len(distinct) == 1 and g == 1
        assert stairs[0][0].shape[1] == 2049 and distinct[0][0].shape[1] == 2050 * 2049 // 2
        fold = brute_image(DIFFERENCE.coefficients, elems)
        assert (limbs[0] + sum(t[0] for t in terms)).tolist() == [x for x in fold if x > 0]
        assert 2 * limbs.shape[1] + 1 == len(fold)

    def test_other_forms_hold_every_tuple(self, monkeypatch):
        distinct = spy(monkeypatch, "_distinct_columns")
        elems = random.Random(79).sample(range(10**9), 30)
        for coeffs in ((2, 1), (1, 2), (3, -2)):
            del distinct[:]
            intsets._cardinality(LinearForm(coeffs), FiniteIntSet(elems), "merge")
            assert sum(limbs.shape[1] for limbs, *_ in distinct) == 30 * 30


RUN_COEFFS = [(1, 1, 1), (1, 1, 1, 1), (2, 1, 1), (1, 1, -1), (-2, -2, -2), (1, -1, 1, -1)]


def prefix(elems, n):
    """The first n - 1 elements and the last, which keeps a set's window kind (its last element defeats the gcd)."""
    return elems[:n - 1] + elems[-1:] if len(elems) > n else elems


@pytest.mark.usefixtures("time_limit")
class TestMultisetFolds:
    """A run of equal terms folds each multiset of its indices once, against brute force."""

    @pytest.mark.parametrize("chunk", [None, 64, 256], ids=["one-block", "chunk64", "chunk256"])
    def test_matches_brute_force_and_pairs_in_blocks_under_the_cap(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(intsets, "_SORT_CHUNK", chunk)
        limb_folds = spy(monkeypatch, "_limb_fold")
        blocks, real = [], intsets._staircase
        monkeypatch.setattr(intsets, "_staircase",
                            lambda acc, *args: blocks.append((acc.shape[1], *real(acc, *args))) or blocks[-1][1:])
        for name, elems in pair_fold_sets():
            for coeffs in RUN_COEFFS:
                assert_image_exact(coeffs, prefix(elems, 18 if len(coeffs) == 3 else 8))
        assert {terms[0].shape[0] for terms, _ in limb_folds} == {1, 2, 3}
        # every block of more than one row, with its J where it keeps one,
        # holds at most _SORT_CHUNK values; a longer row is a block on its
        # own (three limbs and J on 18 columns: 72 values)
        sizes = [(rows, limbs.size + (0 if js is None else js.size)) for rows, limbs, js in blocks]
        assert all(size <= intsets._SORT_CHUNK for rows, size in sizes if rows > 1)
        assert max(size for _, size in sizes) <= max(intsets._SORT_CHUNK, 4 * 18)

    @pytest.mark.parametrize("step", [1, 4], ids=["int64", "two-limb"])
    def test_sums_of_three_on_a_sidon_set_form_each_multiset_once(self, monkeypatch, step):
        # Powers of 2 have distinct pair sums, so each pair sum's least J is
        # its own larger index j, and the last stage forms sum_j (j+1)(n-j)
        # = C(n+2, 3) sums: one per multiset {i, j, l}.
        elems, n = [2 ** (step * i) for i in range(30)], 30
        distinct = spy(monkeypatch, "_distinct_columns")
        limb_folds = spy(monkeypatch, "_limb_fold")
        count = intsets._cardinality(LinearForm((1, 1, 1)), FiniteIntSet(elems), "merge")
        assert count == len(brute_image((1, 1, 1), elems))
        assert limb_folds[0][0][0].shape[0] == (1 if step == 1 else 2)
        pair_stage = [args for args in distinct if args[1] is not None]
        last_stage = [args for args in distinct if args[1] is None]
        assert sum(args[0].shape[1] for args in pair_stage) == n * (n + 1) // 2
        assert sum(args[0].shape[1] for args in last_stage) == math.comb(n + 2, 3)

    @pytest.mark.parametrize("chunk", [None, 64], ids=["one-block", "chunk64"])
    def test_each_pair_sum_carries_its_least_last_index(self, monkeypatch, chunk):
        # On a dense set most pair sums have several representations i <= j;
        # the stage before the third term keeps the least j of each, ordered.
        if chunk is not None:
            monkeypatch.setattr(intsets, "_SORT_CHUNK", chunk)
        elems = sorted(random.Random(97).sample(range(1, 80), 30) + [0])
        results, real = [], intsets._distinct_columns
        monkeypatch.setattr(intsets, "_distinct_columns",
                            lambda limbs, *args: results.append(real(limbs, *args)) or results[-1])
        intsets._cardinality(LinearForm((1, 1, 1)), FiniteIntSet(elems), "merge")
        limbs, js = [r for r in results if r[1] is not None][-1]  # the stage's last merge
        least = {}
        for j, y in enumerate(elems):
            for x in elems[:j + 1]:
                least.setdefault(x + y, j)
        assert dict(zip(limbs[0].tolist(), js.tolist())) == least
        assert (np.diff(js) >= 0).all()

    def test_clashing_runs_keep_each_values_least_last_index(self, monkeypatch):
        # A zero multiplier hashes two-limb pair sums by their low limb, which
        # few values share, so their runs clash; the lexsort keeps each
        # value's least j too, ordered.  The J itself is checked: here a
        # larger one still reaches every sum of three.
        monkeypatch.setattr(intsets, "_HASH_MUL", 0)
        lexsorts = spy(monkeypatch, "_lexsorted_distinct")
        results, real = [], intsets._distinct_columns
        monkeypatch.setattr(intsets, "_distinct_columns", lambda *args: results.append(real(*args)) or results[-1])
        elems = sorted(2**62 * b + i % 2 for i, b in enumerate(random.Random(103).sample(range(40), 16)))
        intsets._cardinality(LinearForm((1, 1, 1)), FiniteIntSet(elems), "merge")
        limbs, js = [r for r in results if r[1] is not None][-1]
        assert any(js is not None for _, js in lexsorts) and limbs.shape[0] == 2
        least = {}
        for j, y in enumerate(elems):
            for x in elems[:j + 1]:
                least.setdefault(x + y - 2 * elems[0], j)
        assert dict(zip((hi << 62 | lo for lo, hi in zip(*limbs.tolist())), js.tolist())) == least
        assert (np.diff(js) >= 0).all()

    @given(kind=st.sampled_from(["one-limb", "gcd", "two-limb", "three-limb"]),
           base=st.lists(st.integers(0, 60), min_size=1, max_size=10, unique=True),
           coeffs=st.sampled_from([(1, 1, 1), (2, 1, 1), (1, 1), (-3, -3), (1, -1), (-2, 2)]),
           chunk=st.sampled_from([16, 64, 256]), hash_mul=st.sampled_from([intsets._HASH_MUL, 0]))
    @settings(max_examples=100, deadline=None)
    def test_random_sets_match_python_fold_in_any_blocks(self, kind, base, coeffs, chunk, hash_mul):
        # Small bases put many sums on one value; the two- and three-limb
        # sets share low limbs, and their odd elements defeat the gcd.  A
        # zero multiplier hashes wide columns by their low limb alone, so
        # their runs clash and are lexsorted, J and all.
        elems = {"one-limb": base, "gcd": [10**40 * b - 10**35 for b in base],
                 "two-limb": [2**62 * b + i % 2 - 10**30 for i, b in enumerate(base)],
                 "three-limb": [2**124 * b + i % 2 for i, b in enumerate(base)]}[kind]
        f, a = LinearForm(coeffs), FiniteIntSet(elems)
        expected = brute_image(coeffs, elems)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(intsets, "_SORT_CHUNK", chunk)
            patch.setattr(intsets, "_HASH_MUL", hash_mul)
            assert list(intsets._image(f, a, "merge")) == expected
            assert intsets._cardinality(f, a, "merge") == len(expected)

    def test_one_limb_sums_with_no_room_for_j_group_by_hash(self, monkeypatch):
        # Sums near 2**62 fill one int64, leaving no room to pack J beside
        # them; the stages that keep J group one limb by hash, as they do
        # wider ones.
        distinct = spy(monkeypatch, "_distinct_columns")
        elems = [0, 1] + random.Random(101).sample(range(2, 1 << 61), 16)
        for coeffs in ((1, 1, 1), (1, 1, 1, 1)):
            del distinct[:]
            assert_image_exact(coeffs, elems)
            tracked = [(limbs, js) for limbs, js, *_ in distinct if js is not None]
            assert tracked and all(len(limbs) == 1 for limbs, _ in tracked)
            assert any(limbs.max() >> (63 - int(js.max()).bit_length()) for limbs, js in tracked)

    def test_equal_terms_fold_as_one_run_wherever_they_stand(self, monkeypatch):
        distinct = spy(monkeypatch, "_distinct_columns")
        elems = random.Random(89).sample(range(10**9), 20)
        held = {}
        for coeffs in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
            del distinct[:]
            intsets._cardinality(LinearForm(coeffs), FiniteIntSet(elems), "merge")
            held[coeffs] = sum(args[0].shape[1] for args in distinct)
        # x+y+2z and x+2y+z fold A, A, 2A: 210 pairs, then 210 * 20 sums.
        # 2x+y+z folds 2A, A, A: 400 sums 2a + b, then the c at or after b.
        assert held[(1, 1, 2)] == held[(1, 2, 1)] == 210 + 210 * 20
        assert held[(2, 1, 1)] == 400 + 20 * 210


def word_pair_sets():
    """(name, elements) whose pair folds the word kernel runs across word edges.

    Offsets 0, 63, 64, 65 from each end, on spans = 0 and 63 mod 64; a set
    with A = -A, for which x + y is also a mirrored pair; one far from 0.
    """
    rng = random.Random(83)
    edges = [0, 63, 64, 65]
    sets = []
    for span in (1 << 20, (1 << 20) + 63):
        sets.append((f"span-mod64-{span % 64}",
                     edges + [span - e for e in edges] + rng.sample(range(66, span - 65), 40)))
    half = rng.sample(range(1, 1 << 19), 24)
    sets.append(("symmetric", sorted({0, *half, *(-x for x in half)})))
    sets.append(("far", [10**40 + x for x in rng.sample(range(1 << 20), 48)]))
    return sets


WORD_PAIR_COEFFS = [(c, s * c) for c in (1, 3, -1, -3) for s in (1, -1)]


@pytest.mark.usefixtures("time_limit")
class TestWordPairFolds:
    """The word kernel folds c*(x + y) and c*(x - y) on unordered pairs, against brute force."""

    def test_images_match_pairs_and_big_int(self, monkeypatch):
        word_folds = spy(monkeypatch, "_word_fold")
        for name, elems in word_pair_sets():
            a = FiniteIntSet(elems)
            for coeffs in WORD_PAIR_COEFFS:
                f = LinearForm(coeffs)
                terms = intsets._terms(f, a)
                del word_folds[:]
                mask = intsets._word_fold(terms, intsets._pair_fold(coeffs))
                assert mask == intsets._big_int_fold(terms), (name, coeffs)
                expected = tuple(brute_image(coeffs, elems))
                assert intsets._image(f, a, "word").elements == expected, (name, coeffs)
                assert intsets._cardinality(f, a, "word") == len(expected), (name, coeffs)
                assert len(word_folds) == 3

    def test_sumsets_of_a_set_with_itself_and_its_reflection(self, monkeypatch):
        # A + A and A - A on A and on its reflection -A: -A + -A = -(A + A),
        # and -A - -A = A - A.
        word_folds = spy(monkeypatch, "_word_fold")
        for name, elems in word_pair_sets():
            a = FiniteIntSet(elems)
            for f in (SUM, DIFFERENCE):
                expected = FiniteIntSet(brute_image(f.coefficients, elems))
                assert intsets._image(f, a, "word") == expected, (name, f)
                reflected = intsets._image(f, a.reflect(), "word")
                assert reflected == (expected.reflect() if f == SUM else expected), (name, f)
        assert len(word_folds) == 4 * len(word_pair_sets())


@functools.cache
def qr_set():
    """The 39,312-element rectified CRT set of the quadratic residues mod 13, 29, 37 and 53."""
    return rectify(crt_product([ResidueSet(p, {x * x % p for x in range(1, p)}) for p in (13, 29, 37, 53)]), 1)


@functools.cache
def cube_set():
    """The 1,088-element rectified CRT set of the cubes mod 97 and 103."""
    return rectify(crt_product([ResidueSet(p, {pow(x, 3, p) for x in range(1, p)}) for p in (97, 103)]), 1)


@functools.cache
def packaged_set():
    """The 2,646-element rectified CRT set of the packaged 2x+y locals."""
    return rectify(crt_product(packaged_locals()), 1)


class TestWordSkip:
    """The word kernel ORs its first shifts over whole ranges, as many as hold
    16 elements per set bit of the accumulator, then ORs only into open runs,
    words below their ceiling (all ones but where f(A mod m) misses a class,
    m <= 64), looking again before the 1st, 2nd, 4th, ... shift after that."""

    ONES = 2**64 - 1

    @pytest.mark.parametrize(("words", "first", "gap", "runs"), [
        ([ONES] * 5, 0, 3, []),
        ([0, ONES, ONES, ONES, ONES, 5], 0, 3, [(0, 1), (5, 6)]),  # holes at both ends
        ([0, ONES, ONES, 7, ONES], 0, 3, [(0, 4)]),  # a full gap of 2 < 3 is joined
        ([0, ONES, ONES, 7, ONES], 0, 2, [(0, 1), (3, 4)]),
        ([0, 0, ONES, 7, 0], 2, 9, [(3, 5)]),  # words below first are not looked at
        ([0, ONES, ONES, 0], 0, 4, [(0, 4)]),  # both ends open, every gap shorter: one run
        ([0, ONES, ONES, 0], 0, 2, [(0, 1), (3, 4)]),
    ])
    def test_open_runs(self, words, first, gap, runs):
        assert intsets._open_runs(np.array(words, np.uint64), first, gap, intsets._ceiling(len(words), [])) == runs

    @pytest.mark.parametrize(("words", "ceiling", "first", "gap", "runs"), [
        ([5, 7, 0, 5], [5, 7, 1, 5], 0, 1, [(2, 3)]),  # words equal to their ceiling are closed
        ([ONES, 3, 3, 6], [ONES, 3, 7, 7], 0, 1, [(2, 4)]),
        ([1, 3, 1, 3, 1], [1, 7, 1, 7, 1], 0, 2, [(1, 4)]),  # a closed gap of 1 < 2 is joined
        ([0, 3, 1, 3], [1, 7, 1, 3], 1, 9, [(1, 2)]),  # words below first are not looked at
    ])
    def test_open_runs_against_a_ceiling(self, words, ceiling, first, gap, runs):
        assert intsets._open_runs(np.array(words, np.uint64), first, gap, np.array(ceiling, np.uint64)) == runs

    @pytest.mark.parametrize(("images", "words"), [
        ([], [ONES] * 3),
        ([(64, 1 << 63 | 5)], [1 << 63 | 5] * 3),
        ([(3, 0b001)], [0x9249249249249249, 0x4924924924924924, 0x2492492492492492]),  # bit p for p = 0 mod 3
        ([(3, 0b011), (64, ONES - 1)], [0xB6DB6DB6DB6DB6DA, 0xDB6DB6DB6DB6DB6C, 0x6DB6DB6DB6DB6DB6]),
    ])
    def test_ceiling_is_the_and_of_periodic_lifts(self, images, words):
        assert intsets._ceiling(3, images).tolist() == words

    @staticmethod
    def spy_runs(monkeypatch):
        """Wrap intsets._open_runs; returns the list of (output length, runs) per call."""
        calls, real = [], intsets._open_runs
        monkeypatch.setattr(intsets, "_open_runs",
                            lambda words, *args: calls.append((len(words), real(words, *args))) or calls[-1][1])
        return calls

    @staticmethod
    def last_look(calls):
        """The last (output length, runs) of one stage's looks, after checking
        that each look's runs lie inside the runs of the look before."""
        assert calls
        for (_, before), (_, after) in zip(calls, calls[1:]):
            assert all(any(a <= start and stop <= b for a, b in before) for start, stop in after), (before, after)
        return calls[-1]

    @pytest.mark.usefixtures("time_limit")
    def test_dense_sums_and_differences_skip_their_full_middle(self, monkeypatch):
        # x+y and x-y of the QR set miss only sums near the ends of the window,
        # so the open runs shrink look by look, to 1.9% and 1.1% of the
        # output words.
        calls = self.spy_runs(monkeypatch)
        for coeffs in ((1, 1), (1, -1)):
            terms = intsets._terms(LinearForm(coeffs), qr_set())
            del calls[:]
            assert intsets._word_fold(terms, intsets._pair_fold(coeffs)) == intsets._big_int_fold(terms)
            length, runs = self.last_look(calls)
            assert 0 < sum(stop - start for start, stop in runs) < length / 8, coeffs

    def test_differences_look_only_from_the_first_word_a_copy_reaches(self, monkeypatch):
        # x-y of [0, 4096) fills all but its top word.  No copy reaches the words
        # below (span - 63) // 64 = 63; joined to the top word, they would make
        # the fold OR whole ranges.
        calls = self.spy_runs(monkeypatch)
        terms = intsets._terms(LinearForm((1, -1)), FiniteIntSet(range(4096)))
        assert intsets._word_fold(terms, "mirrored") == intsets._big_int_fold(terms)
        assert self.last_look(calls) == (128, [(127, 128)])
        assert all(length == 128 and runs[0][0] >= 63 for length, runs in calls)

    @pytest.mark.usefixtures("time_limit")
    def test_images_with_holes_everywhere_close_against_their_ceiling(self, monkeypatch):
        # 2x+y and 2x-y of the QR set miss a class mod 13, 29, 37 or 53, so no
        # output word is ever all ones; against the lift of those classes, all
        # but a few words close, and the runs shrink look by look.
        calls = self.spy_runs(monkeypatch)
        for coeffs in ((2, 1), (2, -1)):
            terms = intsets._terms(LinearForm(coeffs), qr_set())
            del calls[:]
            assert intsets._word_fold(terms, None) == intsets._big_int_fold(terms)
            length, runs = self.last_look(calls)
            assert 0 < sum(stop - start for start, stop in runs) < length / 8, coeffs

    def test_a_first_pass_that_closes_every_word_ends_the_stage(self, monkeypatch):
        # 2x+y of the multiples of 27 up to 27*3496: every sum is 0 mod 27, so
        # the ceiling is the lift of class 0 mod 27.  A first pass of the
        # shifts 0, 32, 16 and 48 of 2A (the 438 of its 3,497 elements 27*2j
        # with j = 0 mod 8) reaches every multiple of 27 up to the top sum; the
        # 23 bits above it hold none.  The one look finds no open word, so no
        # later shift is looked at or ORed.
        TestWordCeiling.join_no_runs(monkeypatch)  # the stage is shorter than 64 join gaps: no ceiling otherwise
        calls = self.spy_runs(monkeypatch)
        terms, offsets = fold_terms((2, 1), range(0, 27 * 3497, 27))
        assert intsets._stage_ceilings(offsets, 1.0) == [[(27, 1)]]
        assert intsets._word_fold(terms, None) == intsets._big_int_fold(terms)
        assert calls == [(4425, [])]

    def test_a_first_pass_can_take_every_shift(self, monkeypatch):
        # 350 elements of [0, 10_000): the stage is searched (more than 4
        # tuples per bit of its span) but holds fewer than 16 elements per set
        # bit of the accumulator, about 457, so the first pass ORs every shift
        # over whole ranges and never looks for closed words.
        calls = self.spy_runs(monkeypatch)
        elems = random.Random(7).sample(range(10_000), 350)
        for coeffs in ((2, 1), (1, 1), (1, -1)):
            terms, offsets = fold_terms(coeffs, elems)
            assert intsets._stage_ceilings(offsets, 5_000.0) == [[]], coeffs
            assert intsets._word_fold(terms, intsets._pair_fold(coeffs)) == intsets._big_int_fold(terms), coeffs
        assert calls == []

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize(("name", "coeffs", "count"), [
        ("qr", (2, 1), 1_886_562), ("qr", (1, 1), 1_477_677), ("qr", (1, -1), 1_477_677),
        ("cubes", (2, 1), 29_114), ("cubes", (1, 1), 19_725), ("cubes", (1, -1), 19_725),
        ("packaged", (2, 1), 108_014), ("packaged", (1, 1), 114_575),
    ])
    def test_dense_construct_counts(self, name, coeffs, count):
        # The image counts of the sets that perfbench's dense-construct workload
        # materialises, on the word kernel whatever auto picks.
        a = {"qr": qr_set, "cubes": cube_set, "packaged": packaged_set}[name]()
        assert intsets._cardinality(LinearForm(coeffs), a, "word") == count


def ceiling_sets(count):
    """count sets whose word folds close against ceilings: random dense sets,
    and CRT lifts of intervals, squares and random classes at coprime moduli
    up to 64 (product at most 4,000), some far from 0."""
    rng = random.Random(101)
    sets = []
    for i in range(count):
        if i % 3 == 0:
            span = rng.randint(100, 3000)
            sets.append(rng.sample(range(span), rng.randint(span // 8, span // 2)))
            continue
        local, product = [], 1
        for group in rng.sample([(4, 8, 16, 32, 64), (3, 9, 27), (5, 25), (7, 49), (11, 13, 17, 19, 23)], 3):
            m = rng.choice(group)
            if product * m > 4000:
                continue
            kind = rng.choice(("interval", "squares", "random"))
            classes = (range(rng.randint(1, m // 2 + 1)) if kind == "interval" else
                       {x * x % m for x in range(m)} if kind == "squares" else rng.sample(range(m), rng.randint(1, m // 2 + 1)))
            local.append(ResidueSet(m, classes))
            product *= m
        sets.append(rectify(crt_product(local), rng.choice((0, 1, -10**40))).elements)
    return sets


CEILING_FORMS = [(1, 1), (1, -1), (-1, -1), (2, 1), (2, -1), (-3, 1), (1, 1, 1), (1, -2, 1), (2, -1, -1)]


def fold_terms(coeffs, elems):
    """The form's terms in _word_fold's order, narrowest first, and their int64 offsets."""
    terms = sorted(intsets._terms(LinearForm(coeffs), FiniteIntSet(elems)), key=lambda t: t[-1] - t[0])
    return terms, [intsets._limbs(t, 1)[0] for t in terms]


@pytest.mark.usefixtures("time_limit")
class TestWordCeiling:
    """The word fold closes a word once it equals its ceiling, the AND of the
    lifts of f(A mod m) for m <= 64; every sum lies in it, so no bit is lost."""

    @staticmethod
    def join_no_runs(monkeypatch):
        """Price an element at one word, so that _open_runs joins no runs and
        every closed word is skipped: a ceiling below f(A) then loses bits even
        on outputs shorter than the usual join gap of about 5,000 words."""
        monkeypatch.setitem(intsets._KERNEL_NS, "word", (1.0, 1.0, intsets._KERNEL_NS["word"][2]))

    @pytest.mark.parametrize("join", ["priced", "none"])
    def test_word_fold_matches_big_int_on_random_sets_and_crt_lifts(self, monkeypatch, join):
        if join == "none":
            self.join_no_runs(monkeypatch)
        closing = 0
        for i, elems in enumerate(ceiling_sets(300)):
            coeffs = CEILING_FORMS[i % len(CEILING_FORMS)]
            terms, offsets = fold_terms(coeffs, elems)
            assert intsets._word_fold(terms, intsets._pair_fold(coeffs)) == intsets._big_int_fold(terms), (i, coeffs)
            closing += any(intsets._stage_ceilings(offsets, 0.0))  # a searched stage below all ones
        assert closing >= 40

    def test_big_int_mask_lies_in_every_stage_ceiling(self):
        checked = 0
        for i, elems in enumerate(ceiling_sets(150)):
            terms, offsets = fold_terms(CEILING_FORMS[i % len(CEILING_FORMS)], elems)
            for k, images in enumerate(intsets._stage_ceilings(offsets, 0.0), 2):
                mask = intsets._big_int_fold(terms[:k])
                ceiling = intsets._ceiling(mask.bit_length() // 64 + 1, images or [])
                assert mask & ~int.from_bytes(ceiling.astype("<u8").tobytes(), "little") == 0, (i, k)
                checked += bool(images)
        assert checked >= 20

    def test_a_prefix_in_one_class_does_not_stand_for_the_whole_set(self, monkeypatch):
        self.join_no_runs(monkeypatch)
        # The first offsets all lie in 7Z, so mod 49 their sums miss 42 classes;
        # six elements after them reach the other classes mod 7, and their sums
        # fall in words that 7Z alone would fill: the ceiling must read them.
        elems = [7 * i for i in range(300)] + list(range(2101, 2107))
        for coeffs in ((2, 1), (1, 1), (1, 1, 1)):
            _, offsets = fold_terms(coeffs, elems)
            assert {int(x) % 7 for x in offsets[0][:intsets._RESIDUE_PREFIX]} == {0}
            f, a = LinearForm(coeffs), FiniteIntSet(elems)
            assert intsets._cardinality(f, a, "word") == intsets._cardinality(f, a, "big-int"), coeffs

    def test_a_lift_far_from_zero_counts_as_at_zero(self):
        # A narrow span on a huge base: the residues are the offsets', not the
        # elements'.  TestWordSkip checks the unshifted counts against big ints.
        shifted = FiniteIntSet(10**40 + x for x in qr_set())
        for coeffs in ((2, 1), (2, -1), (1, -1)):
            f = LinearForm(coeffs)
            assert intsets._cardinality(f, shifted, "word") == intsets._cardinality(f, qr_set(), "word"), coeffs


class TestNormalization:
    def test_already_normalized(self):
        assert normalize_form(LinearForm((2, 1))) == LinearForm((2, 1))

    def test_gcd_then_swap(self):
        assert normalize_form(LinearForm((-4, 6))) == LinearForm((3, -2))

    def test_difference_form_is_normalized(self):
        assert normalize_form(LinearForm((1, -1))) == LinearForm((1, -1))

    def test_negation(self):
        assert normalize_form(LinearForm((-1, -1))) == LinearForm((1, 1))

    @pytest.mark.parametrize("coeffs", [(-4, 6), (6, -4), (-1, 1), (5, 10), (-3, -9)])
    def test_preserves_image_cardinality(self, coeffs):
        rng = random.Random(sum(coeffs))
        form = LinearForm(coeffs)
        normalized = normalize_form(form)
        assert normalized.is_normalized
        for _ in range(20):
            a = FiniteIntSet(rng.sample(range(-100, 100), rng.randint(1, 10)))
            assert image_cardinality(form, a) == image_cardinality(normalized, a)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            normalize_form(LinearForm((1, 2, 3)))


def check_trusted_constructions(monkeypatch):
    """Make FiniteIntSet._from_sorted also build each set with the checking constructor and compare."""
    trusted = FiniteIntSet._from_sorted.__func__

    def checked(cls, elements):
        made = trusted(cls, elements)
        assert made == FiniteIntSet(elements), elements
        return made

    monkeypatch.setattr(FiniteIntSet, "_from_sorted", classmethod(checked))


class TestTrustedConstructors:
    def test_reflect_matches_the_checking_constructor(self, monkeypatch):
        check_trusted_constructions(monkeypatch)
        rng = random.Random(89)
        for _ in range(300):
            elems = rng.sample(range(-10**6, 10**6), rng.randint(1, 40)) + [rng.getrandbits(100)]
            a = FiniteIntSet(elems)
            assert a.reflect() == FiniteIntSet(-x for x in elems)
            assert a.reflect().reflect() == a

    def test_affine_canonical_matches_the_checking_constructor(self, monkeypatch):
        check_trusted_constructions(monkeypatch)
        rng = random.Random(97)
        for _ in range(300):
            scale, shift = rng.randint(1, 10**12), rng.randint(-10**30, 10**30)
            elems = [shift + scale * x for x in rng.sample(range(-500, 500), rng.randint(2, 40))]
            lo, g = min(elems), math.gcd(*(x - min(elems) for x in elems))
            assert affine_canonical(elems) == FiniteIntSet((x - lo) // g for x in elems)


class TestAutoPicks:
    """auto's kernel on fixed sets, from the cost model fitted on tools/kernel_grid.py's grid."""

    def test_dense_construction_sets_stay_on_the_word_kernel(self):
        for a in (qr_set(), packaged_set()):
            for coeffs in ((2, 1), (1, 1), (1, -1)):
                assert intsets._plan(coeffs, a) == "word", (len(a), coeffs)

    @pytest.mark.parametrize(("f", "g", "elems", "picks"), [
        ((1, 1), (1, -1), MSTD.elements, ("big-int", "big-int")),  # 64 elements
        ((5, 3), (1, 1), (-34, -9, 19), ("merge", "merge")),
        ((3, 1), (1, -1), (-27, -9, 8, 20, 29, 33), ("merge", "merge")),
        ((3, 1), (1, 1), (-31, -24, -23, -20, -17, -5, 9, 12, 16), ("merge", "merge")),
    ])
    def test_amplified_sets(self, f, g, elems, picks):
        _, big = amplify(LinearForm(f), LinearForm(g), elems)
        assert tuple(intsets._plan(c, big) for c in (f, g)) == picks


class TestAffineCanonical:
    def test_example(self):
        assert affine_canonical([4, 6, 10]).elements == (0, 1, 3)

    def test_two_element_sets(self):
        for a, b in ((0, 1), (5, 9), (-3, 14)):
            assert affine_canonical([a, b]).elements == (0, 1)

    def test_rejects_small_sets(self):
        with pytest.raises(ValueError):
            affine_canonical([7])

    @pytest.mark.parametrize("u,v", [(3, 1), (5, 2), (7, 4)])
    def test_reflected_family_pairs(self, u, v):
        # {0, v, u} and {0, u-v, u} are reflections of each other
        assert canonical_pair([0, v, u]) == canonical_pair([0, u - v, u])

    @given(a=small_sets.filter(lambda s: len(s) >= 2),
           scale=nonzero, shift=st.integers(-1000, 1000))
    @settings(max_examples=100, deadline=None)
    def test_canonical_invariant_under_integer_affine_maps(self, a, scale, shift):
        b = FiniteIntSet(scale * x + shift for x in a)
        assert canonical_pair(a) == canonical_pair(b)

    def test_invariant_under_rational_scaling(self):
        a = FiniteIntSet([0, 6, 15])
        b = FiniteIntSet([0, 2, 5])  # a scaled by 1/3
        assert canonical_pair(a) == canonical_pair(b)

    @given(a=small_sets.filter(lambda s: len(s) >= 2),
           scale=nonzero, shift=st.integers(-100, 100), f=binary_forms)
    @settings(max_examples=100, deadline=None)
    def test_affine_maps_preserve_image_cardinality(self, a, scale, shift, f):
        b = FiniteIntSet(scale * x + shift for x in a)
        assert image_cardinality(f, a) == image_cardinality(f, b)


class TestAmplify:
    def test_squares_the_mstd_gap(self):
        big_m, amplified = amplify(SUM, DIFFERENCE, MSTD)
        assert big_m == 2 * 28 + 1  # max |value| over A, A+A, A-A is 28
        assert len(amplified) == 64
        assert image_cardinality(SUM, amplified) == 26**2 == 676
        assert image_cardinality(DIFFERENCE, amplified) == 25**2 == 625

    def test_two_element_set(self):
        _, amplified = amplify(SUM, DIFFERENCE, [0, 1])
        assert len(amplified) == 4

    def test_iteration_squares_the_ratio(self):
        f, g = LinearForm((2, 1)), SUM
        a = FiniteIntSet([0, 1, 3])
        ratio = Fraction(image_cardinality(f, a), image_cardinality(g, a))
        for _ in range(2):
            _, a = amplify(f, g, a)
            new_ratio = Fraction(image_cardinality(f, a), image_cardinality(g, a))
            assert new_ratio == ratio * ratio
            ratio = new_ratio

    @given(a=st.lists(st.integers(-30, 30), min_size=1, max_size=8).map(FiniteIntSet),
           f=binary_forms, g=binary_forms)
    @settings(max_examples=50, deadline=None)
    def test_squares_all_three_cardinalities(self, a, f, g):
        fa, ga = image_cardinality(f, a), image_cardinality(g, a)
        _, amplified = amplify(f, g, a)
        assert len(amplified) == len(a) ** 2
        assert image_cardinality(f, amplified) == fa * fa
        assert image_cardinality(g, amplified) == ga * ga

    def test_modulus_from_the_image_extremes_matches_the_images(self):
        rng = random.Random(79)
        for _ in range(300):
            k = rng.randint(1, 3)
            f, g = (LinearForm([rng.choice([c for c in range(-9, 10) if c]) for _ in range(k)])
                    for _ in range(2))
            top = 10 ** rng.choice([1, 3, 30])
            a = FiniteIntSet(rng.randrange(-top, top) for _ in range(rng.randint(1, 6)))
            largest = max(abs(x) for s in (a, image(f, a), image(g, a)) for x in s)
            assert amplify(f, g, a)[0] == 2 * largest + 1

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            amplify(SUM, LinearForm((1, 1, 1)), [0, 1])

    def test_matches_the_sumset_reference(self):
        # A_M is built directly; A + M*A, the image of x + M*y, is the reference.
        rng = random.Random(83)
        for _ in range(300):
            k = rng.randint(1, 3)
            f, g = (LinearForm([rng.choice([c for c in range(-9, 10) if c]) for _ in range(k)])
                    for _ in range(2))
            top = 10 ** rng.choice([1, 3, 30])
            a = FiniteIntSet(rng.randrange(-top, top) for _ in range(rng.randint(1, 12)))
            big_m, amplified = amplify(f, g, a)
            assert amplified == image(LinearForm((1, big_m)), a)


class TestSerialization:
    def test_text_round_trip(self):
        a = FiniteIntSet([-(10**40), 0, 7, 10**39])
        assert set_from_text(set_to_text(a)) == a

    def test_text_comments_and_blanks(self):
        text = "# heading\n\n3\n 1  # trailing note\n\n2\n"
        assert set_from_text(text).elements == (1, 2, 3)

    def test_text_error_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            set_from_text("1\nx\n")

    def test_json_round_trip(self):
        a = FiniteIntSet([2**100, -5, 0])
        assert set_from_json(json.dumps([2**100, -5, 0])) == a

    def test_json_rejects_non_arrays(self):
        with pytest.raises(ValueError):
            set_from_json('{"a": 1}')

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "\n  \n# one\n   # two\n"])
    def test_text_without_integers_rejected(self, text):
        with pytest.raises(ValueError, match="^a set needs at least one element$"):
            set_from_text(text)

    def test_json_empty_array_rejected(self):
        with pytest.raises(ValueError, match="^a set needs at least one element$"):
            set_from_json("[]")
