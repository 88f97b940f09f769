"""Tests for residue-ring images, CRT products, rectification, and the builder."""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

import numpy as np

from conftest import brute_modular_image
from linform import cli, modular, verify
from linform.intsets import DIFFERENCE, SUM, FiniteIntSet, LinearForm, image, image_cardinality
from linform.modular import (
    ConstructionReport,
    LocalSolution,
    ResidueSet,
    build_separating_set,
    crt_product,
    load_locals,
    local_ratio_search,
    local_solution,
    modular_image,
    modular_image_cardinality,
    rectify,
)

F21 = LinearForm((2, 1))

HAND_PICKED = [
    ResidueSet(13, [0, 1, 6, 7, 9, 11]),
    ResidueSet(15, [0, 1, 5, 6, 10, 11, 13]),
    ResidueSet(16, [0, 1, 3, 5, 7, 9, 11, 13, 15]),
    ResidueSet(19, [0, 1, 11, 12, 14, 16, 18]),
]


def hand_picked_locals(form_g=SUM):
    return [local_solution(F21, form_g, r) for r in HAND_PICKED]


class TestResidueSet:
    def test_normalizes(self):
        r = ResidueSet(7, [9, 2, 2, -1])
        assert r.classes == (2, 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidueSet(1, [0])
        with pytest.raises(ValueError):
            ResidueSet(5, [])

    def test_full_ring(self):
        assert ResidueSet.full_ring(4).classes == (0, 1, 2, 3)
        assert ResidueSet.full_ring(4).is_full()

    def test_dict_round_trip(self):
        r = ResidueSet(16, [0, 1, 3])
        assert ResidueSet.from_dict(r.to_dict()) == r

    @pytest.mark.parametrize("bad", [13.0, 13.9, True, np.int64(13), "13"],
                             ids=["integral-float", "float", "bool", "numpy-int64", "str"])
    def test_rejects_non_integer_modulus(self, bad):
        with pytest.raises(ValueError) as exc:
            ResidueSet(bad, [0, 1])
        assert str(exc.value) == f"moduli and classes must be integers, got {bad!r}"

    @pytest.mark.parametrize("bad", [1.0, 1.9, True, np.int64(1), "1"],
                             ids=["integral-float", "float", "bool", "numpy-int64", "str"])
    def test_rejects_non_integer_class(self, bad):
        with pytest.raises(ValueError) as exc:
            ResidueSet(13, [0, bad])
        assert str(exc.value) == f"moduli and classes must be integers, got {bad!r}"

    def test_from_dict_does_not_coerce(self):
        with pytest.raises(ValueError, match="got 13.9"):
            ResidueSet.from_dict({"modulus": 13.9, "classes": [0.2, 1.9]})
        with pytest.raises(ValueError, match="got 0.2"):
            ResidueSet.from_dict({"modulus": 13, "classes": [0.2, 1.9]})

    def test_generator_classes_read_once(self):
        assert ResidueSet(7, (c for c in [9, 2, 2, -1])).classes == (2, 6)


class TestModularImage:
    def test_hand_picked_13(self):
        im = modular_image(F21, ResidueSet(13, [0, 1, 6, 7, 9, 11]))
        assert len(im) == 12
        assert 4 not in im.classes

    def test_sum_covers_13(self):
        assert modular_image(SUM, ResidueSet(13, [0, 1, 6, 7, 9, 11])).is_full()

    def test_full_ring_stays_full(self):
        for m in (4, 9, 12):
            assert modular_image(SUM, ResidueSet.full_ring(m)).is_full()

    def test_matches_brute_force(self, monkeypatch):
        # Once on the FFT fold (crossover 0) and once on shift-or (infinite).
        for crossover in (0, math.inf):
            monkeypatch.setattr(modular, "_FFT_CROSSOVER", crossover)
            rng = random.Random(17)
            for _ in range(60):
                m = rng.randint(2, 40)
                classes = rng.sample(range(m), rng.randint(1, m))
                coeffs = tuple(rng.choice([c for c in range(-7, 8) if c])
                               for _ in range(rng.randint(1, 3)))
                got = modular_image(LinearForm(coeffs), ResidueSet(m, classes))
                assert list(got.classes) == brute_modular_image(coeffs, m, classes), crossover

    def test_cardinality_matches_image_on_200_random_instances(self):
        rng = random.Random(200)
        for _ in range(200):
            m = rng.randint(2, 60)
            r = ResidueSet(m, rng.sample(range(m), rng.randint(1, m)))
            coeffs = tuple(rng.choice([c for c in range(-9, 10) if c]) for _ in range(rng.randint(1, 3)))
            f = LinearForm(coeffs)
            assert modular_image_cardinality(f, r) == len(modular_image(f, r)), (m, r.classes, coeffs)

    def test_fft_fold_matches_shift_or_above_the_crossover(self, monkeypatch):
        rng = random.Random(576)
        cases = [(ResidueSet(m, rng.sample(range(m), rng.randint(m // 2, m))), coeffs)
                 for m, coeffs in ((577, (2, 1)), (1024, (1, -1)), (1000, (3, 1)), (2310, (5, -3)),
                                   (4099, (1, 1)), (600, (2, 1, 1)), (1201, (3, -2, 5)),
                                   (999, (4, 6, -9)), (700, (7,)))]
        # quadratic residues mod 1009 and 2x+y, the shape qr_local_solutions folds
        cases.append((ResidueSet(1009, {x * x for x in range(1, 1009)}), (2, 1)))
        # a coefficient whose product with a class overflows int64 unless reduced mod m first
        cases.append((ResidueSet(1500, range(0, 1500, 3)), (10**17 + 3, -1)))
        calls = []
        real = modular._fft_image_mask
        monkeypatch.setattr(modular, "_fft_image_mask", lambda *a: calls.append(a) or real(*a))
        got = [modular_image(LinearForm(coeffs), r).classes for r, coeffs in cases]
        assert len(calls) == len(cases)
        monkeypatch.setattr(modular, "_FFT_CROSSOVER", math.inf)
        expected = [modular_image(LinearForm(coeffs), r).classes for r, coeffs in cases]
        assert len(calls) == len(cases)
        assert got == expected
        r, coeffs = cases[5]  # arity 3, also against enumeration of the 2-term image
        two = modular_image(LinearForm(coeffs[:2]), r).classes
        assert list(got[5]) == sorted({(x + coeffs[2] * c) % 600 for x in two for c in r.classes})

    def test_modulus_above_the_fft_cap_folds_by_shift_or(self, monkeypatch):
        r = ResidueSet(2000, range(0, 2000, 2))
        expected = modular_image(F21, r).classes
        monkeypatch.setattr(modular, "_FFT_MODULUS_CAP", 1999)
        monkeypatch.setattr(modular, "_fft_image_mask", None)
        assert modular_image(F21, r).classes == expected

    def test_cyclic_counts_match_bincount(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 7, 64, 1000, 4097):
            x = rng.random(m) < 0.5
            y = rng.random(m) < 0.3
            i, j = np.flatnonzero(x), np.flatnonzero(y)
            expected = np.bincount(((i[:, None] + j) % m).ravel(), minlength=m)
            squares = np.bincount(((i[:, None] + i) % m).ravel(), minlength=m)
            xy, xx = modular._representation_counts(x, [y, x])
            (yx,) = modular._representation_counts(y, [x])
            (xx_copy,) = modular._representation_counts(x, [x.copy()])
            assert np.array_equal(xy, expected) and np.array_equal(yx, expected), m
            assert np.array_equal(xx, squares) and np.array_equal(xx_copy, squares), m

    def test_cyclic_counts_raise_when_rounding_is_ambiguous(self, monkeypatch):
        x = np.ones(50, dtype=bool)
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + 0.3)
        with pytest.raises(RuntimeError, match="within 1/4"):
            modular._representation_counts(x, [x])
        with pytest.raises(RuntimeError, match="within 1/4"):
            modular_image(SUM, ResidueSet.full_ring(1000))

    @pytest.mark.parametrize("coeffs, transforms", [((1, 1), (1, 1)), ((2, 1), (2, 1)),
                                                    ((1, -1), (2, 1)), ((1, 1, 1), (3, 2))])
    def test_fft_stages_share_transforms(self, monkeypatch, coeffs, transforms):
        # x+y convolves one dilation with itself: one rfft.  Each later stage
        # transforms its new accumulator and, unless it is the same vector, its term.
        m = 4096
        classes = sorted(np.random.default_rng(1).choice(m, m // 2, replace=False).tolist())
        assert len(classes) ** 2 >= modular._FFT_CROSSOVER * m
        rfft, irfft = np.fft.rfft, np.fft.irfft
        with mock.patch.object(np.fft, "rfft", side_effect=rfft) as rffts, \
                mock.patch.object(np.fft, "irfft", side_effect=irfft) as irffts:
            mask = modular._image_mask(LinearForm(coeffs), m, classes)
        assert (rffts.call_count, irffts.call_count) == transforms
        monkeypatch.setattr(modular, "_FFT_MODULUS_CAP", m - 1)  # the same image by shift-or
        assert mask == modular._image_mask(LinearForm(coeffs), m, classes)

    def test_agrees_with_integer_image_reduced(self):
        rng = random.Random(23)
        for _ in range(40):
            m = rng.randint(2, 30)
            r = ResidueSet(m, rng.sample(range(m), rng.randint(1, m)))
            f = LinearForm((rng.choice([1, 2, 3, -2]), rng.choice([1, -1, 3])))
            reduced = sorted({x % m for x in image(f, rectify(r, 0))})
            assert reduced == list(modular_image(f, r).classes)


class TestCrtProduct:
    def test_hand_picked_combination(self):
        combined = crt_product(HAND_PICKED)
        assert combined.modulus == 59280
        assert len(combined) == 6 * 7 * 9 * 7 == 2646

    def test_full_rings(self):
        combined = crt_product([ResidueSet.full_ring(4), ResidueSet.full_ring(9)])
        assert combined.modulus == 36
        assert combined.is_full()

    def test_singletons(self):
        combined = crt_product([ResidueSet(3, [0]), ResidueSet(5, [0])])
        assert combined.classes == (0,)
        assert combined.modulus == 15

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            crt_product([ResidueSet(4, [0]), ResidueSet(6, [1])])

    def test_multiplicativity_of_image_cardinalities(self):
        rng = random.Random(31)
        for _ in range(60):
            while True:
                m1, m2 = rng.randint(2, 50), rng.randint(2, 50)
                if math.gcd(m1, m2) == 1:
                    break
            r1 = ResidueSet(m1, rng.sample(range(m1), rng.randint(1, m1)))
            r2 = ResidueSet(m2, rng.sample(range(m2), rng.randint(1, m2)))
            f = LinearForm((rng.choice([c for c in range(-10, 11) if c]),
                            rng.choice([c for c in range(-10, 11) if c])))
            combined = crt_product([r1, r2])
            assert len(combined) == len(r1) * len(r2)
            assert len(modular_image(f, combined)) == (
                len(modular_image(f, r1)) * len(modular_image(f, r2))
            )


class TestRectify:
    def test_least_nonnegative(self):
        assert rectify(ResidueSet(13, [0, 1, 6]), 0).elements == (0, 1, 6)

    def test_shifted_window(self):
        assert rectify(ResidueSet(13, [0, 1, 6]), 1).elements == (1, 6, 13)
        assert rectify(ResidueSet(5, [0, 2]), -10).elements == (-10, -8)

    def test_sandwich_on_random_instances(self):
        rng = random.Random(41)
        for _ in range(50):
            m = rng.randint(2, 60)
            r = ResidueSet(m, rng.sample(range(m), rng.randint(1, m)))
            f = LinearForm((rng.choice([c for c in range(-8, 9) if c]),
                            rng.choice([c for c in range(-8, 9) if c])))
            f_mod = len(modular_image(f, r))
            for window in (0, 1, -7):
                a = rectify(r, window)
                f_int = image_cardinality(f, a)
                assert f_mod <= f_int <= 2 * f.height * f_mod

    def test_matches_the_checking_constructor(self):
        rng = random.Random(43)
        for _ in range(300):
            m = rng.randint(2, 500)
            r = ResidueSet(m, rng.sample(range(m), rng.randint(1, m)))
            window = rng.randint(-3 * m, 3 * m)
            a = rectify(r, window)
            expected = FiniteIntSet(window + (c - window) % m for c in r.classes)
            assert a == expected
            assert all(type(x) is int for x in a.elements)
        big = ResidueSet(10**30 + 1, [5, 10**30])
        assert rectify(big, -(10**40)) == FiniteIntSet(-(10**40) + (c + 10**40) % (10**30 + 1) for c in big)

    @pytest.mark.parametrize("window", [0.0, 1.5, True, np.int64(3)], ids=["float", "fraction", "bool", "numpy"])
    def test_rejects_a_non_integer_window(self, window):
        with pytest.raises(ValueError, match="^window_start must be an integer, got "):
            rectify(ResidueSet(13, [0, 1, 6]), window)


class TestLocalSolution:
    def test_ratio(self):
        sol = LocalSolution(ResidueSet(13, [0, 1]), f_card=3, g_card=13)
        assert sol.ratio == Fraction(3, 13)

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalSolution(ResidueSet(5, [0]), f_card=0, g_card=5)
        with pytest.raises(ValueError):
            LocalSolution(ResidueSet(5, [0]), f_card=1, g_card=6)

    def test_cards_recomputable(self):
        sol = local_solution(F21, SUM, HAND_PICKED[0])
        assert sol.f_card == 12 and sol.g_card == 13

    def test_load_locals(self):
        text = json.dumps([r.to_dict() for r in HAND_PICKED])
        assert load_locals(text) == HAND_PICKED
        with pytest.raises(ValueError):
            load_locals('{"modulus": 5}')

    def test_load_locals_rejects_an_empty_array(self):
        with pytest.raises(ValueError, match="^locals file must contain a nonempty JSON array$"):
            load_locals("[]")

    def test_load_locals_caps_each_modulus_at_the_fft_cap(self):
        cap = modular._FFT_MODULUS_CAP
        assert load_locals(json.dumps([{"modulus": cap, "classes": [0, 1]}]))[0].modulus == cap
        with pytest.raises(ValueError, match=f"^modulus {cap + 1} is above the cap {cap}$"):
            load_locals(json.dumps([{"modulus": 13, "classes": [0]}, {"modulus": cap + 1, "classes": [0, 1]}]))

    def test_load_locals_caps_the_summed_moduli(self):
        cap = modular.LOCALS_MODULUS_SUM_CAP
        primes = (1_048_573, 1_048_571)  # below _FFT_MODULUS_CAP; 8 + both = cap
        assert sum(primes) + 8 == cap
        entries = [{"modulus": m, "classes": [0, 1]} for m in (*primes, 8)]
        assert [r.modulus for r in load_locals(json.dumps(entries))] == [*primes, 8]
        entries[-1]["modulus"] = 9
        with pytest.raises(ValueError, match=f"^the moduli sum to {cap + 1}, above the cap {cap}$"):
            load_locals(json.dumps(entries))
        assert [r.modulus for r in verify.packaged_locals()] == [13, 15, 16, 19]  # packaged_locals runs load_locals

    def test_load_locals_rejects_moduli_that_are_not_pairwise_coprime(self):
        entries = [{"modulus": m, "classes": [0, 1]} for m in (13, 7, 5, 91)]
        with pytest.raises(ValueError, match="^modulus 91 is not coprime to the combined modulus 455$"):
            load_locals(json.dumps(entries))
        assert [r.modulus for r in load_locals(json.dumps(entries[:3]))] == [13, 7, 5]


def ap_local(modulus, length, form_f, form_g):
    """Initial-segment residue sets; strong honest locals for x+y vs 2x+y."""
    return local_solution(form_f, form_g, ResidueSet(modulus, range(length)))


AP_SHAPES = ((7, 3), (11, 5), (13, 5), (17, 7), (19, 7), (23, 9), (29, 11))


def assert_certified(report):
    """The certificate pairs f upper = 2*h_f*prod f_card with g lower = prod g_card, and f upper < g lower."""
    f_upper, g_lower = report.certificate
    locs = report.locals_used
    assert (f_upper.quantity, f_upper.side, g_lower.quantity, g_lower.side) == ("f", "upper", "g", "lower")
    assert f_upper.value == 2 * report.form_f.height * math.prod(loc.f_card for loc in locs)
    assert g_lower.value == math.prod(loc.g_card for loc in locs)
    assert f_upper.value < g_lower.value


@pytest.fixture
def caps(monkeypatch):
    """Set modular's materialization caps for one test: caps(elements=..., modulus=...)."""
    def set_caps(elements=modular.DEFAULT_ELEMENT_CAP, modulus=modular.DEFAULT_MODULUS_CAP):
        monkeypatch.setattr(modular, "DEFAULT_ELEMENT_CAP", elements)
        monkeypatch.setattr(modular, "DEFAULT_MODULUS_CAP", modulus)
    return set_caps


class TestBuildSeparatingSet:
    def test_hand_picked_direct_window_one(self):
        report = build_separating_set(F21, SUM, hand_picked_locals(), window_start=1, direct=True)
        assert report.success and report.mode == "direct"
        assert report.set_size == 2646
        assert report.f_card == 108014
        assert report.g_card == 114575
        assert report.ratio_product == Fraction(117, 190)
        assert not report.threshold_met  # 117/190 is far above 1/6
        assert report.representative_window == (1, 59280)

    def test_hand_picked_threshold_mode_falls_back_to_direct(self):
        report = build_separating_set(F21, SUM, hand_picked_locals())
        assert report.success and report.mode == "direct"
        assert "of 4 locals" in report.detail and "the first 4, within the caps" in report.detail

    @pytest.mark.parametrize("direct", [False, True])
    def test_direct_flag_changes_nothing_below_the_certificate(self, caps, direct):
        # None of these streams meets the threshold, so both values of
        # direct consume every local and materialize the same prefix.
        rings = [local_solution(F21, SUM, ResidueSet.full_ring(m)) for m in (5, 7, 9)]
        cases = [  # stream, (element cap, modulus cap), mode, prefix length, |f(A)|, |g(A)|
            (hand_picked_locals(), (10**7, 10**7), "direct", 4, 108035, 114548),
            (rings, (10**7, 10**7), "shortfall", 3, 943, 629),
            (hand_picked_locals(), (1000, 10**7), "shortfall", 3, 5950, 5884),
            (hand_picked_locals(), (10**7, 100), "shortfall", 1, 26, 18),
            (hand_picked_locals(), (5, 10**7), "shortfall", 4, None, None),
        ]
        for locs, (element_cap, modulus_cap), mode, used, f_card, g_card in cases:
            caps(elements=element_cap, modulus=modulus_cap)
            report = build_separating_set(F21, SUM, locs, direct=direct)
            assert (report.mode, report.f_card, report.g_card) == (mode, f_card, g_card)
            assert report.locals_used == tuple(locs[:used])
            assert not report.threshold_met
            if f_card is None:
                assert report.elements is None and "no prefix" in report.detail
            else:
                assert report.elements == rectify(crt_product([loc.residues for loc in locs[:used]]))

    def test_full_rings_fail_with_ratio_one(self):
        locs = [local_solution(F21, SUM, ResidueSet.full_ring(m)) for m in (5, 7, 9)]
        report = build_separating_set(F21, SUM, locs)
        assert not report.success
        assert report.mode == "shortfall"
        assert report.ratio_product == 1

    def test_threshold_certified_with_materialization(self):
        # progressions {0..r-1}: f = x+y reaches 2r-1 classes while
        # g = 2x+y covers everything once 3r-2 >= m; five coprime moduli
        # push the product below the 1/4 threshold for h_f = 2.
        f, g = SUM, F21
        locs = [ap_local(m, r, f, g) for m, r in AP_SHAPES[:5]]
        product = math.prod((loc.ratio for loc in locs), start=Fraction(1))
        assert product < Fraction(1, 4)
        report = build_separating_set(f, g, locs)
        assert report.success and report.mode == "threshold"
        assert report.threshold_met
        assert report.threshold == Fraction(1, 4)
        assert report.elements is not None
        assert report.f_card is not None and report.f_card < report.g_card
        assert_certified(report)

    def test_derived_fields_follow_the_locals_used(self, caps):
        f, g = SUM, F21
        aps = [ap_local(m, r, f, g) for m, r in AP_SHAPES[:5]]
        reports = []
        for element_cap, forms, locs, options in [
            (10**7, (f, g), aps, {}),
            (10, (f, g), aps, {}),
            (10**7, (F21, SUM), hand_picked_locals(), {"window_start": 1, "direct": True}),
            (1000, (F21, SUM), hand_picked_locals(), {}),
            (10, (F21, SUM), hand_picked_locals(), {"direct": True}),
        ]:
            caps(elements=element_cap)
            reports.append(build_separating_set(*forms, locs, **options))
        assert {r.mode for r in reports} == {"threshold", "direct", "shortfall"}
        for report in reports:
            locs = report.locals_used
            product = Fraction(1)
            for loc in locs:
                product *= loc.ratio
            h = report.form_f.height
            out = report.to_dict()
            assert out["combined_modulus"] == math.prod(loc.residues.modulus for loc in locs)
            assert out["set_size"] == math.prod(len(loc.residues) for loc in locs)
            assert out["ratio_product"] == [product.numerator, product.denominator]
            assert out["threshold"] == [1, 2 * h]
            assert out["threshold_met"] == (product < Fraction(1, 2 * h))
            f_lower, g_lower = math.prod(loc.f_card for loc in locs), math.prod(loc.g_card for loc in locs)
            assert out["bounds"] == [
                {"quantity": "f", "side": "lower", "value": f_lower, "rule": "residue-image"},
                {"quantity": "g", "side": "lower", "value": g_lower, "rule": "residue-image"},
                {"quantity": "f", "side": "upper", "value": 2 * h * f_lower, "rule": "rectification"},
            ]
            assert report.threshold_met == (report.certificate is not None)

    def test_threshold_certified_beyond_caps(self, caps):
        f, g = SUM, F21
        locs = [ap_local(m, r, f, g) for m, r in AP_SHAPES[:5]]
        caps(elements=10)
        report = build_separating_set(f, g, locs)
        assert report.success and report.mode == "threshold"
        assert report.elements is None and report.f_card is None
        assert_certified(report)

    def test_direct_mode_consumes_every_local_and_still_certifies(self):
        # The product falls below 1/4 after five locals; direct=True takes
        # all seven, whose combined modulus 215,656,441 is over the modulus
        # cap, so the certified set stays described.
        f, g = SUM, F21
        locs = [ap_local(m, r, f, g) for m, r in AP_SHAPES]
        report = build_separating_set(f, g, locs, direct=True)
        assert report.mode == "threshold" and report.locals_used == tuple(locs)
        assert report.combined_modulus > modular.DEFAULT_MODULUS_CAP
        assert report.elements is None
        assert_certified(report)

    def test_threshold_mode_stops_consuming_once_met(self):
        f, g = SUM, F21
        locs = [ap_local(m, r, f, g) for m, r in AP_SHAPES]
        report = build_separating_set(f, g, locs)
        assert report.success
        assert len(report.locals_used) == 5

    def test_rejects_non_coprime_stream(self):
        locs = [
            local_solution(F21, SUM, ResidueSet.full_ring(4)),
            local_solution(F21, SUM, ResidueSet.full_ring(6)),
        ]
        with pytest.raises(ValueError):
            build_separating_set(F21, SUM, locs)

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError):
            build_separating_set(F21, SUM, [])

    def test_direct_mode_over_caps_materializes_the_longest_prefix(self, caps):
        # 13 fits a modulus cap of 100 and 13*15 does not: the first local
        # alone is materialized, and on it |f(A)| = 26 is not below 18.
        locs = hand_picked_locals()
        caps(modulus=100)
        report = build_separating_set(F21, SUM, locs, direct=True)
        assert report.mode == "shortfall" and report.locals_used == tuple(locs[:1])
        assert report.elements == rectify(HAND_PICKED[0])
        assert (report.f_card, report.g_card) == (26, 18)
        assert "the first 1, within the caps" in report.detail

    def test_report_serializes(self, monkeypatch):
        report = build_separating_set(F21, SUM, hand_picked_locals(), window_start=1, direct=True)
        data = report.to_dict()
        text = json.dumps(data)
        parsed = json.loads(text)
        assert parsed["f_card"] == 108014
        assert parsed["set"] == list(report.elements.elements)
        monkeypatch.setattr(modular, "INLINE_SET_LIMIT", 10)
        small = json.loads(json.dumps(report.to_dict()))
        assert small["set"] == {"inline": False, "size": 2646}

    @pytest.mark.parametrize("window", [1.5, True], ids=["fraction", "bool"])
    @pytest.mark.parametrize("count", [5, 7], ids=["materialized", "described"])
    def test_rejects_a_non_integer_window_before_any_local(self, window, count):
        # Seven locals certify a set too large to materialize, so rectify
        # never sees the window; the check on entry must catch it.
        stream = iter([ap_local(m, r, SUM, F21) for m, r in AP_SHAPES[:count]])
        with pytest.raises(ValueError, match="^window_start must be an integer, got "):
            build_separating_set(SUM, F21, stream, window_start=window, direct=True)
        assert len(list(stream)) == count

    @pytest.mark.parametrize("rule, quantity, side", [
        ("residue-image", "f", "lower"),
        ("residue-image", "g", "lower"),
        ("rectification", "f", "upper"),
    ])
    def test_a_wrong_bound_is_a_fault(self, monkeypatch, tmp_path, capsys, rule, quantity, side):
        # The packaged locals give |f(A)| = 108014 and |s(A)| = 114575 at
        # window 1; the patched bound misses that count by one.
        wrong = {"f": 108014, "g": 114575}[quantity] + (1 if side == "lower" else -1)
        proved_bounds = modular.proved_bounds

        def patched(form_f, locals_used):
            return tuple(replace(b, value=wrong) if (b.rule, b.quantity, b.side) == (rule, quantity, side) else b
                         for b in proved_bounds(form_f, locals_used))

        monkeypatch.setattr(modular, "proved_bounds", patched)
        message = f"^rule {rule!r} violated: \\|{quantity}\\(A\\)\\| = "
        with pytest.raises(RuntimeError, match=message):
            build_separating_set(F21, SUM, hand_picked_locals(), window_start=1, direct=True)
        locals_path = tmp_path / "locals.json"
        locals_path.write_text(json.dumps([r.to_dict() for r in verify.packaged_locals()]))
        with pytest.raises(RuntimeError, match=message):  # a fault propagates; it is not exit 2
            cli.main(["construct", "-f", "2,1", "-g", "1,1", "--source", "file",
                      "--locals", str(locals_path), "--window", "1"])
        assert capsys.readouterr().err == ""

    def test_a_certificate_that_does_not_separate_is_a_fault(self, monkeypatch):
        # Five AP locals meet the threshold; raising the rectification bound
        # to the g lower bound leaves the ledger without a certificate.
        proved_bounds = modular.proved_bounds

        def patched(form_f, locals_used):
            bounds = proved_bounds(form_f, locals_used)
            g_lower = next(b.value for b in bounds if b.quantity == "g")
            return tuple(replace(b, value=g_lower) if b.rule == "rectification" else b for b in bounds)

        monkeypatch.setattr(modular, "proved_bounds", patched)
        with pytest.raises(RuntimeError, match="^threshold met but certified bounds do not separate: .*rectification"):
            build_separating_set(SUM, F21, [ap_local(m, r, SUM, F21) for m, r in AP_SHAPES[:5]])


class TestLocalRatioSearch:
    def test_m13_beats_twelve_thirteenths(self):
        sol = local_ratio_search(F21, SUM, 13, budget=10_000, seed=0)
        assert sol.g_card == 13
        assert modular_image(SUM, sol.residues).is_full()
        assert sol.ratio <= Fraction(12, 13)

    def test_m16_beats_fifteen_sixteenths(self):
        sol = local_ratio_search(F21, SUM, 16, budget=10_000, seed=0)
        assert modular_image(SUM, sol.residues).is_full()
        assert sol.ratio <= Fraction(15, 16)

    def test_identical_forms_stay_at_one(self):
        sol = local_ratio_search(F21, F21, 11, budget=300, seed=1)
        assert sol.ratio == 1
        assert modular_image(F21, sol.residues).is_full()

    def test_deterministic_for_fixed_seed(self):
        a = local_ratio_search(F21, SUM, 13, budget=2000, seed=7)
        b = local_ratio_search(F21, SUM, 13, budget=2000, seed=7)
        assert a == b

    def test_feasibility_always_holds(self):
        for seed in range(3):
            sol = local_ratio_search(F21, DIFFERENCE, 9, budget=1500, seed=seed)
            assert modular_image(DIFFERENCE, sol.residues).is_full()

    def test_infeasible_target_rejected(self):
        with pytest.raises(ValueError):
            local_ratio_search(SUM, LinearForm((2, 2)), 4, budget=100)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
            local_ratio_search(F21, SUM, 13, budget=-1)

    def test_zero_budget_returns_the_full_ring(self):
        sol = local_ratio_search(F21, SUM, 13, budget=0)
        assert list(sol.residues.classes) == list(range(13))
        assert sol.ratio == 1

    @pytest.mark.parametrize("form_g, m, seed, classes, f_card", [
        (SUM, 13, 1801454923, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 13),
        (DIFFERENCE, 17, 228545753, [0, 1, 2, 10, 15, 16], 15),
        (SUM, 23, 627891232, [0, 1, 3, 6, 9, 10, 13, 16, 18, 19], 22),
        (DIFFERENCE, 29, 2037510056, [3, 11, 12, 14, 21, 25, 26], 23),
    ])
    def test_benchmark_searches_are_pinned(self, form_g, m, seed, classes, f_card):
        # The prime-locals benchmark's four searches at seed 11, pinned from
        # the implementation that scored ResidueSet objects.
        sol = local_ratio_search(F21, form_g, m, budget=2000, seed=seed)
        assert (list(sol.residues.classes), sol.f_card, sol.g_card) == (classes, f_card, m)


def reference_ratio_search(form_f, form_g, m, budget, seed):
    """local_ratio_search rebuilt from its classes on every move: the same RNG draws, images and tie-break.

    Each move copies R, takes its images from the classes alone
    (modular._image_mask without kept masks) and keeps or drops the copy.
    The kept-state search must return exactly what this returns.
    """
    rng = random.Random(seed)

    def feasible(classes):
        return modular._image_mask(form_g, m, classes).bit_count() == m

    def f_count(classes):
        return modular._image_mask(form_f, m, classes).bit_count()

    best_classes = frozenset(range(m))
    best_count = f_count(best_classes)
    moves = 0

    def consider(classes, count):
        nonlocal best_classes, best_count
        if count < best_count or (count == best_count and sorted(classes) < sorted(best_classes)):
            best_classes, best_count = classes, count

    while moves < budget:
        current = set(range(m))
        order = list(range(m))
        rng.shuffle(order)
        for r in order:
            if len(current) <= 1:
                break
            current.discard(r)
            if not feasible(current):
                current.add(r)
        current_f = f_count(current)
        consider(frozenset(current), current_f)
        stale = 0
        while moves < budget and stale < 3 * m:
            moves += 1
            kind = rng.randrange(3)
            missing = sorted(set(range(m)) - current)
            trial = set(current)
            if kind == 0 and len(trial) > 1:
                trial.discard(rng.choice(sorted(trial)))
            elif kind == 1 and len(trial) < m:
                trial.add(rng.choice(missing))
            elif kind == 2 and 0 < len(trial) < m:
                trial.discard(rng.choice(sorted(trial)))
                trial.add(rng.choice(missing))
            else:
                continue
            if not feasible(trial):
                stale += 1
                continue
            count = f_count(trial)
            if count <= current_f:
                if count < current_f:
                    stale = 0
                current, current_f = trial, count
                consider(frozenset(trial), count)
            else:
                stale += 1
    return LocalSolution(ResidueSet(m, best_classes), best_count, m)


def reference_cases():
    """(f, g, m, budget, seed): every pair of the forms below at every budget, at random m <= 40 and seeds."""
    rng = random.Random(33)
    forms_f = [(3,), (2, 1), (3, -2), (5, 2), (1, 1, 1)]
    forms_g = [(1, 1), (1, -1), (3, 1), (1, 1, 1)]
    cases = [(f, g, rng.randint(2, 40), budget, rng.randrange(2**31))
             for f in forms_f for g in forms_g for budget in (0, 1, 50, 2_000)]
    # u = 2 is not a unit mod an even m: 2*R has repeated classes, whose counts a drop must keep.
    cases += [((2, 1), g, m, 2_000, rng.randrange(2**31)) for g in forms_g[:2] for m in (2, 4, 10, 16, 24, 36)]
    # The greedy seed's dense sets cross _FFT_CROSSOVER (|R| >= 318 mod 700).
    cases += [((2, 1), (1, 1), 700, 20, 5), ((3, -2), (1, -1), 701, 1, 6)]
    return cases


@pytest.mark.parametrize("f, g, m, budget, seed", reference_cases(), ids=str)
def test_search_matches_the_rebuilding_reference(f, g, m, budget, seed):
    form_f, form_g = LinearForm(f), LinearForm(g)
    assert local_ratio_search(form_f, form_g, m, budget, seed) == reference_ratio_search(form_f, form_g, m, budget, seed)
