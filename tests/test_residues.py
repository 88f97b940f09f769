"""Tests for quadratic-residue and k-th power subgroup constructions."""

from __future__ import annotations

import random
from collections import Counter
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linform import residues
from linform.intsets import DIFFERENCE, SUM, LinearForm
from linform.modular import build_separating_set, modular_image
from linform.numtheory import jacobi, primes_between
from linform.residues import (
    POWER_SUBGROUP_P_CAP,
    choose_power_exponent,
    coverage,
    kth_power_local_solutions,
    power_subgroup,
    qr_local_solutions,
    qr_sum_diff_full,
    zero_in_f_of_qr,
)

# Every (p, k) with p an odd prime below 200, k | p-1 and |H| = (p-1)/k >= 2.
SMALL_SUBGROUPS = [(p, k) for p in primes_between(3, 199) for k in range(1, p - 1) if (p - 1) % k == 0
                   and (p - 1) // k >= 2]

# The moduli of qr_local_solutions(2, 1, 60) and kth_power_local_solutions(2, 1, 40),
# pinned from the set-based implementation these kernels replaced.
QR_2_1_MODULI = (
    13, 29, 37, 53, 61, 101, 109, 149, 157, 173, 181, 197, 229, 269, 277, 293, 317, 349, 373, 389,
    397, 421, 461, 509, 541, 557, 613, 653, 661, 677, 701, 709, 733, 757, 773, 797, 821, 829, 853,
    877, 941, 997, 1013, 1021, 1061, 1069, 1093, 1109, 1117, 1181, 1213, 1229, 1237, 1277, 1301,
    1373, 1381, 1429, 1453, 1493,
)
KPOWER_2_1_MODULI = (
    97, 103, 139, 151, 163, 181, 193, 199, 211, 241, 271, 313, 331, 337, 349, 367, 373, 379, 409,
    421, 463, 487, 523, 541, 547, 571, 577, 607, 613, 619, 631, 661, 673, 709, 751, 757, 769, 787,
    823, 829,
)


class TestPowerSubgroup:
    def test_squares_mod_13(self):
        assert power_subgroup(13, 2).classes == (1, 3, 4, 9, 10, 12)

    def test_squares_mod_5(self):
        assert power_subgroup(5, 2).classes == (1, 4)

    def test_membership_matches_jacobi(self):
        for p in primes_between(3, 97):
            qr = power_subgroup(p, 2)
            for a in range(1, p):
                assert (a in qr) == (jacobi(a, p) == 1), (a, p)

    def test_cubes_mod_13(self):
        h = power_subgroup(13, 3)
        assert h.classes == (1, 5, 8, 12)
        assert h.order == 4

    def test_k_one_is_everything(self):
        assert power_subgroup(13, 1).classes == tuple(range(1, 13))

    def test_order_97_3(self):
        assert power_subgroup(97, 3).order == 32

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            power_subgroup(12, 2)
        with pytest.raises(ValueError):
            power_subgroup(13, 5)  # 5 does not divide 12
        with pytest.raises(ValueError):
            power_subgroup(2, 2)

    def test_matches_pow_for_every_divisor_below_200(self):
        for p, k in SMALL_SUBGROUPS + [(p, p - 1) for p in primes_between(3, 199)]:
            assert power_subgroup(p, k).classes == tuple(sorted({pow(x, k, p) for x in range(1, p)}))

    def test_rejects_p_beyond_int64_squares_before_allocating(self, monkeypatch):
        # (p-1)^2 no longer fits int64 from the cap on; with numpy gone, any
        # allocation would raise something other than ValueError.
        monkeypatch.setattr(residues, "np", None)
        for p in (3_037_000_507, 2**61 - 1):
            assert p >= POWER_SUBGROUP_P_CAP
            with pytest.raises(ValueError, match=str(POWER_SUBGROUP_P_CAP)):
                power_subgroup(p, 2)

    def test_closure_under_product_and_inverse(self):
        for p, k in ((13, 2), (13, 3), (31, 5), (97, 3), (101, 2), (211, 7)):
            h = power_subgroup(p, k)
            assert h.order <= 200
            classes = set(h.classes)
            assert 1 in classes
            for a in classes:
                assert pow(a, -1, p) in classes
                for b in classes:
                    assert a * b % p in classes


class TestQrTheorems:
    def test_sum_diff_full_examples(self):
        assert qr_sum_diff_full(13)
        assert qr_sum_diff_full(17)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            qr_sum_diff_full(5)  # excluded: p > 5 required
        with pytest.raises(ValueError):
            qr_sum_diff_full(7)  # 3 (mod 4) not claimed
        with pytest.raises(ValueError):
            qr_sum_diff_full(15)

    def test_zero_membership_examples(self):
        assert not zero_in_f_of_qr(2, 1, 13)
        assert zero_in_f_of_qr(1, 1, 13)

    def test_difference_always_contains_zero(self):
        for p in (3, 7, 13, 29):
            assert zero_in_f_of_qr(1, -1, p)

    def test_zero_membership_matches_jacobi_sample(self):
        for p in primes_between(3, 60):
            for u, v in ((1, 1), (2, 1), (3, -2), (5, 3)):
                if u % p == 0 or v % p == 0:
                    continue
                assert zero_in_f_of_qr(u, v, p) == (jacobi(-u * v, p) == 1), (u, v, p)

    def test_rejects_dividing_prime(self):
        with pytest.raises(ValueError):
            zero_in_f_of_qr(13, 1, 13)


class TestCoverage:
    def test_two_one_mod_97_cubes(self):
        report = coverage(LinearForm((2, 1)), power_subgroup(97, 3))
        assert report.covered_nonzero
        assert not report.zero_covered

    def test_sum_reaches_zero_for_odd_k(self):
        report = coverage(SUM, power_subgroup(97, 3))
        assert report.zero_covered

    def test_difference_always_reaches_zero(self):
        for p, k in ((97, 3), (17, 2), (31, 5)):
            report = coverage(DIFFERENCE, power_subgroup(p, k))
            assert report.zero_covered

    def test_counts_match_brute_force(self):
        for p, k, coeffs in ((13, 2, (2, 1)), (13, 3, (1, 1)), (31, 5, (3, -2))):
            h = power_subgroup(p, k)
            expected = Counter(
                (coeffs[0] * h1 + coeffs[1] * h2) % p
                for h1, h2 in product(h.classes, repeat=2)
            )
            report = coverage(LinearForm(coeffs), h)
            assert list(report.representation_counts) == [expected.get(x, 0) for x in range(p)]

    def test_counts_match_double_loop_for_every_subgroup_below_200(self):
        rng = random.Random(200)
        for p, k in SMALL_SUBGROUPS:
            h = power_subgroup(p, k)
            u, v = 0, 0
            while u % p == 0 or v % p == 0:
                u, v = rng.randrange(1, 10**6), rng.choice((-1, 1)) * rng.randrange(1, 10**6)
            counts = [0] * p
            for h1 in h.classes:
                for h2 in h.classes:
                    counts[(u * h1 + v * h2) % p] += 1
            report = coverage(LinearForm((u, v)), h)
            assert report.representation_counts == tuple(counts), (p, k, u, v)
            assert report.zero_covered == (counts[0] > 0)
            assert report.covered_nonzero == all(counts[1:])

    def test_counts_match_bincount_on_large_subgroups(self):
        for p, k, coeffs in ((3469, 3, (2, 1)), (3469, 3, (1, -1)), (2053, 2, (1, 1)),
                             (4001, 5, (7, -3)), (7829, 2, (2, 1))):
            h = power_subgroup(p, k)
            a = np.asarray(h.classes) * coeffs[0] % p
            b = np.asarray(h.classes) * coeffs[1] % p
            expected = np.bincount(((a[:, None] + b) % p).ravel(), minlength=p)
            report = coverage(LinearForm(coeffs), h)
            assert report.representation_counts == tuple(expected.tolist()), (p, k, coeffs)

    def test_rounding_guard_raises(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + 0.3)
        with pytest.raises(RuntimeError, match="within 1/4"):
            coverage(SUM, power_subgroup(97, 3))

    def test_counts_sum_to_order_squared(self):
        report = coverage(LinearForm((3, 2)), power_subgroup(101, 2))
        assert sum(report.representation_counts) == 50 * 50

    def test_coset_constancy_visible_in_counts(self):
        p, k = 31, 3
        h = power_subgroup(p, k)
        report = coverage(LinearForm((2, 1)), h)
        counts = report.representation_counts
        for x in range(1, p):
            for hh in h.classes:
                assert counts[x] == counts[x * hh % p]

    def test_coset_check_raises_on_one_perturbed_count(self):
        rng = random.Random(41)
        for p, k in [(31, 3), (97, 3), (101, 2), (61, 4), (199, 6), (3469, 3)]:
            h = power_subgroup(p, k)
            counts = np.asarray(coverage(LinearForm((2, 1)), h).representation_counts)
            residues._check_coset_constancy(counts, h)
            for x in rng.sample(range(1, p), 5):
                perturbed = counts.copy()
                perturbed[x] += 1
                with pytest.raises(RuntimeError, match=f"not constant on the coset of .* mod {p}"):
                    residues._check_coset_constancy(perturbed, h)

    def test_generator_generates_every_subgroup_below_200(self):
        # Any g != 1 catches a single perturbed count; only a generator sees
        # every coset whole.
        for p, k in SMALL_SUBGROUPS:
            h = power_subgroup(p, k)
            g = residues._generator(h)
            assert {pow(g, i, p) for i in range(h.order)} == set(h.classes), (p, k)

    def test_coverage_runs_the_coset_check(self, monkeypatch):
        # +1 and -1 inside one coset keep the total, so only the coset check
        # can catch it; both local-solution sources run it on f's counts too.
        p, k = 97, 3
        h = power_subgroup(p, k)
        subgroup_counts = residues._subgroup_counts

        def skewed(forms, subgroup):
            counts = subgroup_counts(forms, subgroup)
            counts[0][5] += 1
            counts[0][5 * subgroup.classes[1] % subgroup.p] -= 1
            return counts

        monkeypatch.setattr(residues, "_subgroup_counts", skewed)
        with pytest.raises(RuntimeError, match="not constant on the coset"):
            coverage(LinearForm((2, 1)), h)
        for source in (qr_local_solutions, kth_power_local_solutions):
            with pytest.raises(RuntimeError, match="not constant on the coset"):
                source(2, 1, 3)

    def test_rejects_dividing_prime_and_tiny_subgroups(self):
        with pytest.raises(ValueError):
            coverage(LinearForm((97, 1)), power_subgroup(97, 3))
        with pytest.raises(ValueError):
            coverage(SUM, power_subgroup(13, 12))  # order 1


HELPER_FORMS = tuple(LinearForm(c) for c in ((1, 1), (1, -1), (2, 1), (-3, 2)))


def double_loop_counts(u, v, p, left, right):
    """counts[x] = #{(a, b) in left x right : u*a + v*b = x mod p}, by a double loop."""
    counts = [0] * p
    for a in left:
        for b in right:
            counts[(u * a + v * b) % p] += 1
    return counts


class TestSubgroupCounts:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(p, k) for p, k in SMALL_SUBGROUPS if p > 3]), st.permutations(HELPER_FORMS))
    def test_counts_match_brute_force_and_share_transforms(self, pk, forms):
        p, k = pk
        h = power_subgroup(p, k)
        rfft, irfft = np.fft.rfft, np.fft.irfft
        with mock.patch.object(np.fft, "rfft", side_effect=rfft) as rffts, \
                mock.patch.object(np.fft, "irfft", side_effect=irfft) as irffts:
            got = residues._subgroup_counts(forms, h)
        for form, counts in zip(forms, got):
            assert counts.tolist() == double_loop_counts(*form.coefficients, p, h.classes, h.classes), (p, k, form)
        # One irfft per coset of H that holds some v/u, one rfft per coset
        # transformed, H always among them; k = 2 needs T_H alone.
        cosets = {frozenset(v * pow(u, -1, p) * y % p for y in h.classes)
                  for u, v in (form.coefficients for form in forms)}
        assert (rffts.call_count, irffts.call_count) == (
            (1, 1) if k == 2 else (len(cosets | {frozenset(h.classes)}), len(cosets)))
        if p - 1 in h:
            assert got[forms.index(SUM)].tolist() == got[forms.index(DIFFERENCE)].tolist()

    def test_coset_lemma_by_double_loop_for_every_subgroup_below_200(self):
        # r_f(x) = T_C(x/u) for C = (v/u)*H, with v/u in H and, for k > 1,
        # outside it; for k = 2 the nonresidues' T_N is |H| - T_H - 1_H.
        rng = random.Random(2022)
        odd_orders = 0
        for p, k in SMALL_SUBGROUPS:
            h = power_subgroup(p, k)
            odd_orders += h.order % 2
            t_h = double_loop_counts(1, 1, p, h.classes, h.classes)
            for inside in (True, False) if k > 1 else (True,):
                c = rng.choice([c for c in range(1, p) if (c in h) == inside])
                u = rng.choice([u for u in range(1, 10**4) if u % p])
                v = c * u % p + p * rng.randrange(-3, 3)
                coset = [c * y % p for y in h.classes]
                t_c = double_loop_counts(1, 1, p, h.classes, coset)
                r = double_loop_counts(u, v, p, h.classes, h.classes)
                w = pow(u, -1, p)
                assert r == [t_c[x * w % p] for x in range(p)], (p, k, u, v)
                assert residues._subgroup_counts((LinearForm((u, v)),), h)[0].tolist() == r, (p, k, u, v)
                if k == 2 and not inside:
                    assert t_c == [h.order - t_h[y] - (y in h) for y in range(p)], p
        assert odd_orders > 0  # some H without -1

    @pytest.mark.parametrize("source,per_prime", [(qr_local_solutions, 1), (kth_power_local_solutions, 2)],
                             ids=["qr", "kpower"])
    def test_transforms_per_prime(self, source, per_prime):
        # f = 2x+y, x+y and x-y: one rfft and one irfft per QR prime, whether
        # 1/2 lies in H or N; 2 + 2 per cube prime, where -4, so 1/2, is no cube.
        rfft, irfft = np.fft.rfft, np.fft.irfft
        with mock.patch.object(np.fft, "rfft", side_effect=rfft) as rffts, \
                mock.patch.object(np.fft, "irfft", side_effect=irfft) as irffts:
            sols = source(2, 1, 20)
        assert len(sols) == 20
        assert (rffts.call_count, irffts.call_count) == (20 * per_prime, 20 * per_prime)


class TestQrLocalSolutions:
    def test_two_one_first_three(self):
        sols = qr_local_solutions(2, 1, 3)
        moduli = [s.residues.modulus for s in sols]
        assert moduli == [13, 29, 37]
        assert all(p % 8 == 5 for p in moduli)
        for sol in sols:
            p = sol.residues.modulus
            assert sol.residues == power_subgroup(p, 2).residue_set()
            assert sol.f_card == p - 1
            assert sol.g_card == p

    def test_three_one_primes_satisfy_the_symbol_condition(self):
        for sol in qr_local_solutions(3, 1, 4):
            p = sol.residues.modulus
            assert p % 4 == 1 and p > 5
            assert jacobi(-3, p) == -1

    def test_square_uv_rejected(self):
        with pytest.raises(ValueError):
            qr_local_solutions(4, 1, 1)
        with pytest.raises(ValueError):
            qr_local_solutions(9, -4, 1)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            qr_local_solutions(1, 2, 1)

    def test_first_sixty_for_two_one_are_pinned(self):
        sols = qr_local_solutions(2, 1, 60)
        assert [(s.residues.modulus, len(s.residues), s.f_card, s.g_card) for s in sols] == [
            (p, (p - 1) // 2, p - 1, p) for p in QR_2_1_MODULI]
        for s in sols:
            p = s.residues.modulus
            assert s.residues.classes == tuple(sorted({x * x % p for x in range(1, p)}))

    def test_shortfall_returns_fewer(self):
        sols = qr_local_solutions(2, 1, 10, search_limit=40)
        assert [s.residues.modulus for s in sols] == [13, 29, 37]


class TestKthPowerLocalSolutions:
    def test_exponent_selection(self):
        assert choose_power_exponent(2, 1) == (3, -4)
        assert choose_power_exponent(2, -1) == (3, 4)
        assert choose_power_exponent(3, 2) == (3, -18)
        # u = 8: -u^2*v = -64 is a cube, so q = 3 is unusable
        assert choose_power_exponent(8, 1)[0] == 5

    def test_two_one_first_prime_is_97(self):
        sols = kth_power_local_solutions(2, 1, 2)
        assert [s.residues.modulus for s in sols] == [97, 103]
        for sol in sols:
            p = sol.residues.modulus
            assert p % 3 == 1 and p > 81
            assert sol.f_card == p - 1 and sol.g_card == p
            assert sol.residues == power_subgroup(p, 3).residue_set()

    def test_three_two_conditions(self):
        for sol in kth_power_local_solutions(3, 2, 3):
            p = sol.residues.modulus
            assert p % 3 == 1 and p > 81
            assert pow(-18, (p - 1) // 3, p) != 1

    def test_rejects_sum_and_difference_shapes(self):
        with pytest.raises(ValueError):
            kth_power_local_solutions(1, 1, 1)
        with pytest.raises(ValueError):
            kth_power_local_solutions(1, -1, 1)

    def test_first_forty_for_two_one_are_pinned(self):
        sols = kth_power_local_solutions(2, 1, 40)
        assert [(s.residues.modulus, len(s.residues), s.f_card, s.g_card) for s in sols] == [
            (p, (p - 1) // 3, p - 1, p) for p in KPOWER_2_1_MODULI]
        for s in sols:
            p = s.residues.modulus
            assert s.residues.classes == tuple(sorted({pow(x, 3, p) for x in range(1, p)}))

    def test_shortfall_returns_fewer(self):
        sols = kth_power_local_solutions(2, 1, 5, search_limit=100)
        assert [s.residues.modulus for s in sols] == [97]


SOURCES = (qr_local_solutions, kth_power_local_solutions)


class TestSubgroupLocals:
    def test_one_powers_pass_and_one_counts_call_per_prime(self, monkeypatch):
        # power_subgroup takes one _powers pass per prime, and f, x+y and x-y
        # share one _subgroup_counts call; the coset check needs no other pass.
        powers, subgroup_counts = residues._powers, residues._subgroup_counts
        for source, k in zip(SOURCES, (2, 3)):
            calls = []
            monkeypatch.setattr(residues, "_powers", lambda p, e: calls.append(("powers", p, e)) or powers(p, e))
            monkeypatch.setattr(residues, "_subgroup_counts",
                                lambda forms, subgroup: calls.append(("counts", subgroup.p, len(forms)))
                                or subgroup_counts(forms, subgroup))
            sols = source(2, 1, 20)
            assert all(sol.residues.modulus // k <= residues.FULL_ENUMERATION_ORDER_CAP for sol in sols)
            assert calls == [call for sol in sols
                             for call in (("powers", sol.residues.modulus, k), ("counts", sol.residues.modulus, 3))]

    @pytest.mark.parametrize("source", SOURCES, ids=lambda s: s.__name__)
    def test_zero_in_f_is_caught(self, monkeypatch, source):
        # Moving one representation from each class of H to 0 keeps the sum
        # and the coset constancy, so only the check of f(H) can catch it.
        subgroup_counts = residues._subgroup_counts

        def skewed(forms, subgroup):
            counts = subgroup_counts(forms, subgroup)
            counts[0][list(subgroup.classes)] -= 1
            counts[0][0] += subgroup.order
            return counts

        monkeypatch.setattr(residues, "_subgroup_counts", skewed)
        with pytest.raises(RuntimeError, match="not exactly the nonzero classes"):
            source(2, 1, 3)

    @pytest.mark.parametrize("source", SOURCES, ids=lambda s: s.__name__)
    @pytest.mark.parametrize("u,v", [(2, 1), (3, -2), (7, 5)])
    def test_lemma_above_the_cap_matches_enumeration(self, monkeypatch, source, u, v):
        def described(sols):
            return [(s.residues.modulus, s.residues.classes, s.f_card, s.g_card) for s in sols]

        counted = []
        subgroup_counts = residues._subgroup_counts
        monkeypatch.setattr(residues, "_subgroup_counts", lambda *args: counted.append(args) or subgroup_counts(*args))
        enumerated = described(source(u, v, 12))
        assert len(enumerated) == 12
        assert [subgroup.p for _, subgroup in counted] == [p for p, *_ in enumerated]  # counted below the cap
        counted.clear()
        monkeypatch.setattr(residues, "FULL_ENUMERATION_ORDER_CAP", 1)
        assert described(source(u, v, 12)) == enumerated
        assert counted == []


class TestPipelineMechanics:
    def test_qr_locals_compose_with_the_builder(self):
        locs = qr_local_solutions(2, 1, 2)
        report = build_separating_set(LinearForm((2, 1)), SUM, locs)
        assert len(report.locals_used) >= 1
        assert report.threshold.denominator == 6
        expected = locs[0].ratio * locs[1].ratio
        if len(report.locals_used) == 2:
            assert report.ratio_product == expected

    def test_kpower_locals_compose_with_the_builder(self):
        locs = kth_power_local_solutions(2, 1, 2)
        report = build_separating_set(LinearForm((2, 1)), DIFFERENCE, locs)
        assert report.combined_modulus in (97, 97 * 103)
        assert report.mode in ("threshold", "direct", "shortfall")
