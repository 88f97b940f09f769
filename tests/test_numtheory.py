"""Tests for the arithmetic primitives."""

from __future__ import annotations

import math
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alarm_after, brute_jacobi, brute_legendre, trial_division_is_prime
from linform import numtheory
from linform.numtheory import (
    _MR_PROVEN_BOUND,
    _MR_SMALL_BOUND,
    _MR_SMALL_WITNESSES,
    _miller_rabin,
    PrimeSearchResult,
    PrimeSearchSpec,
    crt_combine,
    find_primes,
    is_perfect_kth_power,
    is_prime,
    is_qth_power_residue,
    jacobi,
    nth_root,
    primes_between,
)

# Every test here may run the prime sieve, where a broken block advance loops
# forever; the time limit turns that into a failure.
pytestmark = pytest.mark.usefixtures("time_limit")

ODD_PRIMES_TO_200 = [p for p in range(3, 201) if trial_division_is_prime(p)]

# find_primes specs for the comparison against a brute is_prime filter.
SIEVE_SPECS = {
    "no-condition": PrimeSearchSpec(search_limit=30_000),
    "1-mod-4": PrimeSearchSpec(residue_conditions=((1, 4),), search_limit=30_000),
    "1-mod-3-above-81": PrimeSearchSpec(residue_conditions=((1, 3),), lower_bound=81,
                                        search_limit=30_000),
    "two-conditions": PrimeSearchSpec(residue_conditions=((3, 4), (2, 5)), search_limit=30_000),
    "lower-bound-0": PrimeSearchSpec(residue_conditions=((1, 6),), lower_bound=0, search_limit=30_000),
    "predicate": PrimeSearchSpec(residue_conditions=((1, 4),), lower_bound=5, search_limit=30_000,
                                 extra_predicate=lambda p: jacobi(-2, p) == -1),
    "shortfall": PrimeSearchSpec(residue_conditions=((1, 4),), lower_bound=1000, search_limit=1100),
    # 65537^2 = 1 (mod 4) survives the sieve; only is_prime rejects it.
    "beyond-2^32": PrimeSearchSpec(residue_conditions=((1, 4),), lower_bound=65537**2 - 3000,
                                   search_limit=65537**2 + 3000),
}


def brute_find_primes(spec, count):
    residue, step = crt_combine(spec.residue_conditions) if spec.residue_conditions else (0, 1)
    out = []
    for n in range(spec.lower_bound + 1, spec.search_limit + 1):
        if n % step == residue and is_prime(n) and (spec.extra_predicate is None
                                                    or spec.extra_predicate(n)):
            out.append(n)
            if len(out) == count:
                break
    return out


class TestJacobi:
    def test_minus_one_at_13(self):
        # primes p = 1 (mod 4) have (-1|p) = 1
        assert jacobi(-1, 13) == 1

    def test_zero_when_n_divides(self):
        assert jacobi(0, 7) == 0
        assert jacobi(14, 7) == 0

    def test_two_is_not_a_square_mod_13(self):
        # brute force: no x in 1..12 has x^2 = 2 (mod 13)
        assert all(x * x % 13 != 2 for x in range(1, 13))
        assert jacobi(2, 13) == -1

    @pytest.mark.parametrize("n", [0, -5, 4, 100])
    def test_rejects_even_or_nonpositive_modulus(self, n):
        with pytest.raises(ValueError):
            jacobi(3, n)

    def test_matches_legendre_oracle_on_primes(self):
        for p in ODD_PRIMES_TO_200:
            for a in range(-20, 21):
                assert jacobi(a, p) == brute_legendre(a, p), (a, p)

    @given(
        a=st.integers(-10**6, 10**6),
        b=st.integers(-10**6, 10**6),
        n=st.integers(1, 5000).map(lambda k: 2 * k + 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_in_the_numerator(self, a, b, n):
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    @given(a=st.integers(-500, 500), n=st.sampled_from([9, 15, 21, 45, 105]))
    @settings(max_examples=100, deadline=None)
    def test_matches_factorization_oracle_on_composites(self, a, n):
        assert jacobi(a, n) == brute_jacobi(a, n)

    def test_plus_one_on_exactly_half_the_nonzero_classes(self):
        for p in primes_between(3, 997):
            hits = sum(1 for a in range(1, p) if jacobi(a, p) == 1)
            assert hits == (p - 1) // 2


class TestIsPrime:
    def test_small_values(self):
        assert is_prime(13)
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)

    def test_59281_matches_trial_division(self):
        assert is_prime(59281) == trial_division_is_prime(59281)

    def test_agrees_with_trial_division_to_20000(self):
        for n in range(20000):
            assert is_prime(n) == trial_division_is_prime(n), n

    @pytest.mark.parametrize(
        "n", [561, 1105, 1729, 75361, 512461, 3215031751, 3825123056546413051]
    )
    def test_rejects_carmichael_and_strong_pseudoprimes(self, n):
        assert not is_prime(n)

    def test_matches_sieve_below_one_million(self):
        n = 10**6
        sieve = bytearray([1]) * n
        sieve[0] = sieve[1] = 0
        for p in range(2, math.isqrt(n) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, n, p)))
        assert [x for x in range(n) if is_prime(x)] == [x for x in range(n) if sieve[x]]

    def test_small_witness_tier_ends_at_its_pseudoprime(self):
        # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to 2, 3, 5
        # and 7, so the four-witness tier must stop just below it.
        assert _MR_SMALL_BOUND == 3215031751 == 151 * 751 * 28351
        assert _miller_rabin(_MR_SMALL_BOUND, _MR_SMALL_WITNESSES)
        assert not is_prime(_MR_SMALL_BOUND)
        for p in (3215031749, 3215031767):  # the primes either side of the bound
            assert trial_division_is_prime(p)
            assert is_prime(p)
        assert not any(is_prime(n) for n in range(3215031750, 3215031767))

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)  # 193707721 * 761838257287

    def test_even_above_proven_bound_is_composite(self):
        assert not is_prime(2 * _MR_PROVEN_BOUND)

    @pytest.mark.parametrize("n", [_MR_PROVEN_BOUND, 2**89 - 1])
    def test_refuses_above_proven_bound(self, n):
        # the bound itself is a composite that passes every witness used;
        # 2^89 - 1 is prime, and trial division to its root would take days
        with pytest.raises(ValueError, match=str(_MR_PROVEN_BOUND)):
            is_prime(n)


class TestPrimesBetween:
    def test_range(self):
        assert list(primes_between(10, 30)) == [11, 13, 17, 19, 23, 29]
        assert list(primes_between(2, 2)) == [2]

    @pytest.mark.parametrize("lo, hi", [
        (10, 30), (2, 2), (3, 3), (4, 4), (30, 10), (5, 4), (-7, 1), (-7, 2), (0, 100), (1, 3),
        (2, 20_000), (8, 997), (1000, 1100), (65_536, 70_000), (2**32 - 1000, 2**32 + 1000),
        (65537**2 - 3000, 65537**2 + 3000)])
    def test_matches_brute_filter(self, monkeypatch, lo, hi):
        # lo > hi, lo <= 2, even lo, block edges (a block of 61 too) and
        # the range past 2^32, where 65537^2 survives the sieve.
        expected = [n for n in range(max(lo, 0), hi + 1) if is_prime(n)]
        assert list(primes_between(lo, hi)) == expected
        monkeypatch.setattr(numtheory, "_SIEVE_BLOCK", 61)
        assert list(primes_between(lo, hi)) == expected

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
    def test_time_limit_turns_a_hang_into_a_failure(self):
        with pytest.raises(TimeoutError):
            with alarm_after(0.05):
                while True:
                    pass


class TestCrtCombine:
    def test_zero_residues(self):
        assert crt_combine([(0, 13), (0, 15)]) == (0, 195)

    def test_four_moduli(self):
        # unique x in [0, 59280) with x = 1 (13), x = 0 (15), (16), (19);
        # a direct scan confirms 18240.
        residue, modulus = crt_combine([(1, 13), (0, 15), (0, 16), (0, 19)])
        assert modulus == 59280
        assert residue == 18240
        assert residue % 13 == 1
        assert residue % 15 == residue % 16 == residue % 19 == 0

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            crt_combine([(2, 4), (1, 6)])

    def test_merges_compatible_non_coprime(self):
        assert crt_combine([(1, 4), (5, 8)]) == (5, 8)

    def test_rejects_contradictory(self):
        with pytest.raises(ValueError, match="contradictory"):
            crt_combine([(1, 4), (3, 8)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            crt_combine([])

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, data):
        moduli = data.draw(
            st.lists(st.sampled_from([3, 4, 5, 7, 11, 13, 16, 17, 19, 23]), min_size=1, max_size=4, unique=True)
        )
        # keep them pairwise coprime
        chosen = []
        for m in moduli:
            if all(math.gcd(m, other) == 1 for other in chosen):
                chosen.append(m)
        pairs = [(data.draw(st.integers(0, m - 1)), m) for m in chosen]
        residue, modulus = crt_combine(pairs)
        assert modulus == math.prod(m for _, m in pairs)
        assert 0 <= residue < modulus
        for r, m in pairs:
            assert residue % m == r % m


class TestFindPrimes:
    def test_five_mod_eight(self):
        result = find_primes(PrimeSearchSpec(residue_conditions=((5, 8),)), count=3)
        assert list(result) == [5, 13, 29]
        assert not result.shortfall

    def test_with_jacobi_predicate(self):
        spec = PrimeSearchSpec(
            residue_conditions=((1, 4),),
            lower_bound=5,
            extra_predicate=lambda p: jacobi(-2, p) == -1,
        )
        result = find_primes(spec, count=1)
        assert list(result) == [13]

    def test_non_cube_predicate(self):
        # first prime above 81 that is 1 mod 3 with -4 not a cube:
        # pow(-4, (97-1)//3, 97) = 61 != 1
        assert pow(-4, 32, 97) == 61
        spec = PrimeSearchSpec(
            residue_conditions=((1, 3),),
            lower_bound=81,
            extra_predicate=lambda p: pow(-4, (p - 1) // 3, p) != 1,
        )
        assert list(find_primes(spec, count=1)) == [97]

    def test_results_are_increasing_matching_primes(self):
        spec = PrimeSearchSpec(residue_conditions=((3, 4), (2, 5)))
        result = find_primes(spec, count=8)
        assert len(result) == 8
        assert list(result) == sorted(result)
        for p in result:
            assert is_prime(p)
            assert p % 4 == 3 and p % 5 == 2

    def test_shortfall_reported(self):
        spec = PrimeSearchSpec(residue_conditions=((5, 8),), search_limit=20)
        result = find_primes(spec, count=5)
        assert result.primes == (5, 13)
        assert result.shortfall

    def test_compatible_overlapping_conditions(self):
        # p = 1 (mod 4) and p = 5 (mod 8) is consistent and means 5 (mod 8)
        spec = PrimeSearchSpec(residue_conditions=((1, 4), (5, 8)))
        assert list(find_primes(spec, count=2)) == [5, 13]

    def test_contradictory_conditions_rejected(self):
        spec = PrimeSearchSpec(residue_conditions=((1, 4), (3, 8)))
        with pytest.raises(ValueError):
            find_primes(spec, count=1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PrimeSearchSpec(residue_conditions=((0, 13),))  # residue not coprime
        with pytest.raises(ValueError):
            PrimeSearchSpec(residue_conditions=((1, 1),))  # modulus too small
        with pytest.raises(ValueError):
            PrimeSearchSpec(lower_bound=100, search_limit=50)

    @pytest.mark.parametrize("condition", [(1.5, 4.0), (1, 4.0), (1.0, 4), (True, 4)],
                             ids=["both-floats", "float-modulus", "integral-float-residue", "bool-residue"])
    def test_spec_rejects_non_integer_conditions(self, condition):
        with pytest.raises(ValueError, match="residue conditions must be pairs of integers"):
            PrimeSearchSpec(residue_conditions=(condition,))

    def test_spec_normalises_conditions_to_tuples(self):
        assert PrimeSearchSpec(residue_conditions=[[1, 4], (2, 5)]).residue_conditions == ((1, 4), (2, 5))

    @pytest.mark.parametrize("name", SIEVE_SPECS)
    @pytest.mark.parametrize("block", [numtheory._SIEVE_BLOCK, 61])
    def test_sieve_matches_brute_filter(self, monkeypatch, name, block):
        # block = 61 makes every run cross many block edges.
        spec = SIEVE_SPECS[name]
        monkeypatch.setattr(numtheory, "_SIEVE_BLOCK", block)
        everything = brute_find_primes(spec, math.inf)
        assert (name == "shortfall") == (len(everything) < 60)
        for count in (1, 5, 60, 10**6):
            result = find_primes(spec, count)
            assert list(result) == everything[:count], (name, count)
            assert result.shortfall == (len(everything) < count)
        if name == "lower-bound-0":
            assert everything[:3] == [7, 13, 19]

    def test_base_primes_are_never_crossed_out(self):
        result = find_primes(PrimeSearchSpec(lower_bound=0, search_limit=300), count=10**6)
        assert list(result) == [p for p in range(301) if trial_division_is_prime(p)]

    def test_is_prime_and_predicate_run_only_where_needed(self, monkeypatch):
        tested, asked = [], []
        real = numtheory.is_prime
        monkeypatch.setattr(numtheory, "is_prime", lambda n: tested.append(n) or real(n))
        spec = PrimeSearchSpec(residue_conditions=((1, 4),), lower_bound=10_000, search_limit=60_000,
                               extra_predicate=lambda p: asked.append(p) or p % 3 == 1)
        find_primes(spec, 10**6)
        assert tested == []  # survivors below 2^32 are prime by the sieve
        assert asked and all(real(p) for p in asked)
        find_primes(SIEVE_SPECS["beyond-2^32"], 10**6)
        assert tested and min(tested) >= 2**32
        assert all(n % q for n in tested for q in (3, 5, 7, 65521))  # only sieve survivors

    def test_unproven_survivor_still_raises(self):
        spec = PrimeSearchSpec(lower_bound=_MR_PROVEN_BOUND, search_limit=_MR_PROVEN_BOUND + 10**4)
        with pytest.raises(ValueError, match="proven only below"):
            find_primes(spec, count=1)

    def test_result_type(self):
        result = find_primes(PrimeSearchSpec(), count=4)
        assert isinstance(result, PrimeSearchResult)
        assert list(result) == [2, 3, 5, 7]


class TestQthPowerResidue:
    def test_one_is_every_power(self):
        assert is_qth_power_residue(1, 3, 13)

    def test_minus_four_not_a_cube_mod_97(self):
        assert not is_qth_power_residue(-4, 3, 97)

    def test_eight_is_a_cube_mod_13(self):
        assert is_qth_power_residue(8, 3, 13)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            is_qth_power_residue(2, 3, 11)  # 3 does not divide 10
        with pytest.raises(ValueError):
            is_qth_power_residue(13, 3, 13)  # a not coprime to p
        with pytest.raises(ValueError):
            is_qth_power_residue(2, 4, 13)  # q not prime

    def test_matches_enumeration_to_500(self):
        for p in primes_between(3, 500):
            for q in (2, 3, 5, 7):
                if (p - 1) % q != 0:
                    continue
                powers = {pow(x, q, p) for x in range(1, p)}
                for a in range(1, p):
                    assert is_qth_power_residue(a, q, p) == (a in powers), (a, q, p)


class TestIntegerRoots:
    @given(x=st.integers(0, 10**12), k=st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_nth_root_floor(self, x, k):
        r = nth_root(x, k)
        assert r**k <= x < (r + 1) ** k

    def test_perfect_powers(self):
        assert is_perfect_kth_power(-64, 3)
        assert not is_perfect_kth_power(-64, 2)
        assert is_perfect_kth_power(4096, 3)
        assert not is_perfect_kth_power(4096, 5)
        assert is_perfect_kth_power(0, 3)
