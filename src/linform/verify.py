"""Built-in verification suite: every headline cardinality claim, re-checked.

``CHECKS`` is the single statement of the reproduction's claims.  Each
check recomputes one family of values or inequalities from scratch and
runs under its runtime budget.  The CLI ``verify`` subcommand renders
the results as a pass/fail table, and the acceptance tests run the same
table entry by entry.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Iterator, Sequence

import numpy as np

from .intsets import (
    DIFFERENCE,
    SUM,
    FiniteIntSet,
    LinearForm,
    amplify,
    canonical_pair,
    image_cardinality,
)
from .modular import (
    ResidueSet,
    build_separating_set,
    crt_product,
    load_locals,
    local_solution,
    modular_image,
    proved_bounds,
    rectify,
)
from .numtheory import jacobi, primes_between
from .residues import coverage, kth_power_local_solutions, power_subgroup, qr_local_solutions, qr_sum_diff_full, zero_in_f_of_qr
from .smallsets import ap_equality_set, classify_triples, conjugate_four_set_witness, five_set_witness

MSTD_SET = FiniteIntSet((0, 2, 3, 4, 7, 11, 12, 14))


class CheckFailure(AssertionError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail, "seconds": self.seconds}


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def packaged_locals() -> list[ResidueSet]:
    """The hand-picked residue sets for 2x+y vs x+y shipped with the package."""
    text = resources.files("linform").joinpath("data/locals_2x_plus_y.json").read_text()
    return load_locals(text)


# ---------------------------------------------------------------------------
# the checks


def _coprime_pairs(max_u: int, min_u: int = 2) -> Iterator[tuple[int, int]]:
    """Coprime (u, v) with 1 <= v < u <= max_u, plus (1, 1) when min_u is 1."""
    for u in range(min_u, max_u + 1):
        for v in range(1, max(u, 2)):
            if math.gcd(u, v) == 1:
                yield u, v


def _normalized_forms(max_u: int, min_u: int = 2) -> Iterator[LinearForm]:
    for u, v in _coprime_pairs(max_u, min_u):
        yield LinearForm((u, v))
        yield LinearForm((u, -v))


def check_mstd_counterexample() -> str:
    image_cardinality(SUM, MSTD_SET)  # warm the kernels before timing
    start = time.perf_counter()
    diffs = image_cardinality(DIFFERENCE, MSTD_SET)
    sums = image_cardinality(SUM, MSTD_SET)
    elapsed = time.perf_counter() - start
    _expect(diffs == 25, f"|A-A| = {diffs}, expected 25")
    _expect(sums == 26, f"|A+A| = {sums}, expected 26")
    _expect(elapsed < 0.001, f"took {elapsed * 1000:.3f} ms, budget 1 ms")
    return "|A-A|=25 < |A+A|=26"


def check_crt_construction() -> str:
    f = LinearForm((2, 1))
    locs = [local_solution(f, SUM, r) for r in packaged_locals()]
    report = build_separating_set(f, SUM, locs, window_start=1, direct=True)
    _expect(report.combined_modulus == 59280, f"modulus {report.combined_modulus}, expected 59280")
    _expect(report.set_size == 2646, f"|A| = {report.set_size}, expected 2646")
    _expect(report.elements is not None and len(report.elements) == 2646,
            "materialized set does not have the expected 2646 elements")
    _expect(report.f_card == 108014, f"|f(A)| = {report.f_card}, expected 108014")
    _expect(report.g_card == 114575, f"|s(A)| = {report.g_card}, expected 114575")
    _expect(report.success, "report did not declare success")
    return f"|A|=2646, |f(A)|=108014 < |s(A)|=114575; ratio product {report.ratio_product}"


def check_triple_classification() -> str:
    forms = list(_normalized_forms(100))
    for form in forms:
        u, v = form.coefficients
        result = classify_triples(form)
        got = {s.elements: c for s, c in zip(result.exceptional_canonicals, result.cardinalities)}
        if u == 2:
            expected = {(0, 1, 2): 7, (0, 1, 3): 8}
        else:
            expected = {
                canonical_pair(FiniteIntSet((0, abs(v), u))).elements: 8,
                canonical_pair(FiniteIntSet((0, abs(v), u + abs(v)))).elements: 8,
            }
        _expect(got == expected, f"form {form.coefficients}: exceptional triples {got} != {expected}")
    return f"{len(forms)} normalized forms with u <= 100 match the two-family classification"


def check_four_set_witnesses() -> str:
    pairs = 0
    for u, v in _coprime_pairs(20):
        w = conjugate_four_set_witness(u, v)
        expected = (13, 12, 13, 14) if u == 2 else (14, 13, 13, 14)
        got = (w.f_of_a, w.g_of_a, w.f_of_b, w.g_of_b)
        _expect(got == expected, f"(u,v)=({u},{v}): counts {got} != {expected}")
        pairs += 1
    return f"{pairs} coprime pairs with u <= 20 show the 4-element pattern"


def check_five_set_witnesses() -> str:
    pairs = 0
    for u, v in _coprime_pairs(50):
        _, card_f, card_d = five_set_witness(u, v)
        _expect(card_d == 21, f"(u,v)=({u},{v}): |d(A)| = {card_d} != 21")
        _expect(card_f <= 19, f"(u,v)=({u},{v}): |f(A)| = {card_f} > 19")
        _expect(card_f < card_d, f"(u,v)=({u},{v}): |f(A)| not below |d(A)|")
        pairs += 1
    return f"{pairs} coprime pairs with u <= 50 give |f(A)| <= 19 < 21 = |d(A)|"


def check_ap_equality() -> str:
    cases = 0
    for u, v in _coprime_pairs(12):
        for t in range(1, u + 1):
            a = ap_equality_set(u, v, t)
            cf = image_cardinality(LinearForm((u, v)), a)
            cg = image_cardinality(LinearForm((u, -v)), a)
            _expect(cf == cg == t * t, f"(u,v,t)=({u},{v},{t}): got {cf}, {cg}, expected {t * t}")
            cases += 1
    return f"{cases} progressions with u <= 12 give |f| = |g| = t^2"


def _random_form(rng: random.Random, coefficients: Sequence[int]) -> LinearForm:
    return LinearForm((rng.choice(coefficients), rng.choice(coefficients)))


def _random_residue_set(rng: random.Random, modulus: int) -> ResidueSet:
    return ResidueSet(modulus, rng.sample(range(modulus), rng.randint(1, modulus)))


def check_amplification() -> str:
    nonzero = [c for c in range(-5, 6) if c]
    # two independent instance families: sets from [-40, 40) with 2..12
    # elements, and from [-60, 60) with 1..12 elements
    for seed, span, min_size in ((2024, 40, 2), (424242, 60, 1)):
        rng = random.Random(seed)
        for trial in range(20):
            a = FiniteIntSet(rng.sample(range(-span, span), rng.randint(min_size, 12)))
            f, g = _random_form(rng, nonzero), _random_form(rng, nonzero)
            fa, ga = image_cardinality(f, a), image_cardinality(g, a)
            _, amplified = amplify(f, g, a)
            where = f"seed {seed} trial {trial}"
            _expect(len(amplified) == len(a) ** 2, f"{where}: |A_M| != |A|^2")
            _expect(image_cardinality(f, amplified) == fa * fa, f"{where}: |f(A_M)| != |f(A)|^2")
            _expect(image_cardinality(g, amplified) == ga * ga, f"{where}: |g(A_M)| != |g(A)|^2")
    return "40 random instances square |A|, |f(A)| and |g(A)| exactly"


def _expect_bounds(f: LinearForm, residue_sets: Sequence[ResidueSet], where: str) -> None:
    """Each proved bound for f against s, checked on |f(A)| and |s(A)| counted at windows 0 and 1."""
    bounds = proved_bounds(f, [local_solution(f, SUM, r) for r in residue_sets])
    combined = crt_product(residue_sets)
    for window in (0, 1):
        a = rectify(combined, window)
        cards = {"f": image_cardinality(f, a), "g": image_cardinality(SUM, a)}
        for b in bounds:
            _expect(b.holds(cards[b.quantity]), f"{where}, window {window}: {b} fails on {cards}")


def check_crt_and_rectification() -> str:
    nonzero = [c for c in range(-10, 11) if c]
    for seed in (99, 88):
        rng = random.Random(seed)
        for trial in range(100):
            while True:
                m1, m2 = rng.randint(2, 50), rng.randint(2, 50)
                if math.gcd(m1, m2) == 1:
                    break
            r1, r2 = _random_residue_set(rng, m1), _random_residue_set(rng, m2)
            f = _random_form(rng, nonzero)
            combined = crt_product([r1, r2])
            where = f"seed {seed} trial {trial}"
            _expect(len(combined) == len(r1) * len(r2), f"{where}: |R| not multiplicative")
            lhs = len(modular_image(f, combined))
            rhs = len(modular_image(f, r1)) * len(modular_image(f, r2))
            _expect(lhs == rhs, f"{where}: |f(R)| = {lhs} != {rhs}")
            _expect_bounds(f, [r1, r2], where)
    # the seed-88 stream continues into single-modulus instances
    for trial in range(100):
        r = _random_residue_set(rng, rng.randint(2, 80))
        f = _random_form(rng, nonzero)
        _expect_bounds(f, [r], f"single modulus trial {trial}")
    return "200 CRT products multiply exactly; 300 rectified sets obey every proved bound in both windows"


def check_quadratic_residue_coverage() -> str:
    count = 0
    for p in primes_between(13, 997):
        if p % 4 == 1:
            _expect(qr_sum_diff_full(p), f"sums/differences of squares miss a class mod {p}")
            count += 1
    zero_cases = 0
    for p in primes_between(3, 200):
        for form in _normalized_forms(10, min_u=1):
            u, v = form.coefficients
            if u % p == 0 or v % p == 0:
                continue
            enumerated = zero_in_f_of_qr(u, v, p)
            _expect(enumerated == (jacobi(-u * v, p) == 1),
                    f"zero membership mismatch for ({u},{v}) mod {p}")
            zero_cases += 1
    return f"{count} primes cover Z/pZ; zero membership matches the symbol in {zero_cases} cases"


def check_subgroup_coverage() -> str:
    forms = [SUM, DIFFERENCE, LinearForm((2, 1)), LinearForm((3, 2))]
    rng = random.Random(1010)
    reports = 0
    for k in (2, 3):
        for p in primes_between(k**4 + 1, 2000):
            if (p - 1) % k != 0:
                continue
            subgroup = power_subgroup(p, k)
            for form in forms:
                u, v = form.coefficients
                if u % p == 0 or v % p == 0:
                    continue
                report = coverage(form, subgroup)
                where = f"p={p}, k={k}, f={form.coefficients}"
                _expect(report.covered_nonzero, f"nonzero class missed: {where}")
                counts = report.representation_counts
                _expect(sum(counts) == subgroup.order**2, f"counts do not sum to |H|^2: {where}")
                x, h = rng.randrange(1, p), rng.choice(subgroup.classes)
                _expect(counts[x] == counts[x * h % p], f"count not constant on the coset of {x}: {where}")
                reports += 1
                if p < 200:  # every pair of H x H: rests on neither the FFT nor the coset lemma
                    h1, h2 = np.ix_(subgroup.classes, subgroup.classes)
                    recount = np.bincount(((u * h1 + v * h2) % p).ravel(), minlength=p)
                    _expect(tuple(recount.tolist()) == counts, f"counts differ from a pair-by-pair recount: {where}")
    return f"{reports} coverage reports: all nonzero classes hit, counts consistent, p < 200 recounted pairwise"


def check_pipeline_qr() -> str:
    f = LinearForm((2, 1))
    locs = qr_local_solutions(2, 1, count=5)
    _expect(len(locs) == 5, "prime search shortfall while collecting local solutions")
    report = build_separating_set(f, SUM, locs)
    _expect(report.threshold == Fraction(1, 6), f"threshold {report.threshold} != 1/6")
    _expect(report.success and report.f_card is not None and report.f_card < report.g_card,
            f"no separating set established: mode={report.mode}, "
            f"ratio product={report.ratio_product}, detail: {report.detail}")
    return f"|f(A)|={report.f_card} < |g(A)|={report.g_card} via {report.mode}"


def check_pipeline_kpower() -> str:
    f = LinearForm((2, 1))
    locs = kth_power_local_solutions(2, 1, count=2)
    _expect(len(locs) == 2, "prime search shortfall while collecting local solutions")
    report = build_separating_set(f, DIFFERENCE, locs)
    _expect(report.success and report.f_card is not None and report.f_card < report.g_card,
            f"no separating set established: mode={report.mode}, "
            f"ratio product={report.ratio_product}, detail: {report.detail}")
    return f"|f(A)|={report.f_card} < |g(A)|={report.g_card} via {report.mode}"


CHECKS: tuple[tuple[str, Callable[[], str], float], ...] = (
    ("mstd-counterexample", check_mstd_counterexample, 1.0),
    ("crt-construction-2x+y", check_crt_construction, 5.0),
    ("triple-classification", check_triple_classification, 10.0),
    ("four-set-witnesses", check_four_set_witnesses, 1.0),
    ("five-set-witness", check_five_set_witnesses, 5.0),
    ("ap-equality", check_ap_equality, 1.0),
    ("amplification", check_amplification, 5.0),
    ("crt-and-rectification", check_crt_and_rectification, 5.0),
    ("quadratic-residue-coverage", check_quadratic_residue_coverage, 30.0),
    ("subgroup-coverage", check_subgroup_coverage, 60.0),
    ("pipeline-qr", check_pipeline_qr, 300.0),
    ("pipeline-kpower", check_pipeline_kpower, 300.0),
)


def run_checks(only: str | None = None) -> list[CheckResult]:
    """Run the verification checks, optionally filtered by name prefix."""
    results = []
    for name, fn, budget in CHECKS:
        if only and not name.startswith(only):
            continue
        start = time.perf_counter()
        try:
            detail = fn()
            elapsed = time.perf_counter() - start
            if elapsed > budget:
                results.append(CheckResult(name, False, f"exceeded {budget:.0f} s budget: {elapsed:.1f} s", elapsed))
            else:
                results.append(CheckResult(name, True, detail, elapsed))
        except CheckFailure as exc:
            results.append(CheckResult(name, False, str(exc), time.perf_counter() - start))
        except Exception as exc:  # a library self-check raised: a FAIL row, not a traceback
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}",
                                       time.perf_counter() - start))
    return results


def render_table(results: Sequence[CheckResult]) -> str:
    lines = []
    for r in results:
        tag = "PASS" if r.ok else "FAIL"
        lines.append(f"{tag}  {r.name:<28} {r.seconds:7.2f}s  {r.detail}")
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
