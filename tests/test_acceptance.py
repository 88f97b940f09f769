"""Acceptance suite: one test per headline criterion, at stated tolerances.

Criteria 1-10 are the non-pipeline entries of ``linform.verify.CHECKS``,
run here under the same budgets as ``linform verify``; each prints a
single PASS line on success (run with -s to see them).  The two
end-to-end pipeline tests (criterion 11) assert the strict
|f(A)| < |g(A)| success report exactly as stated; see the repository
notes for the blocking analysis of why prime-subgroup local solutions
cannot reach it at desk scale.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from linform.intsets import DIFFERENCE, SUM, LinearForm
from linform.modular import build_separating_set, modular_image
from linform.numtheory import jacobi
from linform.residues import kth_power_local_solutions, qr_local_solutions
from linform.verify import CHECKS, run_checks


def _passed(criterion: str, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS in {elapsed:.3f}s - {detail}")


@pytest.mark.parametrize("name", [name for name, _, _ in CHECKS if not name.startswith("pipeline-")])
def test_acceptance(name):
    [result] = run_checks(only=name)
    assert result.ok, result.detail
    _passed(name, result.seconds, result.detail)


def test_acceptance_11a_pipeline_qr_source():
    f = LinearForm((2, 1))
    locs = qr_local_solutions(2, 1, count=5)
    assert len(locs) == 5
    # local certificates: verified residue data with exact cardinalities
    for sol in locs:
        p = sol.residues.modulus
        assert p % 4 == 1 and p > 5 and jacobi(-2, p) == -1
        assert sol.f_card == p - 1 and sol.g_card == p
        assert list(sol.residues.classes) == sorted({x * x % p for x in range(1, p)})
        assert sol.f_card == len(modular_image(f, sol.residues))
    report = build_separating_set(f, SUM, locs)
    # exact-rational threshold logic
    assert report.threshold == Fraction(1, 6)
    expected_product = math.prod((loc.ratio for loc in report.locals_used), start=Fraction(1))
    assert report.ratio_product == expected_product
    assert report.threshold_met == (report.ratio_product < Fraction(1, 6))
    # the criterion: a report establishing |f(A)| < |g(A)|
    assert report.success and report.f_card is not None and report.f_card < report.g_card, (
        "pipeline did not establish |f(A)| < |s(A)|: "
        f"mode={report.mode}, ratio product={report.ratio_product} "
        f"(threshold 1/6), detail: {report.detail}"
    )
    _passed("11a", 0.0, f"|f(A)|={report.f_card} < |s(A)|={report.g_card}")


def test_acceptance_11b_pipeline_kpower_source():
    f = LinearForm((2, 1))
    locs = kth_power_local_solutions(2, 1, count=2)
    assert len(locs) == 2
    for sol in locs:
        p = sol.residues.modulus
        assert p % 3 == 1 and p > 81
        assert pow(-4, (p - 1) // 3, p) != 1
        assert sol.f_card == p - 1 and sol.g_card == p
    report = build_separating_set(f, DIFFERENCE, locs)
    assert report.threshold == Fraction(1, 6)
    expected_product = math.prod((loc.ratio for loc in report.locals_used), start=Fraction(1))
    assert report.ratio_product == expected_product
    assert report.success and report.f_card is not None and report.f_card < report.g_card, (
        "pipeline did not establish |f(A)| < |d(A)|: "
        f"mode={report.mode}, ratio product={report.ratio_product} "
        f"(threshold 1/6), detail: {report.detail}"
    )
    _passed("11b", 0.0, f"|f(A)|={report.f_card} < |d(A)|={report.g_card}")
