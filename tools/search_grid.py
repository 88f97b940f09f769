"""Time local_ratio_search on a fixed grid and digest each result.

A cell is 2x+y against x+y or x-y at one modulus m and one move budget,
searched from one seed.  For each cell the script prints the wall time
of the search in milliseconds, the ratio found, |R| and a digest of the
whole LocalSolution (its classes, f_card and g_card).  The search is
deterministic for a fixed seed, so two checkouts that print the same
digest in every cell returned the same sets, and their times compare
the same work.

    PYTHONPATH=src python tools/search_grid.py [--max-modulus M]

The full grid takes about 5 s on a 2-CPU Xeon, most of it in the two
greedy seeds of each m = 4096 cell.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

from linform.intsets import LinearForm
from linform.modular import local_ratio_search

F = LinearForm((2, 1))
FORMS_G = {"x+y": LinearForm((1, 1)), "x-y": LinearForm((1, -1))}
MODULI = (13, 29, 64, 256, 1024, 4096)
BUDGETS = (200, 2_000)
SEED = 0


def digest(solution) -> str:
    """The first 12 hex digits of a SHA-256 of the solution's classes and counts."""
    data = json.dumps([list(solution.residues.classes), solution.f_card, solution.g_card])
    return hashlib.sha256(data.encode()).hexdigest()[:12]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-modulus", type=int, default=max(MODULI), help="skip cells above this m")
    args = parser.parse_args()
    print(f"{'g':<4} {'m':>5} {'budget':>6} {'ms':>9} {'ratio':>11} {'|R|':>5}  digest")
    total = 0.0
    for name, form_g in FORMS_G.items():
        for m in (m for m in MODULI if m <= args.max_modulus):
            for budget in BUDGETS:
                start = time.perf_counter()
                solution = local_ratio_search(F, form_g, m, budget=budget, seed=SEED)
                ms = (time.perf_counter() - start) * 1e3
                total += ms
                ratio = f"{solution.f_card}/{solution.g_card}"
                print(f"{name:<4} {m:>5} {budget:>6} {ms:>9.1f} {ratio:>11} {len(solution.residues):>5}  "
                      f"{digest(solution)}")
    print(f"total {total:.1f} ms")


if __name__ == "__main__":
    main()
