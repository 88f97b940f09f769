"""tools/search_grid.py: a run on its two smallest moduli."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import search_grid  # noqa: E402

from linform.modular import local_ratio_search  # noqa: E402


def test_grid_prints_each_cell_with_the_digest_of_its_search():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "search_grid.py"), "--max-modulus", "29"],
                         capture_output=True, text=True, check=True, env=env).stdout.splitlines()
    rows = [line.split() for line in out[1:-1]]
    assert [(g, int(m), int(budget)) for g, m, budget, *_ in rows] == [
        (g, m, budget) for g in search_grid.FORMS_G for m in (13, 29) for budget in search_grid.BUDGETS]
    for g, m, budget, _ms, ratio, size, digest in rows:
        solution = local_ratio_search(search_grid.F, search_grid.FORMS_G[g], int(m), int(budget), search_grid.SEED)
        assert (ratio, int(size), digest) == (f"{solution.f_card}/{m}", len(solution.residues),
                                              search_grid.digest(solution))
    assert out[-1].startswith("total ")
