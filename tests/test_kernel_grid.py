"""tools/kernel_grid.py: its grid's cells, and a run on two of them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import brute_image
from linform import intsets
from linform.intsets import LinearForm, image_cardinality

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import kernel_grid  # noqa: E402

# auto's pick on each cell of the grid, one row per (n, density), in FORMS
# order: 2x+y, x+y, x-y, x+y+z.  A refit of intsets._KERNEL_NS that moves a
# pick regenerates this table, and CHANGES.md says which picks moved.
GRID_PICKS = {
    (8, 1): ("big-int", "big-int", "big-int", "big-int"),
    (8, 0.1): ("big-int", "big-int", "big-int", "big-int"),
    (8, 0.01): ("big-int", "big-int", "big-int", "big-int"),
    (8, 0.001): ("big-int", "big-int", "big-int", "big-int"),
    (8, 0.0005): ("merge", "big-int", "big-int", "merge"),
    (32, 1): ("big-int", "big-int", "big-int", "big-int"),
    (32, 0.1): ("big-int", "big-int", "big-int", "big-int"),
    (32, 0.01): ("big-int", "big-int", "big-int", "big-int"),
    (32, 0.001): ("merge", "merge", "merge", "big-int"),
    (32, 0.0005): ("merge", "merge", "merge", "word"),
    (128, 1): ("big-int", "big-int", "big-int", "big-int"),
    (128, 0.1): ("big-int", "big-int", "big-int", "big-int"),
    (128, 0.01): ("big-int", "big-int", "big-int", "big-int"),
    (128, 0.001): ("merge", "merge", "merge", "word"),
    (128, 0.0005): ("merge", "merge", "merge", "word"),
    (512, 1): ("big-int", "big-int", "big-int", "big-int"),
    (512, 0.1): ("big-int", "big-int", "big-int", "big-int"),
    (512, 0.01): ("word", "word", "word", "word"),
    (512, 0.001): ("word", "word", "word", "word"),
    (512, 0.0005): ("merge", "merge", "merge", "word"),
    (2048, 1): ("big-int", "big-int", "big-int", "big-int"),
    (2048, 0.1): ("word", "big-int", "big-int", "big-int"),
    (2048, 0.01): ("word", "word", "word", "word"),
    (2048, 0.001): ("word", "word", "word", "word"),
    (2048, 0.0005): ("word", "word", "word", "word"),
    (4096, 1): ("big-int", "big-int", "big-int", "big-int"),
    (4096, 0.1): ("word", "word", "word", "word"),
    (4096, 0.01): ("word", "word", "word", "word"),
    (4096, 0.001): ("word", "word", "word", "word"),
    (4096, 0.0005): ("word", "word", "word", "word"),
}


def test_auto_picks_on_the_grid_are_pinned():
    rows = [(n, density) for n in kernel_grid.SIZES for density in kernel_grid.DENSITIES]
    assert list(GRID_PICKS) == rows and tuple(kernel_grid.FORMS) == ("2x+y", "x+y", "x-y", "x+y+z")
    picks = [intsets._plan(kernel_grid.FORMS[name], a) for name, a in kernel_grid.cells()]
    assert picks == [pick for row in rows for pick in GRID_PICKS[row]]


@pytest.mark.usefixtures("time_limit")
def test_every_kernel_counts_the_same_image_on_the_grid_to_512_elements():
    # The script itself checks the larger cells, where merge takes up to
    # 0.3 s a call.  Brute force, a Python fold, checks the cells of at most
    # 32 elements.
    for name, a in kernel_grid.cells():
        if len(a) > 512:
            continue
        form = LinearForm(kernel_grid.FORMS[name])
        cards = {image_cardinality(form, a)}
        for kernel in kernel_grid.KERNELS:
            if kernel_grid.work(form, a, kernel):
                cards.add(intsets._cardinality(form, a, kernel))
        if len(a) <= 32:
            cards.add(len(brute_image(form.coefficients, a.elements)))
        assert len(cards) == 1, (name, len(a), cards)


def test_runs_on_two_cells():
    proc = subprocess.run([sys.executable, "tools/kernel_grid.py", "--cells", "2"], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:3] == ["form", "n", "span"]
    assert [line.split()[:2] for line in lines[1:3]] == [["2x+y", "8"], ["x+y", "8"]]
    # the auto-pick column names the kernel the planner runs
    for line, (name, a) in zip(lines[1:3], kernel_grid.cells()):
        pick = line.split()[-2]
        assert pick in kernel_grid.KERNELS
        assert pick == intsets._plan(kernel_grid.FORMS[name], a)
    assert lines[3].startswith("worst auto/fastest: ")
    assert lines[4] == "fitted _KERNEL_NS:"
    assert [line.split(":")[0].strip() for line in lines[5:]] == [f"'{k}'" for k in kernel_grid.KERNELS]
