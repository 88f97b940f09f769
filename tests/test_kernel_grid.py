"""tools/kernel_grid.py: its grid's cells, and a run on two of them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from linform import intsets
from linform.intsets import LinearForm, image_cardinality

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import kernel_grid  # noqa: E402


@pytest.mark.usefixtures("time_limit")
def test_every_kernel_counts_the_same_image_on_the_grid_to_512_elements():
    # The script itself checks the larger cells, where pairs and merge take
    # up to 0.3 s a call.
    for name, a in kernel_grid.cells():
        if len(a) > 512:
            continue
        form = LinearForm(kernel_grid.FORMS[name])
        cards = {image_cardinality(form, a)}
        for kernel in kernel_grid.KERNELS:
            if kernel_grid.work(form, a, kernel):
                cards.add(intsets._cardinality(form, a, kernel))
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
        assert pick == intsets._plan(LinearForm(kernel_grid.FORMS[name]).coefficients, a, "auto")
    assert lines[3].startswith("worst auto/fastest: ")
    assert lines[4] == "fitted _KERNEL_NS:"
    assert [line.split(":")[0].strip() for line in lines[5:]] == [f"'{k}'" for k in kernel_grid.KERNELS]
