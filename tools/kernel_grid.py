"""Time each image kernel on a grid of sets and fit auto's cost model.

A cell is a form (2x+y, x+y, x-y or x+y+z) and a random n-element subset
of [0, n/density).  In each cell the script times image_cardinality, which
runs the kernel that intsets._plan picks ("auto"), and each kernel by its
label (merge, and the big-int and the word-array bitset folds) run
through intsets._cardinality, the dispatch that image_cardinality calls
once it has planned its kernel, and checks that they all count the same
image.  A kernel whose first work count is beyond
LIMITS is not run: it would take well over 0.1 s, and a cell where no
kernel runs is skipped.  It prints one row per cell (times in
microseconds, the fastest kernel, auto's pick and auto's time over the
fastest), then each kernel's constants refitted by least squares on log
time, in the units of intsets._KERNEL_NS.

    PYTHONPATH=src python tools/kernel_grid.py [--cells N]

The full grid of 120 cells takes about half a minute on a 2-CPU Xeon.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import time

import numpy as np

from linform import intsets
from linform.intsets import FiniteIntSet, LinearForm

FORMS = {"2x+y": (2, 1), "x+y": (1, 1), "x-y": (1, -1), "x+y+z": (1, 1, 1)}
SIZES = (8, 32, 128, 512, 2048, 4096)
DENSITIES = (1, 0.1, 0.01, 1e-3, 5e-4)
KERNELS = ("merge", "big-int", "word")
# Largest first work count (tuples or words, see work) of a kernel that the grid runs.
LIMITS = {"merge": 1 << 24, "big-int": 1 << 26, "word": 1 << 30}


def cells() -> list[tuple[str, FiniteIntSet]]:
    """(form name, set) for every grid cell, smallest sets first."""
    rng = random.Random(0)
    out = []
    for n in SIZES:
        for density in DENSITIES:
            a = FiniteIntSet(rng.sample(range(max(n, round(n / density))), n))
            out += [(name, a) for name in FORMS]
    return out


@contextlib.contextmanager
def priced(kernel: str, ns: tuple[float, ...]):
    """Temporarily price the kernel's units at ns."""
    saved = intsets._KERNEL_NS[kernel]
    intsets._KERNEL_NS[kernel] = ns
    try:
        yield
    finally:
        intsets._KERNEL_NS[kernel] = saved


def work(form: LinearForm, a: FiniteIntSet, kernel: str) -> tuple[float, ...] | None:
    """The kernel's work counts on f(A), read off intsets._predicted_ns by
    pricing one unit at a time; None if the grid does not run it there."""
    counts = []
    for j in range(len(intsets._KERNEL_NS[kernel])):
        unit = tuple(float(i == j) for i in range(len(intsets._KERNEL_NS[kernel])))
        with priced(kernel, unit):
            counts.append(intsets._predicted_ns(form.coefficients, len(a), a[-1] - a[0]).get(kernel))
    return tuple(counts) if counts[0] is not None and counts[0] <= LIMITS[kernel] else None


def timed(form: LinearForm, a: FiniteIntSet, kernel: str) -> tuple[float, int]:
    """(best seconds per call, cardinality) of the kernel, or of image_cardinality if kernel is "auto".

    Each call gets a fresh set of A's elements, built in O(1) with an empty
    offsets cache, so that it pays for A's int64 conversion as a first call would.
    """
    def count() -> int:
        cold = FiniteIntSet._from_sorted(a.elements)
        return (intsets.image_cardinality(form, cold) if kernel == "auto"
                else intsets._cardinality(form, cold, kernel))

    start = time.perf_counter()
    card = count()
    first = time.perf_counter() - start
    reps = max(1, int(0.01 / max(first, 1e-7)))
    best = first
    for _ in range(2 if first > 0.05 else 3):
        start = time.perf_counter()
        for _ in range(reps):
            count()
        best = min(best, (time.perf_counter() - start) / reps)
    return best, card


def fit(samples: list[tuple[tuple[float, ...], float]]) -> np.ndarray:
    """Positive ns per unit c minimising sum(log(x @ c / t)**2), by Gauss-Newton on log c."""
    x = np.array([w for w, _ in samples])
    t = np.array([s for _, s in samples]) * 1e9
    p = np.full(x.shape[1], np.log(np.median(t / x.sum(axis=1))))
    for _ in range(200):
        c = np.exp(p)
        pred = x @ c
        step = np.linalg.lstsq(x * c / pred[:, None], np.log(t / pred), rcond=None)[0]
        p += np.clip(step, -1, 1)
    return np.exp(p)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cells", type=int, help="run only the first N cells")
    args = parser.parse_args(argv)
    samples: dict[str, list] = {k: [] for k in KERNELS}
    print(f"{'form':6} {'n':>5} {'span':>9}" + "".join(f"{k:>10}" for k in (*KERNELS, "auto"))
          + "  fastest  auto-pick  auto/fastest")
    worst = 0.0
    for name, a in cells()[:args.cells]:
        form = LinearForm(FORMS[name])
        times, cards = {}, set()
        for kernel in KERNELS:
            if (w := work(form, a, kernel)) is not None:
                times[kernel], card = timed(form, a, kernel)
                samples[kernel].append((w, times[kernel]))
                cards.add(card)
        if not times:
            continue
        auto, card = timed(form, a, "auto")
        if cards | {card} != {card}:
            raise RuntimeError(f"kernels disagree on {name}, n={len(a)}: {sorted(cards | {card})}")
        pick = intsets._plan(form.coefficients, a)
        fastest = min(times, key=times.get)
        worst = max(worst, auto / times[fastest])
        print(f"{name:6} {len(a):5} {a[-1] - a[0] + 1:9}"
              + "".join(f"{times[k] * 1e6:10.1f}" if k in times else f"{'-':>10}" for k in KERNELS)
              + f"{auto * 1e6:10.1f}  {fastest:8} {pick:9}  {auto / times[fastest]:.2f}")
    print(f"worst auto/fastest: {worst:.2f}")
    print("fitted _KERNEL_NS:")
    for kernel, s in samples.items():
        if s:
            c = fit(s)
            print(f"    {kernel!r}: ({', '.join(f'{x:.3g}' for x in c)}),  # {len(s)} cells")


if __name__ == "__main__":
    main()
