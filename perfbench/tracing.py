"""Timing helpers: spans around library calls, percentiles, calibration.

Every call the benchmark makes into the library goes through ``call``.
Untraced, the call goes straight through (after an occasional speed
calibration).  Traced, it records a span (name, start, end, parent,
operation id, failed, counts) in memory; spans are aggregated per pass and
written out once the run ends.  Nothing here touches the library's code.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter
from typing import Callable

import numpy as np


class Calls:
    """Untraced mode: calls go straight through.

    With ``calibrate``, the calibration loop runs before a call
    whenever CALIBRATION_INTERVAL_S has passed since the last one; the time
    it takes is added up in ``calibration_s`` so callers can leave it out.
    """

    traced = False

    def __init__(self, calibrate: bool = False) -> None:
        self.calibrate = calibrate
        self.calibrations: list[float] = []
        self.calibration_s = 0.0
        self._next_calibration = 0.0

    def begin_op(self, op_id: int, name: str) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name: str, fn: Callable, *args, **kwargs):
        now = perf_counter()
        if self.calibrate and now >= self._next_calibration:
            self.calibrations.append(calibration_seconds())
            end = perf_counter()
            self.calibration_s += end - now
            self._next_calibration = end + CALIBRATION_INTERVAL_S
        return fn(*args, **kwargs)


class Tracer(Calls):
    """Traced mode: spans with parents, kept in memory.

    ``counters`` maps a call name to a function of (args, result)
    returning counts computed from input sizes at that boundary.
    """

    traced = True

    def __init__(self, counters: dict[str, Callable]) -> None:
        super().__init__()
        self.counters = counters
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self._op_id, False, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, failed: bool) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[2] = perf_counter()
        span[5] = failed

    def begin_op(self, op_id: int, name: str) -> None:
        self._op_id = op_id
        self._open(f"bench.{name}")

    def end_op(self) -> None:
        self._close(self._stack[-1], False)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)
        counter = self.counters.get(name)
        if counter is not None:
            self.spans[idx][6] = counter(args, result)
        return result


def aggregate(spans: list[list]) -> dict:
    """Per-name busy time, calls and summed counts, plus per-layer self time and failures.

    A span's self time is its duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, dict] = defaultdict(lambda: {"busy_s": 0.0, "calls": 0, "counts": defaultdict(int)})
    layers: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "failed": 0})
    for idx, (name, start, end, parent, _op, failed, counts) in enumerate(spans):
        entry = calls[name]
        entry["busy_s"] += end - start
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            if key.startswith("min_"):
                entry["counts"][key] = min(entry["counts"].get(key, value), value)
            else:
                entry["counts"][key] += value
        layer = layers[name.split(".", 1)[0]]
        layer["self_s"] += end - start - child_time[idx]
        layer["failed"] += failed
    return {"calls": calls, "layers": layers}


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


TAIL_GRID = (99.0, 90.0, 50.0)


def latency_summary(samples: list[float]) -> dict:
    """Median and tail latency in milliseconds.

    The tail is the highest percentile of a fixed grid (p99, p90, p50) with
    at least ten samples beyond it; a fixed grid keeps the reported
    percentile from drifting with the sample count between runs.  With
    fewer than twenty samples it falls back to p50 and says so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    q = next((q for q in TAIL_GRID if n * (100 - q) / 100 >= 10), 50.0)
    return {
        "p50_ms": percentile(ordered, 50) * 1e3,
        "tail_ms": percentile(ordered, q) * 1e3,
        "tail_pct": q,
        "samples": n,
        "beyond_tail": sum(1 for s in ordered if s > percentile(ordered, q)),
    }


# Machine-speed calibration.  Shared hosts drift in speed by tens of
# percent over minutes, so raw times of one run are not comparable with
# another's.  A fixed calibration loop (about 20 ms, pure Python and numpy,
# no linform) does a little of each class of work the library's kernels do,
# and a run's timings are scaled by CALIBRATION_REFERENCE_S / (median
# calibration time during the run): they read as seconds on a machine where
# the loop takes 20 ms.
CALIBRATION_REFERENCE_S = 0.020
CALIBRATION_INTERVAL_S = 0.25
_WIDE = (1 << 2_900_000) - 987_654_321  # the width of the dense prefix's image mask
_NARROW = (1 << 200_000) - 987_654_321
_BIG = 10**40


def _step(x: int) -> int:
    return x + 1


def calibration_seconds() -> float:
    """Seconds one run of the calibration loop takes.

    Its operands stay near 1 MB, so it adds little to a worker's peak memory.
    """
    start = perf_counter()
    acc = 0  # shift-and-or of wide masks, as in the bitset image kernel
    for k in range(12):
        acc |= _WIDE << k
    for k in range(150):
        acc |= _NARROW << k
    xs = [_BIG + k * 2_654_435_761 for k in range(120)]
    for _ in range(4):  # a hashed, sorted sumset, as in the sparse kernels
        sorted({x + y for x in xs for y in xs})
    for p in range(100_003, 101_003, 2):  # modular powers, as in the prime search
        acc ^= pow(2, p - 1, p)
    h = np.arange(1, 301, dtype=np.int64)
    for _ in range(3):  # an outer sum and bincount, as in coverage
        np.bincount(((3 * h[:, None] + h[None, :]) % 601).ravel(), minlength=601)
    x = 0
    for k in range(20_000):  # interpreted calls and small containers
        x = _step(x) + len({k, x & 7, 3})
    return perf_counter() - start


def speed_factor(calibrations: list[float]) -> float:
    return CALIBRATION_REFERENCE_S / statistics.median(calibrations)
