"""The process that runs one workload against the library.

Started by run.py, never by hand.  It imports linform from the checkout's
``src``, builds the seeded inputs, prints a ``ready`` line (the end of
set-up), then runs whole passes over the task list until the next pass
would overrun ``--seconds``.  Its last stdout line is one JSON document
with the pass times, operation latencies, speed calibrations, peak memory,
first-pass results (checked by run.py's oracles in another process) and,
when traced, the per-layer metrics.  Spans stay in memory and are written
to ``perfbench/out/`` at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def _emit(doc: dict) -> None:
    # The real stdout: CLI calls inside tasks redirect sys.stdout.
    sys.__stdout__.write(json.dumps(doc) + "\n")
    sys.__stdout__.flush()


def _import_library() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import linform

    if Path(linform.__file__).resolve().parent != src / "linform":
        raise SystemExit(f"linform imported from {linform.__file__}, not from {src}")


class Run:
    """Results, per-task accounting and task latencies across the passes of one run.

    A task is the unit of the failure counts and of the latency samples;
    a task fails when it raises or returns something other than in the
    first pass (the oracles then check the first pass's results).
    """

    def __init__(self, objs: list[dict]) -> None:
        self.objs = objs
        self.first: list | None = None
        self.task_runs = [0] * len(objs)
        self.task_failed = [0] * len(objs)
        self.errors: list[str] = []
        self.samples: list[float] = []

    def one_pass(self, rec, ops, pass_idx: int) -> float:
        """Run every task once; returns the pass's seconds, excluding calibrations."""
        results, total = [], 0.0
        for i, obj in enumerate(self.objs):
            start, calibrating = time.perf_counter(), rec.calibration_s
            rec.begin_op(pass_idx * len(self.objs) + i, obj["kind"])
            try:
                result = ops.run(obj, rec)
                raised = False
            except Exception as exc:  # a failing task is counted, never fatal
                result, raised = None, True
                if len(self.errors) < 10:
                    self.errors.append(f"task {i} ({obj['kind']}): {exc!r}")
            finally:
                rec.end_op()
            elapsed = time.perf_counter() - start - (rec.calibration_s - calibrating)
            total += elapsed
            if not rec.traced:
                self.samples.append(elapsed)
            self.task_runs[i] += 1
            if raised or (self.first is not None and result != self.first[i]):
                self.task_failed[i] += 1
            results.append(result)
        if self.first is None:
            self.first = results
        return total


def _fits(walls: list[float], started: float, seconds: float) -> bool:
    """Whether another pass ends within the budget."""
    if not walls:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def _layer_metrics(aggs: list[dict], ops) -> tuple[dict, bool]:
    """Flat per-layer metrics: busy times are medians over traced passes,
    counts come from the first traced pass and must repeat in the others."""
    def counts_of(agg):
        return {name: (entry["calls"], dict(entry["counts"])) for name, entry in agg["calls"].items()}

    repeat = all(counts_of(a) == counts_of(aggs[0]) for a in aggs[1:])
    first = aggs[0]["calls"]
    m: dict[str, float] = {}

    def busy(name):
        return statistics.median(a["calls"][name]["busy_s"] if name in a["calls"] else 0.0 for a in aggs)

    for name in ops.CALL_NAMES:
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.calls"] = first[name]["calls"] if name in first else 0
        for key, value in (first[name]["counts"] if name in first else {}).items():
            m[f"{name}.{key.removeprefix('min_')}"] = value
    m["intsets.image_cardinality.out_per_s"] = (
        m.get("intsets.image_cardinality.outputs", 0) / m["intsets.image_cardinality.busy_s"]
        if m["intsets.image_cardinality.busy_s"] else 0.0)
    m["numtheory.find_primes.yield"] = (
        m["numtheory.find_primes.primes"] / m["numtheory.find_primes.candidates"]
        if m.get("numtheory.find_primes.candidates") else 0.0)
    m["smallsets.witness.busy_s"] = sum(m[f"{name}.busy_s"] for name in ops.WITNESS_CALLS)
    for layer in ops.LAYERS:
        m[f"{layer}.self_s"] = statistics.median(
            a["layers"][layer]["self_s"] if layer in a["layers"] else 0.0 for a in aggs)
        m[f"{layer}.failed"] = sum(a["layers"][layer]["failed"] if layer in a["layers"] else 0
                                   for a in aggs)
    return m, repeat


def _time_verify_checks(tracing) -> dict:
    """Each verify check once, as a span; headroom = budget / measured seconds."""
    from linform import verify

    tracer = tracing.Tracer({})
    m: dict[str, float] = {}
    failed = 0
    for name, fn, budget in verify.CHECKS:
        try:
            tracer.call(f"verify.{name}", fn)
        except Exception:  # CheckFailure, or a crash: both count as a failed check
            failed += 1
        span = tracer.spans[-1]
        key = name.replace("+", "-plus-")
        m[f"verify.{key}.headroom"] = budget / (span[2] - span[1])
    agg = tracing.aggregate(tracer.spans)
    m["verify.self_s"] = agg["layers"]["verify"]["self_s"]
    m["verify.failed"] = failed
    return {"metrics": m, "spans": tracer.spans}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_library()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import ops
    import tasks
    import tracing

    objs = [ops.prepare(task) for task in tasks.make_tasks(args.workload, args.seed, ROOT)]
    _emit({"ready": True})
    if args.setup_only:
        return 0

    run = Run(objs)
    started = time.perf_counter()
    doc: dict = {"workload": args.workload, "seed": args.seed}
    if not args.trace:
        rec = tracing.Calls(calibrate=True)
        walls: list[float] = []
        while _fits(walls, started, args.seconds):
            walls.append(run.one_pass(rec, ops, len(walls)))
        doc.update(walls=walls, samples=run.samples, calibrations=rec.calibrations,
                   peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    else:
        # Alternate untraced and traced passes, so drift hits both alike.
        walls, traced_walls, aggs, spans = [], [], [], []
        while _fits([w + t for w, t in zip(walls, traced_walls)], started, args.seconds):
            walls.append(run.one_pass(tracing.Calls(), ops, len(walls) + len(traced_walls)))
            tracer = tracing.Tracer(ops.COUNTERS)
            traced_walls.append(run.one_pass(tracer, ops, len(walls) + len(traced_walls)))
            aggs.append(tracing.aggregate(tracer.spans))
            spans.append(tracer.spans)
        metrics, repeat = _layer_metrics(aggs, ops)
        checks = _time_verify_checks(tracing)
        metrics.update(checks["metrics"])
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["name", "start", "end", "parent", "op_id", "failed", "counts"],
            "passes": spans, "verify": checks["spans"], "metrics": metrics}))
        doc.update(walls=walls, traced_walls=traced_walls, per_layer=metrics,
                   counts_repeat=repeat, trace_file=str(trace_file.relative_to(ROOT)))
    doc.update(results=run.first, task_runs=run.task_runs, task_failed=run.task_failed,
               errors=run.errors)
    _emit(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
