"""The linform benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: dense-construct, sparse-image, prime-locals, small-witnesses
(see tasks.py for what each exercises and why).  Run from anywhere; the
library is imported from the ``src`` directory next to ``perfbench``.

Set-up is timed in fresh processes (start to ``ready``: interpreter,
``import linform`` and building the seeded inputs) and reported as the
median of several.  The workload runs in one more process, single-threaded,
as whole passes over its task list for about ``--seconds``; that process's
peak resident memory is the library's, because every oracle runs here, in
the parent, after the worker has exited.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes, times each ``verify`` check once, writes the
spans to ``perfbench/out/`` and prints the per-layer metrics.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
An operation is one task of the workload's list (for example one
``classify_triples`` call, or ``crt_product`` -> ``rectify`` ->
``image_cardinality`` on one prefix); it is the unit of ``attempted``,
``failed`` and the latency metrics.  An operation fails when it raises or
returns a value its oracle rejects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tasks  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 4
WORKER_GRACE_S = 150


def _provenance(workload: str, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": list(os.getloadavg()),
            "commit": _git_commit(), "workload": workload, "seed": seed}


def _git_commit() -> str:
    """HEAD's commit, or "unknown" outside a git clone."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("LINFORM_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start_worker(args: argparse.Namespace, *extra: str) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for its ready line; returns (set-up seconds, process)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if json.loads(line or "{}").get("ready") is not True:
            raise RuntimeError("worker did not become ready")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return setup, proc


def _finish_worker(proc: subprocess.Popen, timeout: float) -> dict | None:
    """Wait for the worker; its last stdout line, if any, is its result.

    The worker is killed if waiting fails for any reason, including this
    process being interrupted or terminated.
    """
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _measure(args: argparse.Namespace) -> tuple[list[float], list[float], dict]:
    """Set-up seconds of every worker start, calibrations taken between them
    (never while a worker runs), and the run's result."""
    setups, calibrations = [], [tracing.calibration_seconds()]
    probes = 0 if args.trace else SETUP_PROBES
    for probe in range(probes + 1):
        setup, proc = _start_worker(args, *(["--setup-only"] if probe < probes else []))
        setups.append(setup)
        doc = _finish_worker(proc, (args.seconds if probe == probes else 0) + WORKER_GRACE_S)
        calibrations.append(tracing.calibration_seconds())
    if doc is None:
        raise RuntimeError("worker printed no result")
    return setups, calibrations, doc


def _check(workload: str, seed: int, doc: dict) -> tuple[int, int, list[str]]:
    """Oracle verdicts on the worker's first-pass results; (attempted, failed, reasons)."""
    task_list = tasks.make_tasks(workload, seed, ROOT)
    failed = 0
    reasons = list(doc["errors"])
    for i, (task, result) in enumerate(zip(task_list, doc["results"])):
        reason = oracles.check_task(task, result)
        if reason is not None:
            failed += doc["task_runs"][i]
            reasons.append(f"task {i} ({task['kind']}): {reason}")
        else:
            failed += doc["task_failed"][i]
    if len(doc["results"]) != len(task_list):
        reasons.append("worker returned the wrong number of results")
        failed = max(failed, 1)
    return sum(doc["task_runs"]), failed, reasons


def _spec_metrics(spec: list[dict], values: dict) -> dict:
    """Values for exactly the metrics BENCHMARK.json names, with its units.

    A per-call metric of a call this workload never makes reads 0; any other
    missing name is an error, so a typo cannot turn into a silent zero.
    """
    out = {}
    for metric in spec:
        name = metric["name"]
        if name not in values:
            call = name.rsplit(".", 1)[0]
            if values.get(f"{call}.calls", None) != 0:
                raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": values.get(name, 0), "unit": metric["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="linform benchmark")
    parser.add_argument("--workload", required=True, choices=tasks.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "linform" / "__init__.py").is_file():
        print(f"error: no linform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    print("provenance: " + json.dumps(_provenance(args.workload, args.seed)))
    setups, setup_calibrations, doc = _measure(args)
    attempted, failed, reasons = _check(args.workload, args.seed, doc)
    for reason in reasons[:20]:
        print(f"rejected: {reason}")
    walls = doc["walls"]
    print("untraced pass walls, raw (s): " + " ".join(f"{w:.4f}" for w in walls))
    if args.trace:
        print("traced pass walls (s): " + " ".join(f"{w:.4f}" for w in doc["traced_walls"]))
    print(f"failed_frac = {failed / attempted} ({failed}/{attempted} operations)")

    if not args.trace:
        speed = tracing.speed_factor(doc["calibrations"])
        setup_speed = tracing.speed_factor(setup_calibrations)
        print(f"speed factor {speed:.4f} (run), {setup_speed:.4f} (set-up): "
              f"reference {tracing.CALIBRATION_REFERENCE_S * 1e3:g} ms / median calibration")
        print("set-up seconds, raw: " + " ".join(f"{x:.4f}" for x in setups))
        scaled = [w * speed for w in walls]
        q1, _, q3 = statistics.quantiles(scaled, n=4) if len(scaled) > 1 else (scaled[0],) * 3
        lat = tracing.latency_summary([x * speed for x in doc["samples"]])
        values = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(setups) * setup_speed,
            "peak_rss_mb": doc["peak_rss_kb"] * 1024 / 1e6,
            "op_p50_ms": lat["p50_ms"],
            "op_tail_ms": lat["tail_ms"],
        }
        notes = {
            "wall_s": f"median of {len(walls)} passes, quartiles {q1:.4f} / {q3:.4f}; speed-scaled",
            "setup_s": f"median of {len(setups)} process starts; speed-scaled",
            "peak_rss_mb": "worker process, library only",
            "op_p50_ms": f"{lat['samples']} operations",
            "op_tail_ms": f"p{lat['tail_pct']:g} of {lat['samples']} operations, {lat['beyond_tail']} beyond",
        }
        metrics = _spec_metrics(spec["end_to_end"], values)
        for name, value in values.items():
            unit = metrics[name]["unit"] if name in metrics else "ms"
            gated = "" if name in metrics else "; printed only, not in BENCHMARK.json"
            print(f"{name} = {value:.6g} {unit}  ({notes[name]}{gated})")
        correct = failed == 0
    else:
        metrics = _spec_metrics(spec["per_layer"], doc["per_layer"])
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print("computed counts (from input sizes at the call boundary): "
              "tuples, word_ops, classes_enumerated, pairs, candidates; "
              f"repeat across traced passes: {doc['counts_repeat']}")
        print("no waiting time: the library is single-threaded and has no queues")
        print(f"spans written to {doc['trace_file']}; busy and self times are raw seconds")
        correct = failed == 0 and doc["counts_repeat"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
