"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 4 5

Runs run.py once per seed for BENCHMARK.json's run_seconds and prints, per
metric, the median and the interquartile range as a share of the median
(statistics.quantiles, n=4), next to the metric's bound.  For wall_s and
setup_s it also prints the spread of the raw, unscaled times of the same
runs, which shows what the speed calibration takes out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RAW_LINES = {"wall_s": "untraced pass walls, raw (s): ", "setup_s": "set-up seconds, raw: "}


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {name: [] for name in RAW_LINES}
    for seed in args.seeds:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                             capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        doc = json.loads(lines[-1])
        if not doc["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
        for name, m in doc["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, prefix in RAW_LINES.items():
            line = next(line for line in lines if line.startswith(prefix))
            raw[name].append(statistics.median(float(x) for x in line[len(prefix):].split()))
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items())
              + " | raw " + " ".join(f"{k}={v[-1]:.5g}" for k, v in raw.items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        note = f"; raw median {statistics.median(raw[name]):.5g}, spread {_spread(raw[name]):.4f}" \
            if name in raw else ""
        print(f"{name}: median {statistics.median(vals):.5g}, spread {_spread(vals):.4f} "
              f"(bound {bounds[name]}){note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
