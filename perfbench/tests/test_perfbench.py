"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench/tests

The oracle tests run one pass of every workload in-process (about 25 s);
the smoke tests run the benchmark command on every workload, untraced and
traced (a few minutes, most of it the traced runs' verify checks).
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tasks  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(tasks.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(tasks.WORKLOADS)
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


# ---------------------------------------------------------------------------
# oracles: accept the library's real answers, reject an injected wrong one


def _bump(path):
    """A mutation adding 1 to the cardinality at ``path`` inside a result."""
    def mutate(result):
        node = result
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += 1
    return mutate


CLI_FIELDS = {"image": ("cardinality",), "compare": ("f_card",), "classify3": ("exceptional", 0, "cardinality"),
              "four": ("f_of_a",), "five": ("f_card",), "ap": ("g_card",)}

MUTATIONS = {
    "packaged-direct": _bump(("f_card",)),
    "materialise": _bump(("cards", 1)),
    "image": _bump(("card",)),
    "qr-locals": _bump(("locals", -1, 2)),
    "kpower-locals": _bump(("locals", 0, 3)),
    "find-primes": _bump(("primes", 7)),
    "ratio-search": _bump(("f_card",)),
    "classify": _bump(("pairs", 0, 1)),
    "four": _bump(("cards", 3)),
    "three": _bump(("cards", 0)),
    "five": _bump(("d_card",)),
    "ap": _bump(("cards", 0)),
    "amplify": _bump(("cards", 2)),
    "crt": _bump(("mod_card",)),
}


def _mutate(task, result):
    if task["kind"] == "cli":
        _bump(("doc", "outputs") + CLI_FIELDS[task["params"]["kind"]])(result)
    else:
        MUTATIONS[task["kind"]](result)


@pytest.fixture(scope="module")
def library_results():
    import ops

    out = {}
    for workload in tasks.WORKLOADS:
        task_list = tasks.make_tasks(workload, 11, ROOT)
        rec = tracing.Calls()
        out[workload] = (task_list, [ops.run(ops.prepare(t), rec) for t in task_list])
    return out


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_oracles_accept_real_and_reject_injected_cardinalities(library_results, workload):
    task_list, results = library_results[workload]
    kinds = set()
    for task, result in zip(task_list, results):
        result = json.loads(json.dumps(result))  # as the parent process receives it
        assert oracles.check_task(task, result) is None, task["kind"]
        wrong = copy.deepcopy(result)
        _mutate(task, wrong)
        assert oracles.check_task(task, wrong) is not None, f"{task['kind']} accepted a wrong value"
        kinds.add(task["kind"])
    assert oracles.check_task(task_list[0], None) == "task raised"
    assert kinds <= set(oracles.CHECKS)


def test_generic_closed_forms_match_a_recount():
    elems = [10**40 + 147**k for k in range(9)]  # base-147 digits: no additive coincidences
    for coeffs in ((1, 1), (1, -1), (2, 1), (1, 1, 1)):
        assert oracles.generic_count(coeffs, len(elems)) == len(oracles.brute_image(coeffs, elems))


# ---------------------------------------------------------------------------
# tracing arithmetic


def test_self_time_subtracts_children_and_counts_sum():
    spans = [
        ["bench.task", 0.0, 10.0, -1, 0, False, None],
        ["intsets.image_cardinality", 1.0, 4.0, 0, 0, False, {"tuples": 5}],
        ["intsets.image_cardinality", 5.0, 6.0, 0, 0, True, {"tuples": 7}],
        ["modular.local_ratio_search", 6.0, 7.0, 0, 0, False, {"min_best_ratio": 0.5}],
        ["modular.local_ratio_search", 7.0, 8.0, 0, 0, False, {"min_best_ratio": 0.25}],
    ]
    agg = tracing.aggregate(spans)
    assert agg["layers"]["bench"]["self_s"] == pytest.approx(4.0)
    assert agg["layers"]["intsets"] == {"self_s": pytest.approx(4.0), "failed": 1}
    image = agg["calls"]["intsets.image_cardinality"]
    assert (image["busy_s"], image["calls"], image["counts"]["tuples"]) == (4.0, 2, 12)
    assert agg["calls"]["modular.local_ratio_search"]["counts"]["min_best_ratio"] == 0.25


def test_word_ops_counted_only_when_auto_picks_the_bitset_kernel():
    import random

    import ops
    from linform import intsets

    rng = random.Random(3)
    sets = [list(range(0, 3000, 7)),                              # dense: bitset
            [0, 1, 800 * 750, 800 * 751],                         # small, wide: pairs
            sorted(rng.sample(range(10**6), 2100)),               # many tuples: bitset
            sorted(rng.sample(range(10**9), 2100)),               # too wide: merge
            sorted(rng.sample(range(10**5), 40))]
    picked = set()
    for elems in sets:
        a = intsets.FiniteIntSet(elems)
        for coeffs in ((1, 1), (2, 1), (1, -1), (1, 1, 1)):
            form = intsets.LinearForm(coeffs)
            terms = [sorted({c * x for x in elems}) for c in coeffs]
            auto = intsets._choose_strategy(terms, "auto")
            picked.add(auto)
            counts = ops._image_counts((form, a), 0)
            assert (counts["word_ops"] > 0) == (auto == "bitset"), (len(elems), coeffs, auto)
    assert picked == {"bitset", "pairs", "merge"}


def test_tail_is_the_highest_grid_percentile_with_ten_samples_beyond():
    assert tracing.latency_summary([0.001] * 999 + [1.0])["tail_pct"] == 99.0
    assert tracing.latency_summary([0.001] * 999)["tail_pct"] == 90.0
    assert tracing.latency_summary([0.001] * 15)["tail_pct"] == 50.0
    assert tracing.latency_summary([0.001, 0.002, 0.003])["p50_ms"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# the command itself


def _run(root: Path, workload: str, trace: int, seed: int = 5) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_smoke_prints_every_named_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        value = doc["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0
    assert "provenance: " in proc.stdout and "failed_frac = 0.0" in proc.stdout
    if trace:
        assert "no waiting time" in proc.stdout
        assert (ROOT / "perfbench" / "out" / f"trace-{workload}-seed5.json").is_file()


def test_computed_counts_repeat_across_traced_runs():
    counts = []
    for _ in range(2):
        doc = json.loads(_run(ROOT, "prime-locals", 1).stdout.strip().splitlines()[-1])
        counts.append({k: v["value"] for k, v in doc["metrics"].items()
                       if v["unit"] == "count" and not k.endswith(".failed")})
    assert counts[0] == counts[1] and counts[0]["numtheory.find_primes.candidates"] > 0


def test_fails_without_a_printed_result_in_a_bare_directory(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "small-witnesses", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
