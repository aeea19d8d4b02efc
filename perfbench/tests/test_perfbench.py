"""The benchmark's own tests, on the smoke sizes (about a minute):

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402


def bench(root, workload, trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checkout(tmp_path, with_src=True):
    """A copy of what the benchmark needs, to corrupt without touching the repo."""
    skip = shutil.ignore_patterns("results", "__pycache__", "tests")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        shutil.copytree(ROOT / "src" / "cycle_census",
                        tmp_path / "src" / "cycle_census", ignore=skip)
    return tmp_path


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    proc = bench(ROOT, workload, trace)
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = {m["name"] for m in SPEC[kind]}
    assert set(res["metrics"]) == names
    printed = {tuple(line.split()[:3:2]) for line in proc.stdout.splitlines()}
    for metric in SPEC[kind]:
        assert res["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert (metric["name"], metric["unit"]) in printed
    assert ("fail_ratio", "ratio") in printed
    if workload == "sweep" and not trace:
        assert {("census_p50_ms", "ms"), ("census_p90_ms", "ms")} <= printed


def _corrupt_sweep(expected):
    row = next(r for r in expected["sweep"]["rows"] if r["name"] == "c5")
    row["report"]["n_cycle_count"] += 1


def _corrupt_m23(expected):
    expected["verdicts"]["m11"]["class_count"] += 1


def _corrupt_density(expected):
    expected["density"]["10000"]["inert_count"] += 1


@pytest.mark.parametrize("workload,corrupt", [
    ("sweep", _corrupt_sweep), ("m23", _corrupt_m23), ("density", _corrupt_density)])
def test_a_corrupted_expected_output_counts_in_fail_ratio(tmp_path, workload, corrupt):
    root = checkout(tmp_path)
    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    corrupt(expected)
    path.write_text(json.dumps(expected))
    proc = bench(root, workload)
    res = result(proc)
    assert not res["correct"]
    assert res["failed"] == 1
    assert f"fail_ratio {1 / res['attempted']:.6g} ratio" in proc.stdout


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    proc = bench(checkout(tmp_path, with_src=False), "sweep")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_vanished_boundary_is_reported_absent(tmp_path):
    root = checkout(tmp_path)
    path = root / "src" / "cycle_census" / "census.py"
    path.write_text(path.read_text().replace("_structure_tower", "_tower_renamed"))
    proc = bench(root, "sweep", trace=1)
    res = result(proc)
    assert res["correct"]
    assert res["metrics"]["trace.absent_layers"]["value"] == 1
    assert res["metrics"]["census.tower.calls"]["value"] == 0
    assert "absent: cycle_census.census._structure_tower" in proc.stdout


def test_self_time_excludes_child_spans():
    spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0],
             ["b", 0, 5.0, 6.0]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
