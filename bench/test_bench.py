"""Tests of the benchmark itself: its metric names and that its output gate is live."""

import json
import shutil
import subprocess
import sys

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import bench_workloads as bw  # noqa: E402
from modtwist import factorization  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small_run(monkeypatch):
    """One setup sample per repetition and one cold CLI call before and after."""
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(bw, "CLI_CALLS", 1)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == run.WORKLOAD_NAMES == list(bw.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", [bw.PendantStream(), bw.FreshQueries()])
def test_stream_passes_hold_distinct_inputs(workload, monkeypatch):
    monkeypatch.setattr(bw, "PENDANT_PASS", 50)
    monkeypatch.setattr(bw, "FRESH_PASS", 50)
    three = workload.inputs(1, passes=3)
    assert len(three) == 150 and len(set(map(repr, three))) == 150
    assert three[:50] == workload.inputs(1)


def test_clean_run_reports_every_end_to_end_metric(small_run):
    result, record = run.run(bw.PendantStream(), seed=1, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_REPEATS * bw.PENDANT_PASS + 2
    assert record["samples"]["processes"] == run.MIN_REPEATS
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["failed_frac"] == 0


def test_timed_enumerate_leaves_out_the_traced_only_cases(small_run):
    result, record = run.run(bw.Enumerate(), seed=1, seconds=0, trace=False)
    assert result["correct"]
    assert record["inputs"]["count"] == 10 - len(bw.Enumerate.traced_only) == 8


def test_wrong_expected_count_is_reported():
    # the pass that each repetition process of a timed enumerate run executes
    workload = bw.Enumerate(expected={(1, 0): (26, 42)})
    out = run.child_pass(workload, workload.inputs(seed=1))
    assert len(out["latencies"]) == 2
    assert len(out["failures"]) == 1 and "expected 26" in out["failures"][0]
    result = run.result_line({}, {}, len(out["latencies"]), out["failures"])
    assert not result["correct"] and result["failed"] == 1


def copy_benchmark(dest, with_source: bool):
    shutil.copy(run.ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(run.ROOT / "bench", dest / "bench", ignore=ignore)
    if with_source:
        shutil.copytree(run.SRC, dest / "src", ignore=ignore)


def run_benchmark(cwd, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_corrupted_factorization_is_reported(tmp_path):
    copy_benchmark(tmp_path, with_source=True)
    # swap the factors of every canonical factorization in the copy
    with open(tmp_path / "src" / "modtwist" / "factorization.py", "a") as source:
        source.write(
            "\n_canonical = canonical_2factorizations\n\n\n"
            "def canonical_2factorizations(g):\n"
            "    return [pair(f.factors[1], f.factors[0]) for f in _canonical(g)]\n"
        )
    done = run_benchmark(tmp_path, "pendant_stream")
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
    assert not result["correct"] and result["failed"] > 0
    assert record["failed_frac"] > 0
    assert any("multiplies to" in failure for failure in record["failures"])


def test_traced_run_reports_every_per_layer_metric(small_run, monkeypatch):
    monkeypatch.setattr(bw, "PENDANT_PASS", 200)
    before = factorization.canonical_2factorizations
    result, record = run.run(bw.PendantStream(), seed=1, seconds=0, trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.per_layer_units())
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["factorization.exists_2factorization.calls"] == 200
    assert metrics["necklace.monodromy.calls"] >= 200
    assert metrics["psl2.mul.calls"] > 0
    assert factorization.canonical_2factorizations is before  # wrappers removed


def test_refuses_to_run_without_the_package(tmp_path):
    copy_benchmark(tmp_path, with_source=False)
    done = run_benchmark(tmp_path, "enumerate")
    assert done.returncode != 0
    assert "correct" not in done.stdout
