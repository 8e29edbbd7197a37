"""The benchmark's own tests: toy-size runs end to end, exact counters.

Each call runs perfbench/run.py in --smoke mode, which builds two or three
small jobs per workload, so the whole file takes a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
from tracer import EXACT, METRICS  # noqa: E402

WORKLOADS = ("check", "decompose", "rebuild")


def smoke(workload, seed, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=120)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    record, result = parse(smoke(workload, 1, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        bench.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["error_rate"] == 0
    # the times as the wall clock read them, next to the corrected ones
    assert set(record["wall_clock"]) == {
        "jobs_per_s", "job_p50_s", "job_tail_s", "setup_s"}
    assert record["host_load"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    rec_a, res_a = parse(smoke(workload, 7, 1))
    rec_b, res_b = parse(smoke(workload, 7, 1))
    assert res_a["correct"] and res_b["correct"]
    assert set(res_a["metrics"]) == {name for name, _u, _b in METRICS}
    for name in EXACT:
        assert res_a["metrics"][name] == res_b["metrics"][name], name
    assert rec_a["outputs_sha256"] == rec_b["outputs_sha256"]
    assert rec_a["inputs_sha256"] == rec_b["inputs_sha256"]
    if workload == "check":
        # the check command scans exactly once per job
        assert res_a["metrics"]["decompose.scans_per_job"]["value"] == 1.0


def test_seed_changes_the_inputs():
    rec_a, _ = parse(smoke("check", 1, 0))
    rec_b, _ = parse(smoke("check", 2, 0))
    assert rec_a["inputs_sha256"] != rec_b["inputs_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = smoke("check", 1, 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_keeps_ten_jobs_above():
    times = [float(i) for i in range(1, 33)]
    value, pct = bench.tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == 100.0 * 22 / 32
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
