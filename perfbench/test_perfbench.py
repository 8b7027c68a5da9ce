"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The slow test runs each workload's traced run twice with one seed (about
two minutes on two cores) and requires every count metric to repeat
exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402


def _run(tmp_path, workload: str, seed: int, tag: str) -> dict:
    out = tmp_path / f"{workload}-{tag}.json"
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0.5", "--trace", "1", "--out", str(out),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(out.read_text())
    assert last == record["result"]
    return record


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_count_metrics_repeat_exactly(tmp_path, workload):
    first = _run(tmp_path, workload, seed=5, tag="a")
    second = _run(tmp_path, workload, seed=5, tag="b")
    assert first["fingerprint"] == second["fingerprint"]
    for record in (first, second):
        assert record["result"]["correct"], record["problems"]
        assert record["result"]["failed"] == 0
    units = run.per_layer_units()
    counts = [name for name, unit in units.items() if unit in ("count/op", "ratio")]
    assert counts
    metrics = [r["result"]["metrics"] for r in (first, second)]
    for name in counts:
        assert metrics[0][name]["value"] == metrics[1][name]["value"], name
    assert set(metrics[0]) == set(units)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100
    value, percentile, beyond = harness.tail(values)
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_gauge_scales_each_op_by_the_reference_runs_around_it():
    gauge = harness.HostGauge(warmup=0)

    def op(k):
        if k == 2:
            time.sleep(gauge.INTERVAL_S)  # a long op: the reference runs after it
        return k

    loop = harness.closed_loop(
        op, lambda k, output: [], first_op=1, more=lambda r: r.attempted < 4, gauge=gauge
    )
    # Before op 1, after op 2, and after the last op; ops 1 and 2 share a bracket.
    assert len(gauge.samples) == 3
    assert sorted(loop.scaled) == [1, 2, 3, 4]
    for k, (before, after) in ((1, (0, 1)), (2, (0, 1)), (3, (1, 2)), (4, (1, 2))):
        reference = (gauge.samples[before] + gauge.samples[after]) / 2
        assert loop.scaled[k] == pytest.approx(loop.durations[k] * gauge.NOMINAL_S / reference)
    assert loop.scaled_seconds == pytest.approx(sum(loop.scaled.values()))


def test_self_time_excludes_child_spans():
    tracer = harness.Tracer()
    tracer.op_id = 7
    tracer.spans = [
        ["op", 0.0, 10.0, -1, 7],
        ["a", 1.0, 4.0, 0, 7],
        ["b", 2.0, 3.0, 1, 7],
        ["a", 5.0, 6.0, 0, 7],
    ]
    assert tracer.self_times() == {7: {"op": 6.0, "a": 3.0, "b": 1.0}}


def test_fails_without_the_package(tmp_path):
    """Next to BENCHMARK.json alone, the benchmark exits non-zero, printing no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", "convert-corpus",
        "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
