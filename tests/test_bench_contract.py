"""The benchmark's use of the package still works.

``perfbench/workloads.py`` imports public names of the package and calls
them with fixed signatures.  This test imports it unchanged and runs the
finite-difference check of the training workload, one train-n30 op with
its replay and one convert-corpus op with its correctness check, so a
change that deletes or reshapes an API the benchmark uses fails here,
not first in a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import harness  # noqa: E402
import workloads  # noqa: E402


def test_tiny_gradcheck():
    assert workloads.tiny_gradcheck() < 1e-4


def test_one_convert_corpus_op_passes_its_check():
    workload = workloads.WORKLOADS["convert-corpus"]
    state = workload.setup(seed=1)
    output = workload.op(state, 0)
    assert workload.check(state, 0, output) == []


def test_one_train_n30_op_passes_its_check_and_replays():
    # The traced half of a run restores the snapshot taken before an op
    # and replays it; the outputs must match.  Step 0 first, so that the
    # snapshot holds a populated optimizer state, and two ops after it, so
    # that the second one shows whether that state was restored too.
    workload = workloads.WORKLOADS["train-n30"]
    state = workload.setup(seed=1)
    workload.op(state, 0)
    snap = workload.snapshot(state)
    first = [workload.op(state, k) for k in (1, 2)]
    assert workload.check(state, 1, first[0]) == []
    workload.restore(state, snap)
    assert [workload.op(state, k) for k in (1, 2)] == first
    workload.restore(state, snap)
    tracer = harness.Tracer()
    assert [workload.traced_op(state, k, tracer, None) for k in (1, 2)] == first
