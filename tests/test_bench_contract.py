"""The benchmark's use of the package still works.

``perfbench/workloads.py`` imports public names of the package and calls
them with fixed signatures.  This test imports it unchanged and runs the
finite-difference check of the training workload and a few ops of each
workload with their checks and traced replays, so a change that deletes
or reshapes an API the benchmark uses fails here, not first in a
benchmark run.  The seed-1 inputs' fingerprints are pinned too: a change
of the generator that alters the benchmark's inputs fails here, instead
of making ``compare.py`` refuse to compare runs later.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import harness  # noqa: E402
import workloads  # noqa: E402


def fingerprint(workload, state) -> str:
    fp = harness.Fingerprint(workload.name)
    workload.fingerprint(state, fp)
    return fp.hexdigest()


def test_tiny_gradcheck():
    assert workloads.tiny_gradcheck() < 1e-4


def test_one_convert_corpus_op_passes_its_check():
    workload = workloads.WORKLOADS["convert-corpus"]
    state = workload.setup(seed=1)
    assert fingerprint(workload, state) == "ea19ec8e04ff9f2fb71147a2c6a0e4f29d3b5a50ea63269a10eff28b421af8e0"
    output = workload.op(state, 0)
    assert workload.check(state, 0, output) == []
    assert workload.traced_op(state, 0, harness.Tracer(), {}) == output


def test_parse_mixed_ops_pass_their_checks_and_replay():
    workload = workloads.WORKLOADS["parse-mixed"]
    state = workload.setup(seed=1)
    assert fingerprint(workload, state) == "de1c8163a338cd72e6c66ff646b2e3a5f26ca803341f41ee36add83c82970929"
    for k in range(3):
        graph = workload.op(state, k)
        assert workload.check(state, k, graph) == []
        traced = workload.traced_op(state, k, harness.Tracer(), {})
        assert workload.signature(traced) == workload.signature(graph)


def test_one_train_n30_op_passes_its_check_and_replays():
    # The traced half of a run restores the snapshot taken before an op
    # and replays it; the outputs must match.  Step 0 first, so that the
    # snapshot holds a populated optimizer state, and two ops after it, so
    # that the second one shows whether that state was restored too.
    workload = workloads.WORKLOADS["train-n30"]
    state = workload.setup(seed=1)
    assert fingerprint(workload, state) == "7c62f2dc30f4788a08ea7338ff4e37fbaa690850e548b8b55495013d52655863"
    workload.op(state, 0)
    snap = workload.snapshot(state)
    first = [workload.op(state, k) for k in (1, 2)]
    assert workload.check(state, 1, first[0]) == []
    workload.restore(state, snap)
    # Restoring copies into the model's array: the tensors, the gradient
    # buffers and ``save`` still read the same memory.
    params = state.params
    assert all(np.shares_memory(arr, params.values) for arr in params.tensors.values())
    assert [workload.op(state, k) for k in (1, 2)] == first
    workload.restore(state, snap)
    tracer = harness.Tracer()
    counts = {1: {}, 2: {}}
    assert [workload.traced_op(state, k, tracer, counts[k]) for k in (1, 2)] == first
    # Every marked node is a candidate child of every other nonterminal.
    for k in (1, 2):
        graph = state.graphs[k]
        marked = {e.child for e in graph.remote_edges}
        assert marked
        assert counts[k]["remote_recovery.pairs"] == len(marked) * (len(graph.nonterminals) - 1)
