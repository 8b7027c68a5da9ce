"""The benchmark's use of the package still works.

``perfbench/workloads.py`` imports public names of the package and calls
them with fixed signatures.  This test imports it unchanged and runs the
finite-difference check of the training workload and one convert-corpus
op with its correctness check, so a change that deletes or reshapes an
API the benchmark uses fails here, not first in a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


def test_tiny_gradcheck():
    assert workloads.tiny_gradcheck() < 1e-4


def test_one_convert_corpus_op_passes_its_check():
    workload = workloads.WORKLOADS["convert-corpus"]
    state = workload.setup(seed=1)
    output = workload.op(state, 0)
    assert workload.check(state, 0, output) == []
