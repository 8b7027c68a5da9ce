"""Threads: only a parse starts one, the BiLSTM worker, and it changes no byte.

Each case runs in a fresh interpreter, because the worker of this test
process may already be running.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uccatree
from uccatree.generator import SyntheticSpec, generate
from uccatree.graph_model import dump_corpus

# Parses a fixed corpus with a fixed random model; prints the output lines
# and the names of the live threads.  ``cpu``: run on that one CPU only.
PARSE = """
import json, os, threading
if {cpu!r} is not None:
    os.sched_setaffinity(0, {{{cpu!r}}})
from uccatree.generator import SyntheticSpec, generate
from uccatree.neural_core import ModelParams
from uccatree.training import TrainConfig, build_model_config, parse_pipeline
graphs = generate(SyntheticSpec(sentences=10, min_tokens=3, max_tokens=30), seed=7)
config = TrainConfig(seed=3, lstm_hidden=40, mlp_hidden=30, remote_mlp_dim=10)
params = ModelParams.initialize(build_model_config(graphs, config), seed=3)
lines = [json.dumps(parse_pipeline(g.tokens, params).to_json(), sort_keys=True) for g in graphs]
print(json.dumps({{"lines": lines, "threads": [t.name for t in threading.enumerate()]}}))
"""

# Runs CLI commands in-process, then prints the names of the live threads.
CLI = """
import json, sys, threading
from uccatree.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps([t.name for t in threading.enumerate()]))
"""


def run_python(source: str, *args: str) -> str:
    src = str(Path(uccatree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", source, *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout.splitlines()[-1]


def parse_run(cpu: int | None = None) -> dict:
    return json.loads(run_python(PARSE.format(cpu=cpu)))


def test_import_starts_no_thread():
    source = (
        "import pkgutil, threading, uccatree\n"
        "for m in pkgutil.iter_modules(uccatree.__path__): __import__(f'uccatree.{m.name}')\n"
        "print(threading.active_count())"
    )
    assert run_python(source) == "1"


def test_convert_eval_and_stats_start_no_thread(tmp_path):
    corpus = str(tmp_path / "corpus.jsonl")
    dump_corpus(generate(SyntheticSpec(sentences=5), seed=1), corpus)
    commands = [
        ["convert", "--in", corpus, "--out", str(tmp_path / "trees.txt")],
        ["eval", "--gold", corpus, "--pred", corpus],
        ["stats", "--in", corpus],
    ]
    assert json.loads(run_python(CLI, json.dumps(commands))) == ["MainThread"]


def test_a_parse_leaves_exactly_one_worker():
    names = parse_run()["threads"]
    assert len(names) == 2
    assert names[0] == "MainThread" and names[1].startswith("uccatree-bilstm")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_one_cpu_parses_the_same_bytes():
    cpu = min(os.sched_getaffinity(0))
    assert parse_run(cpu)["lines"] == parse_run()["lines"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_gets_its_own_worker():
    source = PARSE.format(cpu=None) + (
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    import signal; signal.alarm(60)  # a child without a worker would wait forever\n"
        "    again = [json.dumps(parse_pipeline(g.tokens, params).to_json(), sort_keys=True)"
        " for g in graphs]\n"
        "    os._exit(0 if again == lines else 1)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
    )
    assert run_python(source) == "0"
