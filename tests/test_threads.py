"""Threads: only a parse or training starts one, the worker of ``autodiff``,
and it changes no byte.

Each case runs in a fresh interpreter, because the worker of this test
process may already be running.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from uccatree.generator import SyntheticSpec, generate
from uccatree.graph_model import dump_corpus

from conftest import run_python

# Parses a fixed corpus with a fixed random model; prints the output lines
# and the names of the live threads.
PARSE = """
import json, os, threading
from uccatree.generator import SyntheticSpec, generate
from uccatree.neural_core import ModelParams
from uccatree.training import TrainConfig, build_model_config, parse_pipeline
graphs = generate(SyntheticSpec(sentences=10, min_tokens=3, max_tokens=30), seed=7)
config = TrainConfig(seed=3, lstm_hidden=40, mlp_hidden=30, remote_mlp_dim=10)
params = ModelParams.initialize(build_model_config(graphs, config), seed=3)
lines = [json.dumps(parse_pipeline(g.tokens, params).to_json(), sort_keys=True) for g in graphs]
print(json.dumps({"lines": lines, "threads": [t.name for t in threading.enumerate()]}))
"""

# Runs CLI commands in-process, then prints the names of the live threads.
CLI = """
import json, sys, threading
from uccatree.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps([t.name for t in threading.enumerate()]))
"""


# A small training run for ``ucca train``.
TRAIN_CONFIG = {"seed": 2, "max_epochs": 2, "word_dim": 8, "tag_dim": 3, "lstm_hidden": 24,
                "mlp_hidden": 16, "remote_mlp_dim": 6}


def parse_run(cpu: int | None = None) -> dict:
    return json.loads(run_python(PARSE, cpu=cpu))


def train_run(tmp_path: Path, out: str, cpu: int | None = None) -> list[str]:
    """``ucca train`` on a small generated corpus, writing checkpoint ``out``;
    the names of the threads left afterwards."""
    corpus, config = tmp_path / "corpus.jsonl", tmp_path / "train.json"
    if not corpus.exists():
        dump_corpus(generate(SyntheticSpec(sentences=6, min_tokens=3, max_tokens=12), seed=4), str(corpus))
        config.write_text(json.dumps(TRAIN_CONFIG), encoding="utf-8")
    argv = ["train", "--train", str(corpus), "--dev", str(corpus), "--config", str(config),
            "--out", str(tmp_path / out)]
    return json.loads(run_python(CLI, json.dumps([argv]), cpu=cpu))


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


def test_training_leaves_exactly_one_worker(tmp_path):
    names = train_run(tmp_path, "model.ckpt")
    assert len(names) == 2
    assert names[0] == "MainThread" and names[1].startswith("uccatree-bilstm")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_one_cpu_parses_the_same_bytes():
    cpu = min(os.sched_getaffinity(0))
    assert parse_run(cpu)["lines"] == parse_run()["lines"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_one_cpu_trains_the_same_checkpoint(tmp_path):
    train_run(tmp_path, "one.ckpt", cpu=min(os.sched_getaffinity(0)))
    train_run(tmp_path, "all.ckpt")
    assert (tmp_path / "one.ckpt").read_bytes() == (tmp_path / "all.ckpt").read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_gets_its_own_worker():
    source = PARSE + (
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    import signal; signal.alarm(60)  # a child without a worker would wait forever\n"
        "    again = [json.dumps(parse_pipeline(g.tokens, params).to_json(), sort_keys=True)"
        " for g in graphs]\n"
        "    os._exit(0 if again == lines else 1)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
    )
    assert run_python(source) == "0"
