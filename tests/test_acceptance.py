"""Acceptance suite: one test per binding criterion, each printing its own
pass/fail line under ``pytest -v``.

Criteria covered:

1. Lossless graph -> tree -> graph round trips on 1,000 seeded synthetic
   graphs, under 10 seconds.
2. The hand-worked German example converts to the exact expected bracketing
   (with remote and ancestor markers) and restores exactly.
3. Finite-difference gradient checks on >= 20 randomized full-model
   configurations, every relative error < 1e-4, under 60 seconds.
4. A 16-sentence synthetic corpus (with remote edges and discontinuities) is
   overfit to averaged F1 >= 0.95 and remote F1 >= 0.90 within 100 epochs,
   under 5 minutes.
5. The evaluator agrees exactly with an independent brute-force oracle on 500
   random graph pairs, and scores a hand-built partial match at F1 = 0.8.
6. The joint loss equals topdown + remote to within 1e-12, and same-seed
   training runs produce bitwise-identical checkpoints.
7. (Conditional) Discontinuity statistics on an externally supplied English
   Wikipedia UCCA corpus match the published distribution. Skipped unless
   ``UCCA_ENWIKI_PATH`` points at a corpus file, because that dataset is
   licensed and not bundled here.
8. The README documents the published headline scores (0.789 / 0.821 / 0.774)
   and states why they are not reproducible from this repository alone.
"""

from __future__ import annotations

import os
import pathlib
import time

import numpy as np
import pytest

from conftest import (
    GERMAN_TREE_SEXPR,
    german_example,
    offset_biases,
    primary_only,
    simple_graph,
)
from test_evaluation import _oracle_report
from uccatree.autodiff import gradcheck
from uccatree.conversion import (
    graph_to_tree,
    tree_from_sexpr,
    tree_to_graph,
    tree_to_sexpr,
)
from uccatree.evaluation import score
from uccatree.generator import SyntheticSpec, generate
from uccatree.graph_model import UccaGraph, load_corpus
from uccatree.neural_core import (
    NOT_PARENT,
    BoundParams,
    ModelConfig,
    ModelParams,
    embed,
    encode,
)
from uccatree.remote_recovery import enumerate_pairs, loss_remote
from uccatree.span_parser import gold_trace, loss_topdown
from uccatree.stats import discontinuity_stats
from uccatree.training import (
    TrainConfig,
    build_model_config,
    evaluate_model,
    prepare_example,
    sentence_loss,
    train,
)


def test_criterion_1_round_trip_losslessness() -> None:
    """1,000 seeded synthetic graphs survive graph->tree->graph intact, <10s.

    "Intact" means: no lossy moves reported, the restored graph matches the
    remote-stripped original up to canonical node renumbering, and the
    recovery-marked nodes cover exactly the yields of the gold remote children.
    """
    started = time.monotonic()
    spec = SyntheticSpec(
        sentences=1000, min_tokens=3, max_tokens=20, p_remote=0.3, p_discontinuity=0.5
    )
    graphs = generate(spec, seed=20260823)
    assert len(graphs) == 1000
    checked = 0
    for graph in graphs:
        result = graph_to_tree(graph)
        assert result.lossy_moves == 0
        restored, marked = tree_to_graph(result.tree)
        assert restored.same_structure(primary_only(graph))
        gold_children = {e.child for e in graph.edges if e.remote}
        gold_yields = sorted(graph.yield_of(c) for c in gold_children)
        marked_yields = sorted(restored.yield_of(m) for m in marked)
        assert marked_yields == gold_yields
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 1000
    assert elapsed < 10.0, f"round trips took {elapsed:.2f}s (budget 10s)"


def test_criterion_2_worked_example_exact() -> None:
    """The German sentence converts to the exact expected bracketing and back."""
    graph = german_example()
    result = graph_to_tree(graph)
    assert result.lossy_moves == 0
    sexpr = tree_to_sexpr(result.tree)
    assert sexpr == GERMAN_TREE_SEXPR
    for marker in ("A-remote", "-ancestor1"):
        assert marker in sexpr
    assert result.dropped_remote_edges == ((10, 12, "A"),)
    restored, marked = tree_to_graph(result.tree)
    assert restored.same_structure(primary_only(graph))
    assert [restored.yield_of(m) for m in marked] == [(2,)]


def _gradcheck_config(k: int) -> float:
    """Build one randomized small model + sentence and return its worst
    finite-difference relative error across every parameter coordinate."""
    rng = np.random.default_rng(1000 + k)
    config = ModelConfig(
        word_dim=int(rng.integers(2, 4)),
        tag_dim=int(rng.integers(2, 4)),
        lang_dim=2,
        lstm_hidden=2,
        mlp_hidden=int(rng.integers(2, 4)),
        remote_mlp_dim=int(rng.integers(2, 4)),
        use_pos=bool(k % 2),
        use_ner=False,
        use_dep=False,
        multilingual=(k % 5 == 0),
        share_span_hidden=(k % 3 == 0),
        words=["t1", "t2", "t3"],
        languages=["<unk>", "en"],
        labels=["", "A", "P", "ROOT"],
        remote_labels=[NOT_PARENT, "A"],
    )
    params = ModelParams.initialize(config, seed=k)
    for name, tensor in params.tensors.items():
        tensor += rng.uniform(-0.3, 0.3, size=tensor.shape)
    # Nudge biases so no relu/hinge/argmax sits exactly on a kink, where the
    # loss is not differentiable and finite differences are meaningless.
    offset_biases(params.tensors, seed=k)

    sexpr = "(ROOT (A t1) (P t2))" if k % 2 else "(ROOT (A t1 t2) (P t3))"
    tree = tree_from_sexpr(sexpr)
    graph, _ = tree_to_graph(tree)
    trace = gold_trace(tree)
    a_id = next(nt for nt in graph.nonterminals if graph.primary_label.get(nt) == "A")
    pairs = enumerate_pairs(graph, [a_id])
    gold_remotes = [(graph.root, a_id, "A")]
    tokens = graph.tokens

    def build(leaves):
        bound = BoundParams(params)
        bound.vars = leaves
        inputs = embed(tokens, "en", bound)
        enc = encode(inputs, bound)
        lt = loss_topdown(enc, trace, bound)
        lr = loss_remote(pairs, gold_remotes, enc, bound)
        return lt + lr

    assert all(t.dtype == np.float64 for t in params.tensors.values())
    return gradcheck(build, params.tensors, eps=1e-5)


def test_criterion_3_gradient_checks() -> None:
    """20 randomized configs all pass full finite-difference checks, <60s."""
    started = time.monotonic()
    worst = 0.0
    for k in range(20):
        err = _gradcheck_config(k)
        assert err < 1e-4, f"config {k}: relative error {err:.3e}"
        worst = max(worst, err)
    elapsed = time.monotonic() - started
    assert worst < 1e-4
    assert elapsed < 60.0, f"gradient checks took {elapsed:.2f}s (budget 60s)"


def test_criterion_4_overfit_small_corpus() -> None:
    """Joint training overfits 16 synthetic sentences: averaged F1 >= 0.95 and
    remote F1 >= 0.90 within 100 epochs, in under 5 minutes."""
    started = time.monotonic()
    spec = SyntheticSpec(
        sentences=16,
        min_tokens=3,
        max_tokens=6,
        vocab_size=30,
        max_depth=3,
        p_remote=0.2,
        p_discontinuity=0.5,
    )
    corpus = generate(spec, seed=11)
    remote_edges = sum(1 for g in corpus for e in g.edges if e.remote)
    discontinuous = sum(
        1 for g in corpus if "-ancestor" in tree_to_sexpr(graph_to_tree(g).tree)
    )
    assert remote_edges >= 1, "corpus must exercise remote recovery"
    assert discontinuous >= 1, "corpus must exercise discontinuity handling"

    config = TrainConfig(
        seed=1,
        max_epochs=100,
        patience=100,
        learning_rate=0.002,
        word_dim=64,
        tag_dim=4,
        lang_dim=4,
        lstm_hidden=64,
        mlp_hidden=64,
        remote_mlp_dim=32,
        use_pos=False,
        use_ner=False,
        use_dep=False,
    )
    result = train(corpus, corpus, config)
    assert result.epochs_run <= 100
    report = evaluate_model(result.params, corpus)
    elapsed = time.monotonic() - started
    assert report.averaged.f1 >= 0.95, f"averaged F1 {report.averaged.f1:.3f}"
    assert report.remote.f1 >= 0.90, f"remote F1 {report.remote.f1:.3f}"
    assert elapsed < 300.0, f"overfit run took {elapsed:.1f}s (budget 300s)"


def test_criterion_5_evaluator_matches_oracle() -> None:
    """score() agrees exactly with a brute-force oracle on 500 random pairs,
    and a hand-built 2-of-3 primary match scores F1 = 0.8 exactly."""
    pairs: list[tuple[UccaGraph, UccaGraph]] = []
    for k in range(2, 8):
        spec = SyntheticSpec(
            sentences=90, min_tokens=k, max_tokens=k, p_remote=0.5, p_discontinuity=0.5
        )
        for gold_graph, pred_graph in zip(
            generate(spec, seed=100 + k), generate(spec, seed=900 + k)
        ):
            pred_graph = UccaGraph(
                tokens=gold_graph.tokens,
                root=pred_graph.root,
                nonterminals=pred_graph.nonterminals,
                edges=pred_graph.edges,
            )
            pairs.append((gold_graph, pred_graph))
    pairs = pairs[:500]
    assert len(pairs) == 500
    for gold_graph, pred_graph in pairs:
        got = score(gold_graph, pred_graph).to_json()
        want = _oracle_report(gold_graph, pred_graph)
        for kind in ("primary", "remote", "averaged"):
            for key in ("precision", "recall", "f1"):
                assert got[kind][key] == want[kind][key], (kind, key)

    gold = simple_graph(["A", "P", "E"])
    pred = simple_graph(["A", "P", ""])
    report = score(gold, pred)
    assert report.primary.f1 == 0.8


def test_criterion_6_decomposition_and_determinism(tmp_path) -> None:
    """Joint loss decomposes to within 1e-12, and two same-seed training runs
    write bitwise-identical checkpoints."""
    config = TrainConfig(
        seed=3,
        max_epochs=2,
        patience=2,
        learning_rate=0.01,
        word_dim=6,
        tag_dim=2,
        lang_dim=2,
        lstm_hidden=4,
        mlp_hidden=6,
        remote_mlp_dim=3,
        use_pos=False,
        use_ner=False,
        use_dep=False,
    )
    spec = SyntheticSpec(
        sentences=6, min_tokens=3, max_tokens=5, p_remote=0.4, p_discontinuity=0.5
    )
    corpus = [german_example()] + list(generate(spec, seed=7, lang="de"))

    model_config = build_model_config(corpus, config)
    params = ModelParams.initialize(model_config, seed=3)
    for graph in corpus:
        joint, topdown, remote, _ = sentence_loss(prepare_example(graph), params)
        assert abs(joint - (topdown + remote)) <= 1e-12

    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    train(corpus, corpus, config).params.save(first)
    train(corpus, corpus, config).params.save(second)
    assert first.read_bytes() == second.read_bytes()


ENWIKI_ENV = "UCCA_ENWIKI_PATH"


@pytest.mark.skipif(
    ENWIKI_ENV not in os.environ,
    reason=(
        "needs the English Wikipedia UCCA corpus, which is distributed "
        "separately and not bundled; set UCCA_ENWIKI_PATH to its corpus "
        "JSONL file to run this distribution check"
    ),
)
def test_criterion_7_corpus_discontinuity_distribution() -> None:
    """On the external English Wikipedia corpus, discontinuity counts match the
    published distribution: 1609 / 115 / 21 / 18 moves (91.3 / 6.5 / 1.2 / 1.0%)."""
    graphs = load_corpus(os.environ[ENWIKI_ENV])
    table = discontinuity_stats(graphs)
    assert table["counts"] == {
        "ancestor1": 1609,
        "ancestor2": 115,
        "ancestor3plus": 21,
        "discontinuous": 18,
    }
    expected_percent = {
        "ancestor1": 91.3,
        "ancestor2": 6.5,
        "ancestor3plus": 1.2,
        "discontinuous": 1.0,
    }
    for key, pct in expected_percent.items():
        assert round(table["percent"][key], 1) == pct


def test_criterion_8_headline_results_documented_out_of_scope() -> None:
    """The README quotes the published headline F1 scores and explains that they
    are not reproducible here (the training corpora are not redistributable),
    with criteria 1-6 standing in as the verifiable acceptance checks."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    for figure in ("0.789", "0.821", "0.774"):
        assert figure in text
    assert "not reproducible" in text.lower()
