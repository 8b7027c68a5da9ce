"""Biaffine remote-edge recovery: pair enumeration, loss, filtered decoding."""

from __future__ import annotations

import math

import numpy as np
import pytest

from uccatree.autodiff import Var
from uccatree.conversion import tree_from_sexpr, tree_to_graph
from uccatree.graph_model import Edge, Token, UccaGraph
from uccatree.neural_core import (
    NOT_PARENT,
    UNK,
    BoundParams,
    ModelConfig,
    ModelParams,
    embed,
    encode,
    span_affine,
)
from uccatree.remote_recovery import (
    RemoteCandidatePair,
    enumerate_pairs,
    loss_remote,
    predict_remotes,
)

from conftest import GERMAN_TREE_SEXPR, GERMAN_FORMS, simple_graph, tape_nodes


def recovery_config(words, remote_labels=(NOT_PARENT, "A"), **overrides) -> ModelConfig:
    base = dict(
        word_dim=3,
        tag_dim=2,
        lstm_hidden=4,
        mlp_hidden=5,
        remote_mlp_dim=3,
        use_pos=False,
        use_ner=False,
        use_dep=False,
        words=[UNK, *words],
        labels=["", "ROOT"],
        remote_labels=list(remote_labels),
    )
    base.update(overrides)
    return ModelConfig(**base)


def encode_tokens(params: ModelParams, forms):
    tokens = tuple(Token(form=f) for f in forms)
    bound = BoundParams(params)
    enc = encode(embed(tokens, "en", bound), bound)
    return tokens, bound, enc


def zero_params(cfg: ModelConfig) -> ModelParams:
    p = ModelParams.initialize(cfg, seed=0)
    for arr in p.tensors.values():
        arr[...] = 0.0
    return p


def german_restored():
    """The worked example after tree decoding: graph plus its marked node."""
    graph, marked = tree_to_graph(tree_from_sexpr(GERMAN_TREE_SEXPR))
    return graph, marked


def rig_scores(monkeypatch, score_by_parent, n_labels=2):
    """Make every candidate pair score a fixed vector chosen by its parent."""

    def fake_matrix(pairs, enc, bound):
        default = np.full(n_labels, -1.0)
        default[0] = 0.0
        return Var(
            np.array(
                [score_by_parent.get((p.parent, p.child), default) for p in pairs],
                dtype=float,
            )
        )

    monkeypatch.setattr("uccatree.remote_recovery._pair_score_matrix", fake_matrix)


class TestEnumeratePairs:
    def test_german_worked_example_pairs(self):
        graph, marked = german_restored()
        assert tuple(marked) == (12,)
        pairs = enumerate_pairs(graph, marked)
        assert len(pairs) == 8
        assert [p.parent for p in pairs] == [8, 9, 10, 11, 13, 14, 15, 16]
        assert all(p.child == 12 for p in pairs)
        assert all(p.child_span == (1, 2) for p in pairs)

    def test_discontinuous_parent_span_is_its_interval(self):
        graph, marked = german_restored()
        spans = {p.parent: p.parent_span for p in enumerate_pairs(graph, marked)}
        # Node 9 yields terminals {1, 6, 7}; its span covers the whole gap.
        assert graph.yield_of(9) == (1, 6, 7)
        assert spans[9] == (0, 7)
        assert spans[13] == (2, 4)
        assert spans[16] == (6, 7)

    def test_pair_count_formula(self):
        graph = simple_graph(["A", "P", "E"], n=3)
        k = len(graph.nonterminals)
        for marked in ([], [4], [4, 5], [4, 5, 6]):
            assert len(enumerate_pairs(graph, marked)) == len(marked) * (k - 1)

    def test_terminal_child_rejected(self):
        graph = simple_graph(["A"], n=1)
        with pytest.raises(ValueError, match="not a nonterminal"):
            enumerate_pairs(graph, [1])


class TestLossRemote:
    def test_zero_params_give_uniform_cross_entropy(self):
        graph = simple_graph(["A", "P"], n=2)
        cfg = recovery_config(words=("t1", "t2"))
        p = zero_params(cfg)
        _, bound, enc = encode_tokens(p, ["t1", "t2"])
        pairs = enumerate_pairs(graph, [4])
        assert len(pairs) == 2
        loss = loss_remote(pairs, [], enc, bound)
        assert float(loss.value) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_three_label_inventory_changes_the_constant(self):
        graph = simple_graph(["A", "P"], n=2)
        cfg = recovery_config(words=("t1", "t2"), remote_labels=(NOT_PARENT, "A", "E"))
        p = zero_params(cfg)
        _, bound, enc = encode_tokens(p, ["t1", "t2"])
        pairs = enumerate_pairs(graph, [4])
        loss = loss_remote(pairs, [(3, 4, "E")], enc, bound)
        assert float(loss.value) == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_matches_manual_cross_entropy_with_random_params(self):
        graph = simple_graph(["A", "P", "E"], n=3)
        cfg = recovery_config(
            words=("t1", "t2", "t3"), remote_labels=(NOT_PARENT, "A", "E")
        )
        p = ModelParams.initialize(cfg, seed=5)
        _, bound, enc = encode_tokens(p, ["t1", "t2", "t3"])
        pairs = enumerate_pairs(graph, [4, 6])
        gold = [(5, 4, "A"), (3, 6, "E")]
        loss = float(loss_remote(pairs, gold, enc, bound).value)

        gold_map = {(pa, ch): lab for pa, ch, lab in gold}
        inventory = list(cfg.remote_labels)
        t = p.tensors

        def head(name, span):
            r = enc.fenceposts.value[span[1]] - enc.fenceposts.value[span[0]]
            return np.maximum(t[name + "_w"] @ r + t[name + "_b"], 0.0)

        expected = 0.0
        for pair in pairs:
            child = np.append(head("remote_child", pair.child_span), 1.0)
            parent = head("remote_parent", pair.parent_span)
            s = np.einsum("i,ilj,j->l", child, t["biaffine_w"], parent)
            gold_id = inventory.index(gold_map.get((pair.parent, pair.child), NOT_PARENT))
            expected += math.log(np.exp(s - s.max()).sum()) + s.max() - s[gold_id]
        assert loss == pytest.approx(expected, abs=1e-10)

    def test_gradients_reach_biaffine_and_encoder(self):
        graph = simple_graph(["A", "P"], n=2)
        cfg = recovery_config(words=("t1", "t2"))
        # Seed chosen so no relu in the two remote MLPs is fully dead.
        p = ModelParams.initialize(cfg, seed=4)
        _, bound, enc = encode_tokens(p, ["t1", "t2"])
        pairs = enumerate_pairs(graph, [4])
        loss_remote(pairs, [(3, 4, "A")], enc, bound).backward()
        grads = bound.grads()
        for name in ("biaffine_w", "remote_child_w", "remote_parent_w", "lstm1f_wx"):
            assert name in grads and np.any(grads[name] != 0.0)

    def test_unknown_gold_label_rejected(self):
        graph = simple_graph(["A", "P"], n=2)
        cfg = recovery_config(words=("t1", "t2"))
        p = zero_params(cfg)
        _, bound, enc = encode_tokens(p, ["t1", "t2"])
        pairs = enumerate_pairs(graph, [4])
        with pytest.raises(ValueError, match="missing from the inventory"):
            loss_remote(pairs, [(3, 4, "Z")], enc, bound)

    def test_tape_size_does_not_grow_with_pairs(self):
        graph = simple_graph(["A", "P", "E"], n=3)
        cfg = recovery_config(words=("t1", "t2", "t3"))
        p = ModelParams.initialize(cfg, seed=5)
        _, bound, enc = encode_tokens(p, ["t1", "t2", "t3"])
        pairs = enumerate_pairs(graph, [4, 6])
        gold = [(5, 4, "A")]
        few = loss_remote(pairs, gold, enc, bound)
        many = loss_remote(pairs + pairs, gold, enc, bound)
        assert len(pairs) == 6
        assert float(many.value) == pytest.approx(2 * float(few.value), abs=1e-12)
        assert tape_nodes(many) == tape_nodes(few)

    def test_no_pairs_is_zero_loss(self):
        cfg = recovery_config(words=("t1",))
        p = zero_params(cfg)
        _, bound, enc = encode_tokens(p, ["t1"])
        loss = loss_remote([], [], enc, bound)
        assert float(loss.value) == 0.0
        loss.backward()  # must not blow up on an empty sum


class TestPredictRemotes:
    def _german_setup(self):
        graph, marked = german_restored()
        cfg = recovery_config(words=tuple(GERMAN_FORMS))
        p = zero_params(cfg)
        _, bound, enc = encode_tokens(p, GERMAN_FORMS)
        return graph, marked, bound, enc

    def test_all_not_parent_predicts_nothing(self):
        graph, marked, bound, enc = self._german_setup()
        # Zero parameters tie every label; argmax breaks toward NOT-PARENT.
        assert predict_remotes(graph, marked, enc, bound) == []

    def test_recovers_the_worked_example_edge(self, monkeypatch):
        graph, marked, bound, enc = self._german_setup()
        rig_scores(monkeypatch, {(9, 12): [0.0, 5.0]})
        edges = predict_remotes(graph, marked, enc, bound)
        assert edges == [(9, 12, "A")]
        assert graph.yield_of(9) == (1, 6, 7)

    def test_primary_duplicate_dropped(self, monkeypatch):
        graph, marked, bound, enc = self._german_setup()
        # Node 11 is already node 12's primary parent.
        rig_scores(monkeypatch, {(11, 12): [0.0, 9.0]})
        assert predict_remotes(graph, marked, enc, bound) == []

    def test_cycle_dropped_in_confidence_order(self, monkeypatch):
        toks = tuple(Token(form=f"t{k}") for k in (1, 2))
        graph = UccaGraph(
            tokens=toks,
            root=3,
            nonterminals=frozenset({3, 4, 5}),
            edges=(
                Edge(3, 4, "A"),
                Edge(3, 5, "P"),
                Edge(4, 1, ""),
                Edge(5, 2, ""),
            ),
        )
        cfg = recovery_config(words=("t1", "t2"))
        p = zero_params(cfg)
        _, bound, enc = encode_tokens(p, ["t1", "t2"])
        rig_scores(monkeypatch, {(5, 4): [0.0, 9.0], (4, 5): [0.0, 5.0]})
        # The stronger proposal lands first; the weaker one would close a
        # cycle through it and is discarded.
        assert predict_remotes(graph, [4, 5], enc, bound) == [(5, 4, "A")]

    def test_accepts_by_descending_margin(self, monkeypatch):
        graph, marked, bound, enc = self._german_setup()
        rig_scores(
            monkeypatch,
            {(8, 12): [0.0, 2.0], (13, 12): [0.0, 7.0], (14, 12): [0.0, 4.0]},
        )
        edges = predict_remotes(graph, marked, enc, bound)
        assert edges == [(13, 12, "A"), (14, 12, "A"), (8, 12, "A")]

    def test_best_label_is_reported(self, monkeypatch):
        graph, marked, bound, enc = self._german_setup()
        cfg = recovery_config(
            words=tuple(GERMAN_FORMS), remote_labels=(NOT_PARENT, "A", "E")
        )
        p = zero_params(cfg)
        _, bound, enc = encode_tokens(p, GERMAN_FORMS)
        rig_scores(monkeypatch, {(9, 12): [0.0, 1.0, 3.0]}, n_labels=3)
        assert predict_remotes(graph, marked, enc, bound) == [(9, 12, "E")]

    def test_each_node_runs_its_mlp_once(self, monkeypatch):
        graph, marked, bound, enc = self._german_setup()
        calls = []

        def recording_span_affine(enc, spans, bound, name):
            calls.append((name, len(spans)))
            return span_affine(enc, spans, bound, name)

        monkeypatch.setattr("uccatree.remote_recovery.span_affine", recording_span_affine)
        pairs = enumerate_pairs(graph, marked)
        assert len(pairs) == 8  # one marked child, eight candidate parents
        loss_remote(pairs, [(9, 12, "A")], enc, bound)
        predict_remotes(graph, marked, enc, bound)
        assert calls == [("remote_child", 1), ("remote_parent", 8)] * 2

    def test_no_marked_nodes_short_circuits(self):
        graph, _, bound, enc = self._german_setup()
        assert predict_remotes(graph, [], enc, bound) == []
