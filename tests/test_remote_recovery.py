"""Biaffine remote-edge recovery: the candidate grid, loss, filtered decoding."""

from __future__ import annotations

import math

import numpy as np
import pytest

from uccatree.autodiff import Var
from uccatree.conversion import tree_from_sexpr, tree_to_graph
from uccatree.generator import SyntheticSpec, generate
from uccatree.graph_model import Edge, Token, UccaGraph, descendants
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
from uccatree.remote_recovery import enumerate_pairs, loss_remote, predict_remotes

from conftest import GERMAN_TREE_SEXPR, GERMAN_FORMS, primary_only, simple_graph, tape_nodes


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


def nested_loop_pairs(graph, remote_marked):
    """The (child, parent) candidates in their documented order: child by
    child as marked, parents by ascending id, the child itself skipped."""
    return [(c, p) for c in remote_marked for p in sorted(graph.nonterminals) if p != c]


def hand_scores(graph, pairs, enc, tensors):
    """Remote-label scores of each (child, parent) pair, one pair at a time:
    both MLP heads, then the biaffine form as one einsum."""

    def head(name, node):
        i, j = graph.fencepost_span(node)
        r = enc.fenceposts.value[j] - enc.fenceposts.value[i]
        return np.maximum(tensors[name + "_w"] @ r + tensors[name + "_b"], 0.0)

    return [
        np.einsum(
            "i,ilj,j->l",
            np.append(head("remote_child", child), 1.0),
            tensors["biaffine_w"],
            head("remote_parent", parent),
        )
        for child, parent in pairs
    ]


def rig_scores(monkeypatch, score_by_parent, n_labels=2):
    """Make every candidate cell of the score grid a fixed vector chosen by
    its (parent, child) pair."""

    def fake_grid(grid, enc, bound):
        default = np.full(n_labels, -1.0)
        default[0] = 0.0
        cells = [
            [score_by_parent.get((parent, child), default) for parent in grid.parents]
            for child in grid.children
        ]
        return Var(np.array(cells, dtype=float).transpose(0, 2, 1))

    monkeypatch.setattr("uccatree.remote_recovery._score_grid", fake_grid)


class TestEnumeratePairs:
    def test_german_worked_example_pairs(self):
        graph, marked = german_restored()
        assert tuple(marked) == (12,)
        grid = enumerate_pairs(graph, marked)
        assert len(grid) == 8
        assert grid.children == [12]
        assert [grid.parents[c] for c in grid.cols] == [8, 9, 10, 11, 13, 14, 15, 16]
        assert grid.rows.tolist() == [0] * 8
        assert grid.spans[12] == (1, 2)

    def test_discontinuous_parent_span_is_its_interval(self):
        graph, marked = german_restored()
        spans = enumerate_pairs(graph, marked).spans
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

    @pytest.mark.parametrize(
        "marked", [[], [7], [7, 5], [8, 5, 6, 9, 7], [6, 8, 6], [5, 5]]
    )
    def test_cells_follow_the_nested_loop_order(self, marked):
        graph = simple_graph(["A", "P", "E", "D"], n=4)
        grid = enumerate_pairs(graph, marked)
        cells = [(grid.children[r], grid.parents[c]) for r, c in zip(grid.rows, grid.cols)]
        # A node marked twice is one row.
        assert cells == nested_loop_pairs(graph, list(dict.fromkeys(marked)))
        assert grid.children == list(dict.fromkeys(marked))
        assert grid.parents == sorted(graph.nonterminals)

    def test_single_node_graph_has_no_cells(self):
        toks = (Token(form="t1"),)
        graph = UccaGraph(tokens=toks, root=2, nonterminals=frozenset({2}), edges=(Edge(2, 1, ""),))
        assert len(enumerate_pairs(graph, [2])) == 0


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
        gold = [(5, 4, "A"), (3, 6, "E")]
        loss = float(loss_remote(enumerate_pairs(graph, [4, 6]), gold, enc, bound).value)

        gold_map = {(pa, ch): lab for pa, ch, lab in gold}
        inventory = list(cfg.remote_labels)
        pairs = nested_loop_pairs(graph, [4, 6])
        expected = 0.0
        for (child, parent), s in zip(pairs, hand_scores(graph, pairs, enc, p.tensors)):
            gold_id = inventory.index(gold_map.get((parent, child), NOT_PARENT))
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
        gold = [(5, 4, "A")]
        few_cells, many_cells = enumerate_pairs(graph, [4]), enumerate_pairs(graph, [4, 6, 7, 5])
        assert (len(few_cells), len(many_cells)) == (3, 12)
        few = loss_remote(few_cells, gold, enc, bound)
        many = loss_remote(many_cells, gold, enc, bound)
        assert float(many.value) > float(few.value)
        assert tape_nodes(many) == tape_nodes(few)

    def test_no_pairs_is_zero_loss(self):
        cfg = recovery_config(words=("t1",))
        p = zero_params(cfg)
        _, bound, enc = encode_tokens(p, ["t1"])
        loss = loss_remote(enumerate_pairs(simple_graph(["A"], n=1), []), [], enc, bound)
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
        # The parent head runs over all nine nonterminals, the child's own
        # column included.
        assert calls == [("remote_child", 1), ("remote_parent", 9)] * 2

    def test_no_marked_nodes_short_circuits(self):
        graph, _, bound, enc = self._german_setup()
        assert predict_remotes(graph, [], enc, bound) == []


def pair_list_predict(graph, remote_marked, enc, bound):
    """The pair-list formulation of ``predict_remotes``: one proposal per
    (child, parent) pair of the nested loop, each scored by hand."""
    pairs = nested_loop_pairs(graph, list(dict.fromkeys(remote_marked)))
    labels = bound.config.remote_labels
    scores = hand_scores(graph, pairs, enc, bound.params.tensors)
    proposals = [
        (float(values[best] - values[0]), child, parent, labels[best])
        for (child, parent), values in zip(pairs, scores)
        if (best := int(values.argmax())) != 0
    ]
    proposals.sort(key=lambda item: (-item[0], item[1], item[2]))
    primary = {(e.parent, e.child) for e in graph.primary_edges}
    out_edges = {v: set() for v in [*graph.nonterminals, *graph.terminals]}
    for e in graph.primary_edges:
        out_edges[e.parent].add(e.child)
    accepted = []
    for _, child, parent, label in proposals:
        if (parent, child) in primary or parent in descendants(out_edges, child):
            continue
        out_edges[parent].add(child)
        accepted.append((parent, child, label))
    return accepted


class TestGridMatchesPairList:
    @pytest.fixture(scope="class")
    def graph(self):
        corpus = generate(SyntheticSpec(sentences=20, min_tokens=8, max_tokens=12), seed=3)
        return primary_only(max(corpus, key=lambda g: len(g.nonterminals)))

    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_edges_as_the_pair_list(self, graph, count, seed):
        forms = [t.form for t in graph.tokens]
        cfg = recovery_config(words=tuple(forms), remote_labels=(NOT_PARENT, "A", "E"))
        p = ModelParams.initialize(cfg, seed=seed)
        _, bound, enc = encode_tokens(p, forms)
        order = np.random.default_rng(seed).permutation(sorted(graph.nonterminals))
        marked = [int(v) for v in order[:count]]
        want = pair_list_predict(graph, marked, enc, bound)
        assert predict_remotes(graph, marked, enc, bound) == want

    def test_some_cases_accept_and_drop_edges(self, graph):
        """The comparison above is not vacuous: its models propose edges,
        and some proposals are dropped."""
        forms = [t.form for t in graph.tokens]
        cfg = recovery_config(words=tuple(forms), remote_labels=(NOT_PARENT, "A", "E"))
        p = ModelParams.initialize(cfg, seed=0)
        _, bound, enc = encode_tokens(p, forms)
        marked = sorted(graph.nonterminals)[:5]
        scores = hand_scores(graph, nested_loop_pairs(graph, marked), enc, p.tensors)
        proposed = sum(int(s.argmax()) != 0 for s in scores)
        accepted = len(predict_remotes(graph, marked, enc, bound))
        assert 0 < accepted < proposed

    def test_a_repeated_marked_node_proposes_once(self, graph):
        forms = [t.form for t in graph.tokens]
        cfg = recovery_config(words=tuple(forms), remote_labels=(NOT_PARENT, "A", "E"))
        p = ModelParams.initialize(cfg, seed=0)
        _, bound, enc = encode_tokens(p, forms)
        marked = sorted(graph.nonterminals)[:5]
        once = predict_remotes(graph, marked, enc, bound)
        assert predict_remotes(graph, marked + marked[::-1], enc, bound) == once


def random_case(graph_seed, model_seed, picks, three_labels):
    """A generated primary graph, nodes marked by ``picks`` (repeats
    kept), and a tiny random model's encoding of its tokens."""
    spec = SyntheticSpec(sentences=1, min_tokens=2, max_tokens=9)
    graph = primary_only(generate(spec, seed=graph_seed)[0])
    nonterminals = sorted(graph.nonterminals)
    marked = [nonterminals[k % len(nonterminals)] for k in picks]
    forms = [t.form for t in graph.tokens]
    labels = (NOT_PARENT, "A", "E") if three_labels else (NOT_PARENT, "A")
    cfg = recovery_config(words=tuple(forms), remote_labels=labels)
    _, bound, enc = encode_tokens(ModelParams.initialize(cfg, seed=model_seed), forms)
    return graph, marked, enc, bound


CYCLE_CASE = dict(graph_seed=0, model_seed=0, picks=[0, 3, 1, 3, 5], three_labels=True)


def test_grid_matches_the_pair_list():
    """``predict_remotes`` equals the pair list on random generated graphs,
    marked nodes with repeats and tiny models.  Without hypothesis installed
    only this test skips."""
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import example, given, settings

    @example(**CYCLE_CASE)
    @settings(max_examples=60)
    @given(
        graph_seed=st.integers(0, 2**16),
        model_seed=st.integers(0, 2**16),
        picks=st.lists(st.integers(0, 40), max_size=8),
        three_labels=st.booleans(),
    )
    def check(graph_seed, model_seed, picks, three_labels):
        graph, marked, enc, bound = random_case(graph_seed, model_seed, picks, three_labels)
        assert predict_remotes(graph, marked, enc, bound) == pair_list_predict(graph, marked, enc, bound)

    check()


def test_the_pinned_case_drops_a_cycle():
    """Every proposal of the pinned example that is neither accepted nor a
    primary edge was dropped because it would close a cycle."""
    graph, marked, enc, bound = random_case(**CYCLE_CASE)
    assert len(marked) > len(set(marked))
    pairs = nested_loop_pairs(graph, list(dict.fromkeys(marked)))
    scores = hand_scores(graph, pairs, enc, bound.params.tensors)
    proposed = {(p, c) for (c, p), s in zip(pairs, scores) if s.argmax() != 0}
    accepted = {(p, c) for p, c, _ in predict_remotes(graph, marked, enc, bound)}
    primary = {(e.parent, e.child) for e in graph.primary_edges}
    assert proposed - accepted - primary
