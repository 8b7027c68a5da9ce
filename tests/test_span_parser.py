"""Top-down span parser: gold traces, hinge loss values, greedy decoding."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from uccatree import span_parser
from uccatree.autodiff import Var
from uccatree.conversion import graph_to_tree, tree_from_sexpr, tree_to_graph, tree_to_sexpr
from uccatree.generator import SyntheticSpec, generate
from uccatree.graph_model import ConstituentTree, Token
from uccatree.neural_core import (
    UNK,
    AdamState,
    BoundParams,
    ModelConfig,
    ModelParams,
    adam_step,
    embed,
    encode,
    label_scores,
)
from uccatree.span_parser import (
    _edge_below,
    _label_masks,
    _span_table,
    gold_trace,
    loss_topdown,
    parse_topdown,
)
from uccatree.training import TrainConfig, build_model_config

from conftest import GERMAN_TREE_SEXPR, GERMAN_FORMS, primary_only, run_python, tape_nodes, tape_vars


def parser_config(labels, words=("a", "b", "c"), **overrides) -> ModelConfig:
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
        labels=list(labels),
    )
    base.update(overrides)
    return ModelConfig(**base)


def encode_tokens(params: ModelParams, forms):
    tokens = tuple(Token(form=f) for f in forms)
    bound = BoundParams(params)
    enc = encode(embed(tokens, "en", bound), bound)
    return tokens, bound, enc


def rig_heads(monkeypatch, spans, label_matrix, split_vector):
    """Make row r of ``label_matrix`` and entry r of ``split_vector`` the
    scores of ``spans[r]``, whatever spans the parser asks for, in
    whatever order and as pairs or array rows."""

    row = {span: r for r, span in enumerate(spans)}

    def rows(asked):
        return [row[i, j] for i, j in asked]

    monkeypatch.setattr(
        span_parser, "label_scores", lambda enc, asked, bound: Var(label_matrix[rows(asked)])
    )
    monkeypatch.setattr(
        span_parser, "split_scores", lambda enc, asked, bound: Var(split_vector[rows(asked)])
    )


def all_spans(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n + 1)]


def zero_params(cfg: ModelConfig) -> ModelParams:
    p = ModelParams.initialize(cfg, seed=0)
    for arr in p.tensors.values():
        arr[...] = 0.0
    return p


def splits(trace, span):
    """The gold split points of a labeled span: the fenceposts inside it
    that no smaller gold span strictly contains."""
    i, j = span
    inner = [(a, b) for a, b in trace if i <= a and b <= j and (a, b) != span]
    return [k for k in range(i + 1, j) if not any(a < k < b for a, b in inner)]


class TestSpanTable:
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_rows_and_table_match_the_pair_list(self, n):
        spans, table = _span_table(n)
        expected = all_spans(n)
        assert spans.shape == (len(expected), 2)
        assert [tuple(row) for row in spans.tolist()] == expected
        want = np.full((n + 1, n + 1), -1)
        for r, (i, j) in enumerate(expected):
            want[i, j] = r
        assert table.dtype == want.dtype and np.array_equal(table, want)


class TestGoldTrace:
    def test_binary_tree(self):
        trace = gold_trace(tree_from_sexpr("(ROOT (A a b) (P c d))"))
        assert [(span, label, splits(trace, span)) for span, label in trace.items()] == [
            ((0, 4), "ROOT", [2]),
            ((0, 2), "A", [1]),
            ((2, 4), "P", [3]),
        ]
        assert (0, 1) not in trace  # a bare leaf's gold label is ""

    def test_ternary_splits(self):
        trace = gold_trace(tree_from_sexpr("(ROOT (A a b) (P c d e) (U f g))"))
        assert splits(trace, (0, 7)) == [2, 5]

    def test_same_span_chain_absorbed(self):
        trace = gold_trace(tree_from_sexpr("(ROOT (H (A a b)))"))
        # The chain is one decision: no separate spans for H or A.
        assert trace == {(0, 2): "ROOT+H+A"}

    def test_worked_example_trace(self, german_graph):
        trace = gold_trace(graph_to_tree(german_graph).tree)
        assert trace[(0, 7)] == "ROOT+H"
        assert splits(trace, (0, 7)) == [1, 4, 5, 6]
        assert (trace[(1, 4)], splits(trace, (1, 4))) == ("H-ancestor1", [2])
        assert trace[(1, 2)] == "A-remote"
        assert (trace[(2, 4)], splits(trace, (2, 4))) == ("P", [3])
        assert trace[(4, 5)] == "L-ancestor1"

    def test_invalid_tree_rejected(self):
        from uccatree.graph_model import ConstituentTree, TreeNode

        bad = ConstituentTree(
            tokens=(Token(form="x"),),
            root=TreeNode(label="S", children=(TreeNode(leaf=1),)),
        )
        with pytest.raises(ValueError, match="invalid tree"):
            gold_trace(bad)


class TestCandidateSets:
    LABELS = ["", "A", "A-ancestor1", "A-remote-ancestor1", "ROOT", "ROOT+H"]

    @staticmethod
    def allowed(labels):
        """Label ids of the whole-sentence, inner and marker-free masks."""
        return [np.flatnonzero(m).tolist() for m in _label_masks(tuple(labels))]

    def test_top_requires_root_head(self):
        assert self.allowed(self.LABELS)[0] == [4, 5]

    def test_inner_takes_everything_else(self):
        assert self.allowed(self.LABELS)[1] == [0, 1, 2, 3]

    def test_under_root_hides_ancestor_marked_heads(self):
        # Below a bare "ROOT" the edge is n, so no span starts after it.
        assert _edge_below("ROOT", 0, 5, 5) == 5
        assert self.allowed(self.LABELS)[2] == [0, 1]

    def test_left_edge_hides_ancestor_marked_heads(self):
        # A marked head at its parent's left edge could leave that parent
        # childless once the marker is undone.
        assert _edge_below("A", 2, 5, 0) == 2
        assert _edge_below("", 3, 5, 2) == 2  # the empty label keeps the edge
        assert self.allowed(self.LABELS)[2] == [0, 1]

    def test_marker_on_chain_tail_never_decodable(self):
        labels = ["", "H+A-ancestor1", "ROOT"]
        # Undoing the tail marker would leave the chain head childless.
        assert self.allowed(labels)[1:] == [[0], [0]]

    def test_marked_head_with_tail_allowed_off_edge(self):
        labels = ["", "E-ancestor1+A", "ROOT"]
        assert self.allowed(labels)[1:] == [[0, 1], [0]]

    def test_root_chain_with_marked_tail_excluded_from_top(self):
        labels = ["", "ROOT", "ROOT+H-ancestor1"]
        assert self.allowed(labels)[0] == [1]

    def test_three_masks_over_the_inventory(self):
        whole, inner, unmarked = _label_masks(tuple(self.LABELS))
        for allowed in (whole, inner, unmarked):
            assert allowed.dtype == bool and allowed.shape == (len(self.LABELS),)
        assert not (whole & inner).any() and not (unmarked & ~inner).any()

    def test_masks_are_read_only(self):
        # The masks are shared by every call on one inventory.
        for allowed in _label_masks(tuple(self.LABELS)):
            with pytest.raises(ValueError, match="read-only"):
                allowed[0] = False

    def test_every_one_or_two_part_label(self):
        marks = ("", "-remote", "-ancestor1", "-remote-ancestor1")
        parts = [base + mark for base in ("A", "ROOT") for mark in marks]
        labels = ["", *parts, *(f"{a}+{b}" for a in parts for b in parts)]
        whole, inner, unmarked = _label_masks(tuple(labels))
        for r, label in enumerate(labels):
            head, *tail = label.split("+")
            marked_tail = any(part.endswith("-ancestor1") for part in tail)
            assert whole[r] == (head == "ROOT" and not marked_tail), label
            assert inner[r] == (head != "ROOT" and not marked_tail), label
            assert unmarked[r] == (
                head != "ROOT" and not marked_tail and not head.endswith("-ancestor1")
            ), label

    def test_loss_filters_the_inventory_a_fixed_number_of_times(self):
        # The masks depend on the inventory only, so they are built once
        # for the model, however many decisions and losses follow.
        _label_masks.cache_clear()
        forms = "a b c d e f g h i j k l".split()
        cfg = parser_config(["", "A", "P", "ROOT"], words=forms)
        p = ModelParams.initialize(cfg, seed=4)
        for sexpr in (
            "(ROOT (A a b) c)",
            "(ROOT (A a b c) (P d (A e f) g) (A h i (P j k)) l)",
        ):
            tree = tree_from_sexpr(sexpr)
            tokens, bound, enc = encode_tokens(p, [t.form for t in tree.tokens])
            loss_topdown(enc, gold_trace(tree), bound)
            parse_topdown(enc, tokens, bound)
        assert _label_masks.cache_info().misses == 1


class TestLossValues:
    def test_single_token_alternative_costs_one(self):
        cfg = parser_config(["", "ROOT", "ROOT+A"], words=("a",))
        p = zero_params(cfg)
        tokens, bound, enc = encode_tokens(p, ["a"])
        loss = loss_topdown(enc, gold_trace(tree_from_sexpr("(ROOT a)")), bound)
        assert float(loss.value) == 1.0

    def test_single_token_no_alternative_costs_zero(self):
        cfg = parser_config(["", "ROOT"], words=("a",))
        p = zero_params(cfg)
        tokens, bound, enc = encode_tokens(p, ["a"])
        loss = loss_topdown(enc, gold_trace(tree_from_sexpr("(ROOT a)")), bound)
        assert float(loss.value) == 0.0

    def test_three_token_hand_count(self):
        # Four label decisions with one wrong alternative each, plus one
        # split decision, all at margin zero: loss is exactly five.
        cfg = parser_config(["", "B", "ROOT+A"], words=("t1", "t2", "t3"))
        p = zero_params(cfg)
        tokens, bound, enc = encode_tokens(p, ["t1", "t2", "t3"])
        trace = gold_trace(tree_from_sexpr("(ROOT (A (B t1 t2) t3))"))
        assert float(loss_topdown(enc, trace, bound).value) == 5.0

    def test_inner_chain_with_marker_costs_two(self):
        cfg = parser_config(["", "A-ancestor1", "P", "ROOT+H"], words=("a", "b"))
        p = zero_params(cfg)
        tokens, bound, enc = encode_tokens(p, ["a", "b"])
        trace = gold_trace(tree_from_sexpr("(ROOT (H (P a) (A-ancestor1 b)))"))
        assert float(loss_topdown(enc, trace, bound).value) == 2.0

    def test_marker_under_bare_root_not_teachable(self):
        cfg = parser_config(["", "A-ancestor1", "P", "ROOT"], words=("a", "b"))
        p = zero_params(cfg)
        tokens, bound, enc = encode_tokens(p, ["a", "b"])
        # No valid tree has this marker, so the spans bypass gold_trace.
        spans = {(0, 2): "ROOT", (0, 1): "A-ancestor1", (1, 2): "P"}
        trace = ConstituentTree.from_spans(tokens, spans).spans()
        with pytest.raises(ValueError, match=r"gold label 'A-ancestor1' of span \(0, 1\) is not allowed"):
            loss_topdown(enc, trace, bound)

    def test_unknown_gold_label_rejected(self):
        cfg = parser_config(["", "ROOT"], words=("a", "b"))
        p = zero_params(cfg)
        tokens, bound, enc = encode_tokens(p, ["a", "b"])
        trace = gold_trace(tree_from_sexpr("(ROOT (X a) b)"))
        with pytest.raises(ValueError, match="gold label 'X' missing"):
            loss_topdown(enc, trace, bound)

    def test_span_mismatch_rejected(self):
        cfg = parser_config(["", "ROOT"], words=("a", "b"))
        p = zero_params(cfg)
        tokens, bound, enc = encode_tokens(p, ["a", "b"])
        trace = gold_trace(tree_from_sexpr("(ROOT a)"))
        with pytest.raises(ValueError, match="n=2"):
            loss_topdown(enc, trace, bound)

    def test_loss_nonnegative_and_differentiable(self):
        cfg = parser_config(["", "A", "P", "ROOT"])
        p = ModelParams.initialize(cfg, seed=4)
        tokens, bound, enc = encode_tokens(p, ["a", "b", "c"])
        loss = loss_topdown(enc, gold_trace(tree_from_sexpr("(ROOT (A a b) (P c))")), bound)
        assert float(loss.value) >= 0.0
        loss.backward()
        grads = bound.grads()
        assert "emb_word" in grads and "label_out_w" in grads

    def test_tape_size_does_not_grow_with_decisions(self):
        # At zero parameters every hinge term costs exactly one, so the
        # loss counts the terms: six label terms each, plus one split term
        # for the shallow tree and two for the nested one.
        cfg = parser_config(["", "A", "P", "ROOT"], words=("a", "b", "c", "d"))
        p = zero_params(cfg)
        tokens, bound, enc = encode_tokens(p, ["a", "b", "c", "d"])
        shallow = gold_trace(tree_from_sexpr("(ROOT (A a b c) d)"))
        nested = gold_trace(tree_from_sexpr("(ROOT (A a (P b c)) d)"))
        assert (len(shallow), len(nested)) == (2, 3)
        shallow_loss = loss_topdown(enc, shallow, bound)
        nested_loss = loss_topdown(enc, nested, bound)
        assert (float(shallow_loss.value), float(nested_loss.value)) == (7.0, 8.0)
        assert tape_nodes(shallow_loss) == tape_nodes(nested_loss)

    def test_no_split_term_leaves_the_split_head_without_gradient(self):
        # A flat tree offers no wrong split point.  The split head must
        # then get no gradient at all (not a zero one), or Adam would
        # still move it by its momentum.
        cfg = parser_config(["", "A", "P", "ROOT"])
        p = ModelParams.initialize(cfg, seed=4)
        tokens, bound, enc = encode_tokens(p, ["a", "b", "c"])
        loss_topdown(enc, gold_trace(tree_from_sexpr("(ROOT a b c)")), bound).backward()
        grads = bound.grads()
        assert "label_out_w" in grads
        assert not {"span_out_w", "span_out_b", "span_hidden_w"} & set(grads)

    def test_shared_hidden_projects_the_fenceposts_once(self):
        # With sharing on, the split and label heads read one hidden layer,
        # so the loss projects the fenceposts through it once, not per head.
        cfg = parser_config(["", "A", "P", "ROOT"], share_span_hidden=True)
        p = ModelParams.initialize(cfg, seed=4)
        tokens, bound, enc = encode_tokens(p, ["a", "b", "c"])
        loss = loss_topdown(enc, gold_trace(tree_from_sexpr("(ROOT (A a b) (P c))")), bound)
        loss.backward()
        assert {"span_out_w", "label_out_w", "head_hidden_w"} <= set(bound.grads())
        readers = [v for v in tape_vars(loss) if any(q is enc.fenceposts for q in v._parents)]
        assert len(readers) == 1

    def test_score_shift_invariance(self):
        # Adding one constant to every label score and another to every
        # split score moves no hinge margin.
        cfg = parser_config(["", "A", "P", "ROOT"])
        base = ModelParams.initialize(cfg, seed=5)
        trace = gold_trace(tree_from_sexpr("(ROOT (A a b) (P c))"))

        def loss_of(params):
            tokens, bound, enc = encode_tokens(params, ["a", "b", "c"])
            return float(loss_topdown(enc, trace, bound).value)

        before = loss_of(base)
        shifted = ModelParams(cfg, base.values.copy())
        shifted.tensors["label_out_b"] += 3.7
        shifted.tensors["span_out_b"] += -1.9
        assert loss_of(shifted) == pytest.approx(before, abs=1e-9)


class TestGreedyParse:
    def test_zero_scores_tie_to_first_root_label(self):
        cfg = parser_config(["", "A", "ROOT", "ROOT+A"], words=("a",))
        p = zero_params(cfg)
        tokens, bound, enc = encode_tokens(p, ["a"])
        assert tree_to_sexpr(parse_topdown(enc, tokens, bound)) == "(ROOT a)"

    def test_zero_scores_empty_labels_collapse_flat(self):
        cfg = parser_config(["", "A", "ROOT"])
        p = zero_params(cfg)
        tokens, bound, enc = encode_tokens(p, ["a", "b", "c"])
        assert tree_to_sexpr(parse_topdown(enc, tokens, bound)) == "(ROOT a b c)"

    def test_token_count_mismatch_rejected(self):
        cfg = parser_config(["", "ROOT"])
        p = zero_params(cfg)
        tokens, bound, enc = encode_tokens(p, ["a", "b"])
        with pytest.raises(ValueError, match="tokens"):
            parse_topdown(enc, tokens[:1], bound)

    def test_missing_root_label_rejected(self):
        cfg = parser_config(["", "A"])
        p = zero_params(cfg)
        tokens, bound, enc = encode_tokens(p, ["a"])
        with pytest.raises(ValueError, match="ROOT"):
            parse_topdown(enc, tokens, bound)

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_label_head_scores_only_the_decided_spans(self, monkeypatch, n):
        # Splits read no label, so the split tree is fixed first and the
        # label head sees its 2n - 1 spans, not all n(n + 1) / 2.
        cfg = parser_config(["", "A", "P", "ROOT"])
        p = ModelParams.initialize(cfg, seed=3)
        rows = []

        def counting(enc, spans, bound):
            rows.append(len(spans))
            return label_scores(enc, spans, bound)

        monkeypatch.setattr(span_parser, "label_scores", counting)
        tokens, bound, enc = encode_tokens(p, ["a", "b", "c"] * (n // 3) + ["a"] * (n % 3))
        assert parse_topdown(enc, tokens, bound).validate() == []
        assert rows == [2 * n - 1]

    def test_rigged_scores_reproduce_worked_example(self, monkeypatch, german_graph):
        inventory = ["", "A-remote", "H-ancestor1", "L-ancestor1", "P", "ROOT+H", "U"]
        cfg = parser_config(inventory, words=tuple(GERMAN_FORMS))
        p = zero_params(cfg)
        spans = all_spans(7)
        gold_labels = {
            (0, 7): "ROOT+H",
            (0, 1): "U",
            (1, 4): "H-ancestor1",
            (1, 2): "A-remote",
            (2, 4): "P",
            (4, 5): "L-ancestor1",
            (5, 6): "P",
            (6, 7): "U",
        }
        derivation_spans = {
            (0, 1), (1, 7), (1, 4), (4, 7), (4, 5), (5, 7), (5, 6), (6, 7),
            (1, 2), (2, 4), (2, 3), (3, 4),
        }
        label_matrix = np.zeros((len(spans), len(inventory)))
        for span, lab in gold_labels.items():
            label_matrix[spans.index(span), inventory.index(lab)] = 10.0
        split_vector = np.array(
            [10.0 if span in derivation_spans else 0.0 for span in spans]
        )
        rig_heads(monkeypatch, spans, label_matrix, split_vector)
        tokens, bound, enc = encode_tokens(p, GERMAN_FORMS)
        tree = parse_topdown(enc, german_graph.tokens, bound)
        assert tree_to_sexpr(tree) == GERMAN_TREE_SEXPR
        restored, marked = tree_to_graph(tree)
        assert restored.same_structure(primary_only(german_graph))
        assert [restored.yield_of(m) for m in marked] == [(2,)]

    def test_marker_suppressed_under_bare_root(self, monkeypatch):
        inventory = ["", "A", "A-ancestor1", "ROOT"]
        cfg = parser_config(inventory, words=("a", "b"))
        p = zero_params(cfg)
        spans = all_spans(2)
        label_matrix = np.zeros((len(spans), len(inventory)))
        label_matrix[:, inventory.index("A-ancestor1")] = 100.0
        label_matrix[:, inventory.index("A")] = 50.0
        rig_heads(monkeypatch, spans, label_matrix, np.zeros(len(spans)))
        tokens, bound, enc = encode_tokens(p, ["a", "b"])
        tree = parse_topdown(enc, tokens, bound)
        # The overwhelming marked label is illegal here; "A" wins instead.
        assert tree_to_sexpr(tree) == "(ROOT (A a) (A b))"
        restored, _ = tree_to_graph(tree)
        assert restored.validate() == []


    def test_1100_token_right_branching_parse(self, monkeypatch):
        # Every span of the derivation is labeled, so the tree is about
        # 1,100 nodes deep; validate would recurse, so check the spans.
        inventory = ["", "A", "P", "ROOT"]
        n = 1100
        p = zero_params(parser_config(inventory))
        spans = all_spans(n)
        derivation = {(0, n): "ROOT"}
        for i in range(n - 1):
            derivation[i, i + 1] = "P"
            derivation[i + 1, n] = "A" if i + 1 < n - 1 else "P"
        label_matrix = np.zeros((len(spans), len(inventory)))
        split_vector = np.zeros(len(spans))
        for r, span in enumerate(spans):
            if span in derivation:
                label_matrix[r, inventory.index(derivation[span])] = 10.0
                split_vector[r] = 10.0
        rig_heads(monkeypatch, spans, label_matrix, split_vector)
        tokens, bound, enc = encode_tokens(p, ["a"] * n)
        tree = parse_topdown(enc, tokens, bound)
        assert tree.spans() == derivation
        assert list(tree.spans())[:4] == [(0, n), (0, 1), (1, n), (1, 2)]


def gold_consistent(span, gold):
    """Whether ``span`` crosses no gold span."""
    i, j = span
    return not any(a < i < b < j or i < a < j < b for a, b in gold)


class TestDecoderInvertsGold:
    @pytest.mark.parametrize("seed", [3, 8])
    def test_rigged_decoder_returns_the_converted_tree(self, monkeypatch, seed):
        spec = SyntheticSpec(
            sentences=25, max_tokens=14, max_depth=6, p_remote=0.3, p_discontinuity=1.0
        )
        corpus = generate(spec, seed=seed)
        trees = [graph_to_tree(g).tree for g in corpus]
        inventory = ["", *sorted({label for t in trees for label in t.spans().values()})]
        p = zero_params(parser_config(inventory, words=("w",)))
        inner_chains = 0
        for g, tree in zip(corpus, trees):
            gold = tree.spans()
            inner_chains += sum("+" in label for span, label in gold.items() if span != (0, g.n))
            assert ConstituentTree.from_spans(tree.tokens, gold) == tree
            back = tree_from_sexpr(tree_to_sexpr(tree))
            assert (back.root, [t.form for t in back.tokens]) == (
                tree.root, [t.form for t in tree.tokens]
            )

            spans = all_spans(g.n)
            label_matrix = np.zeros((len(spans), len(inventory)))
            for r, span in enumerate(spans):
                label_matrix[r, inventory.index(gold.get(span, ""))] = 10.0
            split_vector = np.array([10.0 if gold_consistent(s, gold) else 0.0 for s in spans])
            rig_heads(monkeypatch, spans, label_matrix, split_vector)
            _, bound, enc = encode_tokens(p, ["w"] * g.n)
            assert parse_topdown(enc, g.tokens, bound) == tree
        assert inner_chains > 0


class TestLossZeroMeansExactParse:
    def test_overfit_single_sentence(self):
        cfg = parser_config(["", "B", "ROOT+A"], words=("t1", "t2", "t3"))
        p = ModelParams.initialize(cfg, seed=1)
        gold = "(ROOT (A (B t1 t2) t3))"
        trace = gold_trace(tree_from_sexpr(gold))
        state = AdamState()
        loss_value = None
        for _ in range(400):
            tokens, bound, enc = encode_tokens(p, ["t1", "t2", "t3"])
            loss = loss_topdown(enc, trace, bound)
            loss_value = float(loss.value)
            if loss_value == 0.0:
                break
            loss.backward()
            adam_step(p.tensors, bound.grads(), state, lr=0.05)
        assert loss_value == 0.0, f"loss failed to reach zero: {loss_value}"
        tokens, bound, enc = encode_tokens(p, ["t1", "t2", "t3"])
        assert tree_to_sexpr(parse_topdown(enc, tokens, bound)) == gold


class TestParseValidity:
    def test_random_parameters_always_yield_restorable_trees(self):
        # Inventory realistically built from generated gold trees, which
        # include remote and ancestor markers.
        corpus = generate(
            SyntheticSpec(sentences=30, max_tokens=10, p_remote=0.4, p_discontinuity=0.6),
            seed=21,
        )
        cfg = build_model_config(
            corpus,
            TrainConfig(
                word_dim=3,
                tag_dim=2,
                lstm_hidden=4,
                mlp_hidden=5,
                remote_mlp_dim=3,
                use_pos=False,
                use_ner=False,
                use_dep=False,
            ),
        )
        assert any("-ancestor1" in lab for lab in cfg.labels)
        assert any("-remote" in lab for lab in cfg.labels)
        rng = np.random.default_rng(17)
        for seed in (0, 1):
            p = ModelParams.initialize(cfg, seed=seed)
            # Inflate the output heads so scores are far from tied.
            p.tensors["label_out_w"] *= 40.0
            p.tensors["span_out_w"] *= 40.0
            for _ in range(15):
                n = int(rng.integers(1, 61))
                forms = [f"w{rng.integers(0, 50)}" for _ in range(n)]
                tokens, bound, enc = encode_tokens(p, forms)
                tree = parse_topdown(enc, tokens, bound)
                assert tree.validate() == []
                restored, marked = tree_to_graph(tree)
                assert restored.validate() == []
                assert all(m in restored.nonterminals for m in marked)


BLOCKS_AS_ONE_CALL = """
import json, os
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
import numpy as np
from uccatree.graph_model import Token
from uccatree.neural_core import UNK, BoundParams, ModelConfig, ModelParams, embed, encode, split_scores
from uccatree.span_parser import _split_table
equal = []
for dtype in ("float64", "float32"):
    cfg = ModelConfig(words=[UNK, "a"], labels=["", "ROOT", "A"], dtype=dtype)
    bound = BoundParams(ModelParams.initialize(cfg, seed=1))
    for n in (70, 121):
        enc = encode(embed(tuple(Token(form="a") for _ in range(n)), "en", bound), bound)
        spans, table, blocked = _split_table(enc, bound)
        assert blocked.dtype == dtype
        equal.append(bool(np.array_equal(blocked, split_scores(enc, spans, bound).value[table])))
print(json.dumps(equal))
"""


class TestLongSentence:
    """The split table is scored in blocks of spans, so a long sentence's
    parse holds O(n^2) scalars, not an O(n^2) x mlp_hidden hidden layer."""

    def test_blocks_score_as_one_call_with_one_blas_thread(self):
        # Several BLAS threads may split one call's rows between them and
        # round some differently, so the check runs with one, as the
        # benchmark does.  Both lengths end on a ragged block, at both dtypes.
        assert run_python(BLOCKS_AS_ONE_CALL) == "[true, true, true, true]"

    def test_long_parse_memory_is_bounded(self):
        # Paper dimensions; one call over all 45,150 spans peaks at 433 MiB.
        cfg = ModelConfig(words=[UNK, *(f"w{k}" for k in range(50))],
                          labels=["", "ROOT", "A", "P", "H", "A-remote", "P-ancestor1"])
        model = ModelParams.initialize(cfg, seed=1)
        tokens, bound, enc = encode_tokens(model, [f"w{k % 50}" for k in range(300)])
        tracemalloc.start()
        try:
            tree = parse_topdown(enc, tokens, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert tree.validate() == []
