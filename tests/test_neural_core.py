"""Embedding, encoder, scoring heads, the optimizer, checkpoints."""

from __future__ import annotations

import json
import math
import os
import warnings

import numpy as np
import pytest

from conftest import tape_nodes
from uccatree import autodiff as ad
from uccatree.autodiff import Var
from uccatree.graph_model import Token
from uccatree.neural_core import (
    ADAM_BLOCK,
    NOT_PARENT,
    UNK,
    AdamState,
    BoundParams,
    ModelConfig,
    ModelParams,
    OptimizationError,
    Vocab,
    adam_step,
    _check_finite,
    biaffine,
    embed,
    encode,
    label_scores,
    span_affine,
    split_scores,
)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        word_dim=4,
        tag_dim=2,
        lang_dim=3,
        lstm_hidden=5,
        mlp_hidden=6,
        remote_mlp_dim=3,
        use_pos=True,
        use_ner=False,
        use_dep=False,
        words=[UNK, "a", "b"],
        pos_tags=[UNK, "N"],
        labels=["", "A", "ROOT"],
        remote_labels=[NOT_PARENT, "A"],
    )
    base.update(overrides)
    return ModelConfig(**base)


def tokens_of(*forms: str) -> tuple[Token, ...]:
    return tuple(Token(form=f, pos="N") for f in forms)


class TestConfig:
    def test_input_dim_composition(self):
        cfg = tiny_config()
        assert cfg.input_dim == 4 + 2
        assert tiny_config(multilingual=True).input_dim == 4 + 2 + 3
        assert tiny_config(external_dim=5).input_dim == 4 + 2 + 5
        assert tiny_config(pretrained_dim=7).input_dim == 4 + 2 + 7
        assert tiny_config(use_ner=True, use_dep=True).input_dim == 4 + 3 * 2

    def test_default_dimensions(self):
        cfg = ModelConfig()
        assert cfg.word_dim == 100
        assert cfg.tag_dim == 50
        assert cfg.lang_dim == 50
        assert cfg.lstm_hidden == 250
        assert cfg.mlp_hidden == 250
        assert cfg.remote_mlp_dim == 100
        assert cfg.input_dim == 100 + 3 * 50
        assert cfg.span_dim == 500

    def test_json_round_trip(self):
        cfg = tiny_config(multilingual=True, languages=[UNK, "de", "en"])
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_dtype_key_of_older_checkpoints(self):
        cfg = tiny_config()
        assert "dtype" not in cfg.to_json()
        assert ModelConfig.from_json({**cfg.to_json(), "dtype": "float64"}) == cfg
        with pytest.raises(ValueError, match="'float32'"):
            ModelConfig.from_json({**cfg.to_json(), "dtype": "float32"})


class TestVocab:
    def test_build_sorts_and_reserves(self):
        v = Vocab.build(["b", "a", "b"])
        assert v.items == [UNK, "a", "b"]
        assert v.lookup("a") == 1
        assert v.lookup("zzz") == 0

    def test_reserved_not_duplicated(self):
        v = Vocab.build(["x", UNK])
        assert v.items == [UNK, "x"]


class TestInitialize:
    def test_tensor_shapes(self):
        p = ModelParams.initialize(tiny_config(), seed=0)
        t = p.tensors
        assert t["emb_word"].shape == (3, 4)
        assert t["emb_pos"].shape == (2, 2)
        assert t["lstm1f_wx"].shape == (20, 6)
        assert t["lstm1f_wh"].shape == (20, 5)
        assert t["lstm2b_wx"].shape == (20, 10)
        assert t["label_hidden_w"].shape == (6, 10)
        assert t["span_hidden_w"].shape == (6, 10)
        assert t["label_out_w"].shape == (3, 6)
        assert t["span_out_w"].shape == (1, 6)
        assert t["remote_child_w"].shape == (3, 10)
        assert t["remote_parent_w"].shape == (3, 10)
        assert t["biaffine_w"].shape == (4, 2, 3)
        assert all(a.dtype == np.float64 for a in t.values())

    def test_forget_gate_bias_is_one(self):
        p = ModelParams.initialize(tiny_config(), seed=0)
        for prefix in ("lstm1f", "lstm1b", "lstm2f", "lstm2b"):
            b = p.tensors[prefix + "_b"]
            assert b[5:10].tolist() == [1.0] * 5
            assert not b[:5].any() and not b[10:].any()

    def test_mlp_biases_start_at_zero(self):
        p = ModelParams.initialize(tiny_config(), seed=0)
        for name in ("label_hidden_b", "span_hidden_b", "label_out_b", "span_out_b",
                     "remote_child_b", "remote_parent_b"):
            assert not p.tensors[name].any()

    def test_glorot_bounds(self):
        p = ModelParams.initialize(tiny_config(), seed=1)
        w = p.tensors["label_hidden_w"]
        limit = math.sqrt(6.0 / (10 + 6))
        assert np.abs(w).max() <= limit
        assert w.std() > 0.1 * limit

    def test_embedding_range(self):
        p = ModelParams.initialize(tiny_config(), seed=1)
        e = p.tensors["emb_word"]
        assert np.abs(e).max() <= 0.01
        assert np.abs(e).max() > 0.0

    def test_shared_head_swaps_tensor_names(self):
        p = ModelParams.initialize(tiny_config(share_span_hidden=True), seed=0)
        assert "head_hidden_w" in p.tensors
        assert "label_hidden_w" not in p.tensors and "span_hidden_w" not in p.tensors

    def test_seed_determinism(self):
        a = ModelParams.initialize(tiny_config(), seed=3).tensors
        b = ModelParams.initialize(tiny_config(), seed=3).tensors
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_pretrained_matrix_copied_in_c_order(self):
        # Adam updates tensors through flat views, which a Fortran-ordered
        # matrix has not; the caller's matrix must not move either.
        cfg = tiny_config(pretrained_dim=2, pretrained_words=["a", "b"])
        pre = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        p = ModelParams.initialize(cfg, seed=0, pretrained=pre)
        assert p.tensors["emb_pre"].flags.c_contiguous
        adam_step(p.tensors, {"emb_pre": np.ones((3, 2))}, AdamState())
        assert np.array_equal(pre, np.arange(6.0).reshape(3, 2))
        assert np.all(p.tensors["emb_pre"] < pre)

    def test_pretrained_shape_mismatch(self):
        cfg = tiny_config(pretrained_dim=2, pretrained_words=["a"])
        with pytest.raises(ValueError, match="pretrained"):
            ModelParams.initialize(cfg, seed=0, pretrained=np.zeros((5, 2)))


class TestEmbed:
    def test_unknown_word_differs_only_in_word_slice(self):
        p = ModelParams.initialize(tiny_config(), seed=0)
        bound = BoundParams(p)
        m = embed(tokens_of("zzz", "a"), "en", bound).value
        assert np.array_equal(m[0, :4], p.tensors["emb_word"][0])
        assert np.array_equal(m[1, :4], p.tensors["emb_word"][1])
        assert np.array_equal(m[0, 4:], m[1, 4:])  # same pos tag

    def test_language_embedding_repeats_per_token(self):
        cfg = tiny_config(multilingual=True, languages=[UNK, "de"])
        p = ModelParams.initialize(cfg, seed=0)
        m = embed(tokens_of("a", "b", "a"), "de", BoundParams(p)).value
        assert m.shape == (3, cfg.input_dim)
        lang_block = m[:, -3:]
        assert np.array_equal(lang_block[0], p.tensors["emb_lang"][1])
        assert np.array_equal(lang_block[0], lang_block[1])
        assert np.array_equal(lang_block[0], lang_block[2])

    def test_external_features_required_and_checked(self):
        cfg = tiny_config(external_dim=2)
        bound = BoundParams(ModelParams.initialize(cfg, seed=0))
        toks = tokens_of("a", "b")
        with pytest.raises(ValueError, match="external"):
            embed(toks, "en", bound)
        with pytest.raises(ValueError, match="shape"):
            embed(toks, "en", bound, external=np.zeros((2, 3)))
        out = embed(toks, "en", bound, external=np.ones((2, 2)))
        assert out.value.shape == (2, 8)
        assert np.array_equal(out.value[:, -2:], np.ones((2, 2)))


def zeroed(params: ModelParams) -> ModelParams:
    for arr in params.tensors.values():
        arr[...] = 0.0
    return params


class TestEncode:
    def test_gate_order_matches_hand_recurrence(self):
        # One-dimensional LSTM: replay the i, f, o, g slices by hand.
        cfg = tiny_config(word_dim=1, use_pos=False, lstm_hidden=1, mlp_hidden=2,
                          remote_mlp_dim=1)
        p = ModelParams.initialize(cfg, seed=2)
        bound = BoundParams(p)
        inputs = embed(tokens_of("a", "b"), "en", bound)
        enc = encode(inputs, bound)

        def run(prefix, xs):
            wx = p.tensors[prefix + "_wx"]
            wh = p.tensors[prefix + "_wh"]
            b = p.tensors[prefix + "_b"]
            h = c = 0.0
            outs = []
            for x in xs:
                pre = [float(wx[k] @ x) + float(wh[k, 0]) * h + float(b[k]) for k in range(4)]
                i = 1.0 / (1.0 + math.exp(-pre[0]))
                f = 1.0 / (1.0 + math.exp(-pre[1]))
                o = 1.0 / (1.0 + math.exp(-pre[2]))
                g = math.tanh(pre[3])
                c = f * c + i * g
                h = o * math.tanh(c)
                outs.append(h)
            return outs

        x = [inputs.value[0], inputs.value[1]]
        f1 = run("lstm1f", x)
        b1 = run("lstm1b", x[::-1])[::-1]
        layer2_in = [np.array([f1[k], b1[k]]) for k in range(2)]
        f2 = run("lstm2f", layer2_in)
        b2 = run("lstm2b", layer2_in[::-1])[::-1]
        # Row i of the fenceposts is [f_i ; -b_i].
        assert enc.fenceposts.value[1:, 0] == pytest.approx(f2, abs=1e-12)
        assert -enc.fenceposts.value[:2, 1] == pytest.approx(b2, abs=1e-12)

    def test_boundary_rows_are_zero(self):
        p = ModelParams.initialize(tiny_config(), seed=0)
        bound = BoundParams(p)
        enc = encode(embed(tokens_of("a", "b", "a"), "en", bound), bound)
        assert enc.fenceposts.value.shape == (4, 10)
        assert not enc.fenceposts.value[0, :5].any()  # f_0
        assert not enc.fenceposts.value[3, 5:].any()  # b_n

    def test_single_token_sentence(self):
        p = ModelParams.initialize(tiny_config(), seed=0)
        bound = BoundParams(p)
        enc = encode(embed(tokens_of("a"), "en", bound), bound)
        assert enc.fenceposts.value.shape == (2, 10)
        assert enc.n == 1

    def test_empty_sentence_rejected(self):
        p = ModelParams.initialize(tiny_config(), seed=0)
        bound = BoundParams(p)
        with pytest.raises(ValueError, match="empty"):
            encode(Var(np.zeros((0, 6))), bound)

    def test_tape_size_does_not_grow_with_length(self):
        p = ModelParams.initialize(tiny_config(), seed=0)

        def nodes(n):
            bound = BoundParams(p)
            enc = encode(embed(tokens_of(*["a", "b", "a"] * (n // 3)), "en", bound), bound)
            return tape_nodes(ad.vsum(enc.fenceposts))

        assert nodes(3) == nodes(9)

    def test_zero_parameters_give_zero_encoding(self):
        p = zeroed(ModelParams.initialize(tiny_config(), seed=0))
        bound = BoundParams(p)
        enc = encode(embed(tokens_of("a", "b"), "en", bound), bound)
        assert not enc.fenceposts.value.any()


def span_features(enc, spans) -> np.ndarray:
    """Span features r(i, j) as fencepost row j minus row i, in NumPy."""
    lo, hi = np.array(spans).T
    return enc.fenceposts.value[hi] - enc.fenceposts.value[lo]


class TestSpanReprs:
    """Span representations r(i, j) seen through ``span_affine``."""

    @pytest.mark.parametrize("shared", [False, True])
    def test_matches_fencepost_differences_of_the_lstm_outputs(self, shared):
        p = ModelParams.initialize(tiny_config(share_span_hidden=shared), seed=5)
        rng = np.random.default_rng(6)
        for name, arr in p.tensors.items():
            if name.endswith("_b"):
                arr[...] = rng.standard_normal(arr.shape)
        bound = BoundParams(p)
        inputs = embed(tokens_of("a", "b", "a", "b", "a"), "en", bound)
        enc = encode(inputs, bound)
        # The two top LSTM outputs, one direction at a time from the
        # one-direction ops rather than read from enc.

        def direction(x, prefix):
            projected = ad.linear(x, bound[prefix + "_wx"], bound[prefix + "_b"])
            return ad.lstm(projected, bound[prefix + "_wh"], reverse=prefix.endswith("b"))

        layer2 = ad.concat([direction(inputs, "lstm1f"), direction(inputs, "lstm1b")], axis=1)
        f2, b2 = direction(layer2, "lstm2f").value, direction(layer2, "lstm2b").value
        zero = np.zeros((1, 5))
        f, b = np.vstack([zero, f2]), np.vstack([b2, zero])  # f_0 = b_n = 0
        spans = [(i, j) for i in range(5) for j in range(i + 1, 6)] + [(0, 5), (2, 3)]
        r = np.array([np.concatenate([f[j] - f[i], b[i] - b[j]]) for i, j in spans])
        layers = ["head_hidden"] if shared else ["label_hidden", "span_hidden"]
        for name in layers + ["remote_child", "remote_parent"]:
            want = r @ p.tensors[name + "_w"].T + p.tensors[name + "_b"]
            got = span_affine(enc, spans, bound, name).value
            assert got == pytest.approx(want, abs=1e-12), name

    def test_adjacent_spans_add_up(self):
        p = ModelParams.initialize(tiny_config(), seed=5)
        p.tensors["label_hidden_b"][...] = 0.7
        bound = BoundParams(p)
        enc = encode(embed(tokens_of("a", "b", "a", "b", "a"), "en", bound), bound)
        b = p.tensors["label_hidden_b"]
        spans = [(0, 2), (2, 5), (0, 5)]
        left, right, whole = span_affine(enc, spans, bound, "label_hidden").value
        assert whole - b == pytest.approx((left - b) + (right - b), abs=1e-12)

    def test_batch_matches_single(self):
        p = ModelParams.initialize(tiny_config(), seed=5)
        bound = BoundParams(p)
        enc = encode(embed(tokens_of("a", "b", "a"), "en", bound), bound)
        one = lambda span: span_affine(enc, [span], bound, "span_hidden").value[0]
        batch = span_affine(enc, [(0, 1), (1, 3)], bound, "span_hidden").value
        assert np.array_equal(batch[0], one((0, 1)))
        assert np.array_equal(batch[1], one((1, 3)))

    def test_invalid_spans_rejected(self):
        p = ModelParams.initialize(tiny_config(), seed=0)
        bound = BoundParams(p)
        enc = encode(embed(tokens_of("a", "b"), "en", bound), bound)
        for bad in [(1, 1), (2, 1), (-1, 1), (0, 3)]:
            with pytest.raises(ValueError, match=rf"span \({bad[0]}, {bad[1]}\) for n=2"):
                span_affine(enc, [(0, 1), bad], bound, "label_hidden")


class TestScoringHeads:
    def test_label_scores_match_manual_forward(self):
        p = ModelParams.initialize(tiny_config(), seed=6)
        for name in ("label_hidden_b", "label_out_b"):
            p.tensors[name][...] = np.random.default_rng(1).standard_normal(
                p.tensors[name].shape
            )
        bound = BoundParams(p)
        enc = encode(embed(tokens_of("a", "b", "a", "b", "a"), "en", bound), bound)
        spans = [(0, 5), (1, 3), (3, 4), (0, 2)]
        got = label_scores(enc, spans, bound).value
        hidden = np.maximum(
            span_features(enc, spans) @ p.tensors["label_hidden_w"].T
            + p.tensors["label_hidden_b"],
            0.0,
        )
        want = hidden @ p.tensors["label_out_w"].T + p.tensors["label_out_b"]
        assert got == pytest.approx(want, abs=1e-12)
        assert got.shape == (4, 3)

    def test_split_scores_match_manual_forward(self):
        p = ModelParams.initialize(tiny_config(), seed=7)
        bound = BoundParams(p)
        enc = encode(embed(tokens_of("a", "b", "a", "b", "a"), "en", bound), bound)
        spans = [(0, 1), (0, 5), (2, 4), (4, 5), (1, 5)]
        got = split_scores(enc, spans, bound).value
        hidden = np.maximum(span_features(enc, spans) @ p.tensors["span_hidden_w"].T, 0.0)
        want = hidden @ p.tensors["span_out_w"][0]
        assert got == pytest.approx(want, abs=1e-12)
        assert got.shape == (5,)

    def test_shared_hidden_uses_same_matrix_for_both_heads(self):
        p = ModelParams.initialize(tiny_config(share_span_hidden=True), seed=8)
        bound = BoundParams(p)
        enc = encode(embed(tokens_of("a", "b", "a"), "en", bound), bound)
        spans = [(0, 3), (1, 2)]
        hidden = np.maximum(span_features(enc, spans) @ p.tensors["head_hidden_w"].T, 0.0)
        assert label_scores(enc, spans, bound).value == pytest.approx(
            hidden @ p.tensors["label_out_w"].T, abs=1e-12
        )
        assert split_scores(enc, spans, bound).value == pytest.approx(
            hidden @ p.tensors["span_out_w"][0], abs=1e-12
        )


class TestBiaffine:
    """``biaffine`` scores the whole (child, label, parent) grid at once."""

    def test_hand_case(self):
        u = Var(np.array([[2.0, 1.0]]))
        v = Var(np.array([[3.0, -1.0, 2.0]]))
        w = np.zeros((3, 2, 3))
        w[:, 0, :] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        w[:, 1, :] = [[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
        out = biaffine(u, v, Var(w)).value
        # Label 0: [2,1,1] . diag-pick . [3,-1,2] = 2*3 + 1*(-1) + 1*2 = 7.
        # Label 1: worked by loops below.
        expected = [
            sum(ext * w[i, l, j] * v.value[0, j] for i, ext in enumerate([2.0, 1.0, 1.0]) for j in range(3))
            for l in range(2)
        ]
        assert out.shape == (1, 2, 1)
        assert out[0, :, 0] == pytest.approx(expected, abs=1e-12)
        assert expected[0] == 7.0

    def test_zero_weights_give_zero_scores(self):
        out = biaffine(Var(np.ones((2, 4))), Var(np.ones((3, 3))), Var(np.zeros((5, 2, 3))))
        assert out.value.shape == (2, 2, 3)
        assert not out.value.any()

    def test_zero_child_exposes_parent_bias_row(self):
        r = np.random.default_rng(5)
        w = r.standard_normal((3, 2, 4))
        v = r.standard_normal((3, 4))
        out = biaffine(Var(np.zeros((2, 2))), Var(v), Var(w)).value
        for k in range(2):
            for j in range(3):
                assert out[k, :, j] == pytest.approx(w[2] @ v[j], abs=1e-12)

    def test_bilinear_in_parent(self):
        r = np.random.default_rng(6)
        u = r.standard_normal((2, 3))
        w = r.standard_normal((4, 2, 5))
        v1, v2 = r.standard_normal((3, 5)), r.standard_normal((3, 5))
        one = lambda v: biaffine(Var(u.copy()), Var(v), Var(w.copy())).value
        assert one(v1 + v2) == pytest.approx(one(v1) + one(v2), abs=1e-10)

    def test_rows_are_scored_independently(self):
        # Cell (k, :, j) reads child row k and parent row j, nothing else.
        r = np.random.default_rng(7)
        u = r.standard_normal((4, 3))
        v = r.standard_normal((3, 5))
        w = r.standard_normal((4, 2, 5))
        grid = biaffine(Var(u), Var(v), Var(w)).value
        assert grid.shape == (4, 2, 3)
        for k in range(4):
            for j in range(3):
                cell = biaffine(Var(u[k : k + 1]), Var(v[j : j + 1]), Var(w)).value
                assert grid[k, :, j] == pytest.approx(cell[0, :, 0], abs=1e-12)


class TestOptimizers:
    def test_adam_first_step_closed_form(self):
        lr, eps = 1e-3, 1e-8
        theta = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -4.0, 0.0])
        t = {"w": theta.copy()}
        adam_step(t, {"w": g.copy()}, AdamState(), lr=lr, eps=eps)
        expected = theta - lr * g / (np.abs(g) + eps)
        assert t["w"] == pytest.approx(expected, abs=1e-15)

    def test_adam_two_steps_match_manual_recurrence(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        theta = np.array([0.7])
        grads = [np.array([0.2]), np.array([-0.4])]
        t = {"w": theta.copy()}
        state = AdamState()
        m = v = np.zeros(1)
        want = theta.copy()
        for step, g in enumerate(grads, start=1):
            adam_step(t, {"w": g.copy()}, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            want = want - lr * (m / (1 - b1**step)) / (np.sqrt(v / (1 - b2**step)) + eps)
        assert state.t == 2
        assert t["w"] == pytest.approx(want, abs=1e-15)

    def test_adam_blocks_match_textbook_recurrence(self):
        # Three blocks and a partial one; gradients from 1e-9 to 1e2 keep
        # sqrt(v_hat) on both sides of eps.  All positive, so no update
        # cancels another and the relative error means something.
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        size = 3 * ADAM_BLOCK + 7
        rng = np.random.default_rng(5)
        t = {"w": np.zeros(size)}
        state = AdamState()
        m = v = want = np.zeros(size)
        for step in range(1, 4):
            g = 10.0 ** rng.uniform(-9, 2, size)
            adam_step(t, {"w": g}, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            want = want - lr * (m / (1 - b1**step)) / (np.sqrt(v / (1 - b2**step)) + eps)
        assert state.t == 3
        assert np.max(np.abs(t["w"] - want) / np.abs(want)) < 1e-14

    def test_adam_leaves_frozen_tensor_and_gradients_alone(self):
        rng = np.random.default_rng(6)
        t = {"w": rng.standard_normal((40, 30)), "frozen": rng.standard_normal(5)}
        frozen = t["frozen"].copy()
        # A tensor without a gradient stays as it is.  A transposed
        # (non-contiguous) gradient is read, never written.
        grads = {"w": rng.standard_normal((30, 40)).T}
        kept = {name: g.copy() for name, g in grads.items()}
        contiguous = {"w": t["w"].copy()}
        state, other = AdamState(), AdamState()
        for _ in range(2):
            adam_step(t, grads, state)
            adam_step(contiguous, {"w": kept["w"].copy()}, other)
        assert np.array_equal(t["frozen"], frozen)
        assert "frozen" not in state.m and "frozen" not in state.v
        assert np.array_equal(t["w"], contiguous["w"])
        for name, g in grads.items():
            assert np.array_equal(g, kept[name])

    def test_adam_rejects_non_contiguous_tensor_before_any_change(self):
        t = {"a": np.full(3, 0.5), "w": np.ones((3, 4)).T}
        state = AdamState()
        with pytest.raises(ValueError, match="'w' is not C-contiguous"):
            adam_step(t, {"a": np.ones(3), "w": np.ones((4, 3))}, state)
        assert t["a"].tolist() == [0.5] * 3 and np.array_equal(t["w"], np.ones((4, 3)))
        assert state.t == 0 and not state.m and not state.v

    def test_failed_step_changes_nothing(self):
        # The bad gradient comes after a good one: the good tensor must
        # not move either, nor may the optimizer state.
        def tensors():
            return {"a": np.full(3, 0.5), "b": np.array([1.0, 2.0])}

        bad = {"a": np.ones(3), "b": np.array([np.nan, 0.0])}
        t = tensors()
        state = AdamState()
        adam_step(t, {"a": np.ones(3), "b": np.ones(2)}, state)
        moved = {k: arr.copy() for k, arr in t.items()}
        m = {k: arr.copy() for k, arr in state.m.items()}
        v = {k: arr.copy() for k, arr in state.v.items()}
        with pytest.raises(OptimizationError, match="'b'"):
            adam_step(t, bad, state)
        assert state.t == 1
        for name in moved:
            assert np.array_equal(t[name], moved[name])
            assert np.array_equal(state.m[name], m[name])
            assert np.array_equal(state.v[name], v[name])

    def test_non_finite_gradients_rejected(self):
        t = {"w": np.zeros(2)}
        for bad in (np.array([1.0, np.nan]), np.array([np.inf, 0.0])):
            with pytest.raises(OptimizationError, match="non-finite"):
                adam_step(t, {"w": bad}, AdamState())

    def test_opposite_infinities_rejected_by_name(self):
        # Their sum is NaN, not infinite: the tensor is still named.
        with pytest.raises(OptimizationError, match="non-finite gradient for tensor 'w'"):
            _check_finite("w", np.array([np.inf, -np.inf]))

    def test_finite_gradient_whose_sum_overflows_passes_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check_finite("w", np.full(4, 1e308))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        p = ModelParams.initialize(tiny_config(multilingual=True, languages=[UNK, "de"]), seed=9)
        path = str(tmp_path / "model.json")
        p.save(path)
        q = ModelParams.load(path)
        assert q.config == p.config
        assert set(q.tensors) == set(p.tensors)
        for name in p.tensors:
            assert np.array_equal(q.tensors[name], p.tensors[name])
        # Saving the loaded model reproduces the identical file.
        path2 = str(tmp_path / "model2.json")
        q.save(path2)
        assert open(path).read() == open(path2).read()

    def test_version_check(self, tmp_path):
        p = ModelParams.initialize(tiny_config(), seed=0)
        path = str(tmp_path / "model.json")
        p.save(path)
        payload = json.load(open(path))
        payload["version"] = 99
        json.dump(payload, open(path, "w"))
        with pytest.raises(ValueError, match="version"):
            ModelParams.load(path)

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        ModelParams.initialize(tiny_config(), seed=0).save(str(path))
        before = path.read_bytes()
        plain = tmp_path / "plain.txt"
        open(plain, "w").close()
        assert os.stat(path).st_mode == os.stat(plain).st_mode
        plain.unlink()

        def interrupted(payload, fh, **kwargs):
            fh.write('{"config": {')
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", interrupted)
        with pytest.raises(KeyboardInterrupt):
            ModelParams.initialize(tiny_config(), seed=1).save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.json"]

    def test_copy_tensors_detached(self):
        p = ModelParams.initialize(tiny_config(), seed=0)
        copy = p.copy_tensors()
        copy["emb_word"][0, 0] = 123.0
        assert p.tensors["emb_word"][0, 0] != 123.0


class TestBoundParams:
    def test_grads_only_for_touched_tensors(self):
        p = ModelParams.initialize(tiny_config(), seed=0)
        bound = BoundParams(p)
        loss = ad.vsum(bound["emb_word"])
        loss.backward()
        grads = bound.grads()
        assert set(grads) == {"emb_word"}
        assert grads["emb_word"].shape == (3, 4)
