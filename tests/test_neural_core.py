"""Embedding, encoder, scoring heads, the optimizer, checkpoints."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import threading
import warnings

import numpy as np
import pytest

from conftest import tape_nodes
from uccatree import autodiff as ad
from uccatree import neural_core as nc
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
    _finite,
    biaffine,
    embed,
    encode,
    label_scores,
    span_affine,
    split_scores,
    tensor_shapes,
    tensor_views,
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

    def test_lookups_input_dim_and_tensors_name_the_same_tables(self):
        for pos, ner, dep, multilingual, pre, ext in itertools.product((False, True), repeat=6):
            cfg = tiny_config(use_pos=pos, use_ner=ner, use_dep=dep, multilingual=multilingual,
                              pretrained_dim=7 * pre, pretrained_words=["a"] * pre, external_dim=5 * ext)
            tables = {name: shape for name, shape in tensor_shapes(cfg).items() if name.startswith("emb_")}
            assert list(ModelParams.initialize(cfg).lookups) == list(tables)
            assert cfg.input_dim == sum(width for _, width in tables.values()) + cfg.external_dim

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

    @pytest.mark.parametrize(
        "key, value",
        [("dtype", "float16"), ("lstm_hidden", "5"), ("lstm_hidden", 0), ("external_dim", -1),
         ("use_pos", 1), ("words", ["a", 1]), ("labels", "A")],
    )
    def test_from_json_refuses_what_a_checkpoint_cannot_hold(self, key, value):
        with pytest.raises((TypeError, ValueError), match=key):
            ModelConfig.from_json({**tiny_config().to_json(), key: value})

    @pytest.mark.parametrize("dtype", ["float16", "int64", "f4"])
    def test_a_model_of_another_dtype_is_refused(self, dtype):
        with pytest.raises(ValueError, match=f"model dtype '{dtype}' is not one of"):
            ModelParams.initialize(tiny_config(dtype=dtype), seed=0)


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

    def test_tensor_shapes_is_the_inventory_initialize_draws(self):
        cfg = tiny_config(multilingual=True, languages=[UNK, "de"], pretrained_dim=2,
                          pretrained_words=["a"], share_span_hidden=True)
        p = ModelParams.initialize(cfg, seed=0)
        assert [(k, a.shape) for k, a in p.tensors.items()] == list(tensor_shapes(cfg).items())

    # sha256 of the tensors that initialize drew before the tensor inventory
    # replaced the hand-written initializers: a change of draw order or of an
    # initializer shows here.
    @pytest.mark.parametrize(
        "overrides, pretrained, digest",
        [
            (dict(use_pos=False), None,
             "fa33d53bb8d9c4d50fa348f4d6a206fd2a2a9428bf5f16a28e70076a47c82c44"),
            (dict(use_ner=True, use_dep=True, multilingual=True, ner_tags=[UNK, "P"],
                  dep_labels=[UNK, "d"], languages=[UNK, "de"]), None,
             "14c6babfa5bbb00265f0513174ff7a285215025c616519101b89356310a3f9ef"),
            (dict(pretrained_dim=3, pretrained_words=["a", "c"]), None,
             "21378d6bb56f75ade508f898a480aa31265e99be33dcacf6b74f18c274c6e259"),
            (dict(pretrained_dim=3, pretrained_words=["a", "c"]), np.arange(9.0).reshape(3, 3) / 7,
             "e90ddb73c185e49c65fdbbc05f1ddc5d7282d50ecddc441e0b28ac334908897d"),
            (dict(share_span_hidden=True), None,
             "9efb3beb8c149ee05e2908ee99658a0f8692b5207b0c33a59937ff807119a950"),
            (dict(multilingual=True, languages=[UNK, "de"]), None,
             "0621e8a21cad9ad03f30a6dae9aef869797ead36eb9d1bbccf8a440cd6a1d281"),
        ],
    )
    def test_golden_digest(self, overrides, pretrained, digest):
        tensors = ModelParams.initialize(tiny_config(**overrides), seed=3, pretrained=pretrained).tensors
        h = hashlib.sha256()
        for name in sorted(tensors):
            h.update(f"{name} {tensors[name].shape}\n".encode())
            h.update(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())
        assert h.hexdigest() == digest

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


def moments(state: AdamState, tensors: dict[str, np.ndarray]) -> list[dict[str, np.ndarray]]:
    """Each tensor's views of ``state.m`` and of ``state.v``."""
    shapes = {name: arr.shape for name, arr in tensors.items()}
    return [tensor_views(flat, shapes) for flat in (state.m, state.v)]


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
        assert all(not part["frozen"].any() for part in moments(state, t))
        assert np.array_equal(t["w"], contiguous["w"])
        for name, g in grads.items():
            assert np.array_equal(g, kept[name])

    def test_adam_rejects_non_contiguous_tensor_before_any_change(self):
        t = {"a": np.full(3, 0.5), "w": np.ones((3, 4)).T}
        state = AdamState()
        with pytest.raises(ValueError, match="'w' is not C-contiguous"):
            adam_step(t, {"a": np.ones(3), "w": np.ones((4, 3))}, state)
        assert t["a"].tolist() == [0.5] * 3 and np.array_equal(t["w"], np.ones((4, 3)))
        assert state.t == 0 and state.m is None and state.v is None

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
        m, v = state.m.copy(), state.v.copy()
        with pytest.raises(OptimizationError, match="'b'"):
            adam_step(t, bad, state)
        assert state.t == 1
        for name in moved:
            assert np.array_equal(t[name], moved[name])
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    @pytest.mark.parametrize(
        "name, grad, stepped, message",
        [
            ("w", np.ones(3), None, r"gradient for tensor 'w' has shape \(3,\), not \(2, 2\)"),
            ("u", np.ones(5), None, r"gradient for tensor 'u' has shape \(5,\), not \(4,\)"),
            ("x", np.ones(2), None, "gradient for 'x', which is not a tensor"),
            ("w", np.ones((2, 2)), {"z": np.zeros(5)}, r"state.m has shape \(5,\), not the tensors' \(11,\)"),
            ("w", np.ones((2, 2), np.float32), None, "gradient for tensor 'w' is float32, not float64"),
            ("w", np.ones((2, 2)), {"z": np.zeros(11, np.float32)}, "state.m is float32, not the tensors' float64"),
        ],
    )
    def test_wrong_shape_or_name_refused_before_any_change(self, name, grad, stepped, message):
        # A gradient of another shape or dtype, a name without a tensor, or a
        # state whose moments were stepped on another model's tensors
        # (``stepped``) is refused, after a good gradient, and nothing moves.
        # A gradient of another dtype would otherwise take NumPy's slower
        # mixed-precision loops into the tensors.
        t = {"a": np.full(3, 0.5), "w": np.full((2, 2), 0.5), "u": np.full(4, 0.5)}
        state = AdamState()
        stepped = t if stepped is None else stepped
        adam_step(stepped, {k: np.ones_like(arr) for k, arr in stepped.items()}, state)
        values, m, v = {k: arr.copy() for k, arr in t.items()}, state.m.copy(), state.v.copy()
        with pytest.raises(ValueError, match=message):
            adam_step(t, {"a": np.ones(3), name: grad}, state)
        assert state.t == 1
        assert all(np.array_equal(t[k], values[k]) for k in values)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    @pytest.mark.parametrize("block", [5, 1000, 16384, 65536])
    def test_block_size_changes_no_bit(self, monkeypatch, block):
        # A block only partitions each element's identical operations, so
        # any ADAM_BLOCK leaves the bits of a run whose halves are one block
        # each (2**22 is over every size here).  Sizes of 1, 2 and 5 make
        # halves of 0 to 3 elements; the two large ones span several blocks
        # at 16 Ki and 64 Ki and end in a partial one.
        sizes = {"a": 1, "b": 2, "c": 5, "d": 70001, "e": 2 * 65536 + 3}
        rng = np.random.default_rng(11)
        steps = [
            {name: rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 1) for name, size in sizes.items()}
            for _ in range(3)
        ]

        def run(block_size: int):
            monkeypatch.setattr(nc, "ADAM_BLOCK", block_size)
            tensors = {name: np.linspace(-1.0, 1.0, size) for name, size in sizes.items()}
            state = AdamState()
            for grads in steps:
                adam_step(tensors, grads, state)
            return [tensors, *moments(state, tensors)]

        for got, want in zip(run(block), run(2**22)):
            for name in sizes:
                assert got[name].tobytes() == want[name].tobytes(), name

    # sha256 of the tensors, m and v that the one-thread update left after
    # four steps: a split of the update across threads must change no bit.
    # "all": every tensor of a model, each under ADAM_BLOCK (tensors over it
    # are test_block_size_changes_no_bit's), where each step leaves out a
    # different fifth of them (so some moments are made late); "one": a
    # single tensor; "none": no gradient at all, which only advances t.
    @pytest.mark.parametrize(
        "seed, which, digest",
        [
            (3, "all", "2f378a0e5f4dcdae274f094d3b562a77f733e9c1040fdef96bde6e591c23e38d"),
            (4, "all", "bae9ee6763b5e6edac71f5faeef18ba12f3ad23a3b9353845e09fb6126882d3b"),
            (5, "all", "fdbd1794ce6b8fd86d5051256dcd5335b9899c65b52ad38969ccd8aad03d31d9"),
            (3, "one", "198f36017df6cbf5a6d3a78d51a1136639ce6e02df11e2804ae5e45cd8466c27"),
            (3, "none", "ac1c73631a94f16b5fd4e489d3025dfb4309ac4fcc48195d46d6a808dc438741"),
        ],
    )
    def test_golden_digest(self, seed, which, digest):
        cfg = tiny_config(lstm_hidden=70, mlp_hidden=30, use_ner=True, ner_tags=[UNK, "P"],
                          multilingual=True, languages=[UNK, "de"])
        tensors = ModelParams.initialize(cfg, seed=seed).tensors
        names = {"all": list(tensors), "one": ["lstm1b_wx"], "none": []}[which]
        rng = np.random.default_rng(seed)
        state = AdamState()
        for step in range(4):
            grads = {
                name: rng.standard_normal(tensors[name].shape) * 10.0 ** rng.uniform(-3, 1)
                for k, name in enumerate(names) if k % 5 != step
            }
            adam_step(tensors, grads, state)
        assert state.t == 4
        m, v = moments(state, tensors)
        assert not any(part[name].any() for part in (m, v) for name in tensors if name not in names)
        h = hashlib.sha256()
        for part in (tensors, {name: m[name] for name in names}, {name: v[name] for name in names}):
            for name in sorted(part):
                h.update(f"{name} {part[name].shape}\n".encode())
                h.update(np.ascontiguousarray(part[name], dtype="<f8").tobytes())
        assert h.hexdigest() == digest

    def test_the_caller_updates_one_half_and_the_worker_the_other(self, monkeypatch):
        sizes = {"a": 1, "b": 2, "c": 5, "d": 2 * ADAM_BLOCK + 3}
        tensors = {name: np.zeros(size) for name, size in sizes.items()}
        moved = []

        def in_turn(here, there):  # ad.paired runs ``there`` on the worker
            results = []
            for job in (here, there):
                before = {name: arr.copy() for name, arr in tensors.items()}
                results.append(job())
                moved.append({n: np.flatnonzero(tensors[n] != before[n]).tolist() for n in tensors})
            return tuple(results)

        monkeypatch.setattr(ad, "paired", in_turn)
        adam_step(tensors, {name: np.ones_like(arr) for name, arr in tensors.items()}, AdamState())
        # The finite check's pair comes first and moves nothing.  A size-1
        # tensor's midpoint is 0, so its one element is the worker's.
        assert moved == [
            {n: [] for n in sizes},
            {n: [] for n in sizes},
            {n: list(range(size // 2)) for n, size in sizes.items()},
            {n: list(range(size // 2, size)) for n, size in sizes.items()},
        ]

    def test_non_finite_gradients_rejected(self):
        t = {"w": np.zeros(2)}
        for bad in (np.array([1.0, np.nan]), np.array([np.inf, 0.0])):
            with pytest.raises(OptimizationError, match="non-finite"):
                adam_step(t, {"w": bad}, AdamState())

    def test_opposite_infinities_rejected_by_name(self):
        # Each half's sum is NaN, not infinite: the tensor is still named.
        t = {"v": np.zeros(3), "w": np.zeros(4)}
        bad = {"v": np.zeros(3), "w": np.array([np.inf, -np.inf, -np.inf, np.inf])}
        with pytest.raises(OptimizationError, match="non-finite gradient for tensor 'w'"):
            adam_step(t, bad, AdamState())

    def test_finite_gradient_whose_sum_overflows_passes_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _finite(np.full(4, 1e308))

    def test_bad_value_only_in_the_workers_half(self):
        t = {"a": np.full(3, 0.5), "w": np.full(6, 0.5)}
        state = AdamState()
        with pytest.raises(OptimizationError, match="non-finite gradient for tensor 'w'$"):
            adam_step(t, {"a": np.ones(3), "w": np.array([1.0, 1.0, 1.0, 1.0, 1.0, np.nan])}, state)
        assert all(np.array_equal(arr, np.full(arr.size, 0.5)) for arr in t.values())
        assert state.t == 0 and state.m is None and state.v is None

    @pytest.mark.parametrize("first_half, second_half", [(0, 1), (1, 0)])
    def test_the_earlier_of_two_bad_tensors_is_named(self, first_half, second_half):
        # One bad tensor in each thread's half, in either order: the caller
        # names the one that comes first in ``grads``, whichever half it is in.
        grads = {name: np.ones(4) for name in ("a", "b", "c", "d")}
        grads["b"][3 * first_half] = np.inf
        grads["d"][3 * second_half] = np.nan
        t = {name: np.zeros(4) for name in grads}
        with pytest.raises(OptimizationError, match="non-finite gradient for tensor 'b'$"):
            adam_step(t, grads, AdamState())
        assert all(not arr.any() for arr in t.values())


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        p = ModelParams.initialize(tiny_config(multilingual=True, languages=[UNK, "de"]), seed=9)
        path = tmp_path / "model.json"
        p.save(str(path))
        q = ModelParams.load(str(path))
        assert q.config == p.config
        assert set(q.tensors) == set(p.tensors)
        for name, arr in q.tensors.items():
            assert arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.writeable
            assert arr.tobytes() == p.tensors[name].tobytes()
        # Saving the loaded model reproduces the identical file.
        q.save(str(tmp_path / "model2.json"))
        assert (tmp_path / "model2.json").read_bytes() == path.read_bytes()

    def test_float32_round_trip_is_four_bytes_a_value(self, tmp_path):
        p = ModelParams.initialize(tiny_config(dtype="float32"), seed=9)
        path = tmp_path / "model.json"
        p.save(str(path))
        header, payload = path.read_bytes().split(b"\n", 1)
        assert json.loads(header)["config"]["dtype"] == "float32"
        assert payload == p.values.astype("<f4").tobytes() and len(payload) == 4 * p.values.size
        q = ModelParams.load(str(path))
        assert q.config == p.config and q.values.dtype == np.float32
        assert q.values.tobytes() == p.values.tobytes()
        q.save(str(tmp_path / "model2.json"))
        assert (tmp_path / "model2.json").read_bytes() == path.read_bytes()

    def test_a_header_without_dtype_loads_as_float64(self, tmp_path):
        # Version 2 checkpoints written before ``dtype`` was a key.
        p = ModelParams.initialize(tiny_config(), seed=9)
        path = tmp_path / "model.json"
        p.save(str(path))
        header, payload = path.read_bytes().split(b"\n", 1)
        old = json.loads(header)
        del old["config"]["dtype"]
        path.write_bytes(json.dumps(old, sort_keys=True).encode() + b"\n" + payload)
        q = ModelParams.load(str(path))
        assert q.config.dtype == "float64" and q.values.dtype == np.float64
        assert q.values.tobytes() == p.values.tobytes()

    def test_layout_is_a_json_header_and_raw_float64(self, tmp_path):
        p = ModelParams.initialize(tiny_config(), seed=0)
        path = tmp_path / "model.json"
        p.save(str(path))
        header, payload = path.read_bytes().split(b"\n", 1)
        names = sorted(tensor_shapes(p.config))
        assert json.loads(header) == {"config": p.config.to_json(), "tensors": names, "version": 2}
        assert header == json.dumps(json.loads(header), sort_keys=True).encode()
        assert payload == b"".join(p.tensors[name].astype("<f8").tobytes() for name in names)

    def test_version_check(self, tmp_path):
        p = ModelParams.initialize(tiny_config(), seed=0)
        path = tmp_path / "model.json"
        p.save(str(path))
        header, payload = path.read_bytes().split(b"\n", 1)
        header = json.dumps({**json.loads(header), "version": 99}).encode()
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(ValueError, match=f"^{path}: checkpoint header: version 99, not 2$"):
            ModelParams.load(str(path))

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        ModelParams.initialize(tiny_config(), seed=0).save(str(path))
        before = path.read_bytes()
        plain = tmp_path / "plain.txt"
        open(plain, "w").close()
        assert os.stat(path).st_mode == os.stat(plain).st_mode
        plain.unlink()

        # The interrupt comes after the header is written, as the payload is.
        model, written = ModelParams.initialize(tiny_config(), seed=1), []

        def interrupted(arr, dtype=None):
            written.append(arr)
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "ascontiguousarray", interrupted)
        with pytest.raises(KeyboardInterrupt):
            model.save(str(path))
        assert len(written) == 1 and written[0] is model.values
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.json"]

    def test_save_to_a_pipe_writes_through_it(self, tmp_path):
        p = ModelParams.initialize(tiny_config(), seed=0)
        p.save(str(tmp_path / "model.json"))
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        p.save(str(fifo))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [(tmp_path / "model.json").read_bytes()]
        assert sorted(os.listdir(tmp_path)) == ["fifo", "model.json"]

    def test_copy_tensors_detached(self):
        p = ModelParams.initialize(tiny_config(), seed=0)
        copy = p.copy_tensors()
        copy["emb_word"][0, 0] = 123.0
        assert p.tensors["emb_word"][0, 0] != 123.0


class TestStore:
    @pytest.mark.parametrize("loaded", [False, True])
    def test_tensors_and_buffers_view_their_arrays_at_sorted_offsets(self, tmp_path, loaded):
        cfg = tiny_config(multilingual=True, languages=[UNK, "de"], pretrained_dim=2, pretrained_words=["a"])
        p = ModelParams.initialize(cfg, seed=0)
        if loaded:
            p.save(str(tmp_path / "model.ckpt"))
            p = ModelParams.load(str(tmp_path / "model.ckpt"))
        bound = BoundParams(p)
        for flat, views in ((p.values, p.tensors), (p.gradients, p.buffers)):
            assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
            offset = 0
            for name in sorted(tensor_shapes(cfg)):
                view = views[name]
                assert view.shape == tensor_shapes(cfg)[name] and view.flags.c_contiguous, name
                assert np.shares_memory(view, flat), name
                assert view.ctypes.data == flat.ctypes.data + 8 * offset, name
                offset += view.size
            assert offset == flat.size
        assert all(bound[name].buffer is p.buffers[name] for name in p.tensors)

    def test_assigning_tensors_copies_into_the_views(self, tmp_path):
        p = ModelParams.initialize(tiny_config(), seed=0)
        views = dict(p.tensors)
        other = ModelParams.initialize(tiny_config(), seed=1)
        arrays = other.copy_tensors()
        p.tensors = arrays
        assert all(p.tensors[name] is view for name, view in views.items())
        for name, arr in arrays.items():
            assert np.array_equal(p.tensors[name], arr) and not np.shares_memory(p.tensors[name], arr), name
        p.save(str(tmp_path / "assigned.ckpt"))
        other.save(str(tmp_path / "other.ckpt"))
        assert (tmp_path / "assigned.ckpt").read_bytes() == (tmp_path / "other.ckpt").read_bytes()

    @pytest.mark.parametrize(
        "name, arr", [("span_out_b", None), ("zzz", np.zeros(2)), ("span_out_b", np.zeros(2))]
    )
    def test_other_names_or_shapes_refused_before_any_tensor_changes(self, name, arr):
        # A missing name, an extra one, or another shape; the tensors before
        # the bad one in the mapping's order must not change either.
        p = ModelParams.initialize(tiny_config(), seed=0)
        before = p.values.copy()
        arrays = {key: value + 1.0 for key, value in p.tensors.items()}
        arrays.pop(name, None)
        if arr is not None:
            arrays[name] = arr
        with pytest.raises(ValueError, match=rf"tensors \['{name}'\] are missing, extra or of another shape"):
            p.tensors = arrays
        assert np.array_equal(p.values, before)

    def test_a_value_array_of_another_length_is_refused(self):
        cfg = tiny_config()
        size = sum(math.prod(shape) for shape in tensor_shapes(cfg).values())
        with pytest.raises(ValueError, match=rf"has shape \({size + 1},\), not the tensors' \({size},\)"):
            ModelParams(cfg, np.zeros(size + 1))


class TestBoundParams:
    def test_grads_only_for_touched_tensors(self):
        p = ModelParams.initialize(tiny_config(), seed=0)
        bound = BoundParams(p)
        loss = ad.vsum(bound["emb_word"])
        loss.backward()
        grads = bound.grads()
        assert set(grads) == {"emb_word"}
        assert grads["emb_word"].shape == (3, 4)
