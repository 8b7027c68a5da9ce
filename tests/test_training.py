"""Joint training loop: loss decomposition, determinism, stopping, features."""

from __future__ import annotations

import dataclasses
import gc
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from uccatree import training
from uccatree.autodiff import Var, analytic_grads
from uccatree.conversion import tree_from_sexpr, tree_to_graph
from uccatree.generator import SyntheticSpec, generate
from uccatree.graph_model import Token
from uccatree.neural_core import (
    NOT_PARENT,
    UNK,
    AdamState,
    BoundParams,
    ModelParams,
    OptimizationError,
    adam_step,
    embed,
    encode,
)
from uccatree.remote_recovery import loss_remote
from uccatree.span_parser import loss_topdown
from uccatree.training import (
    Example,
    TrainConfig,
    build_model_config,
    encode_sentence,
    evaluate_model,
    load_pretrained,
    parse_pipeline,
    prepare_example,
    sentence_loss,
    train,
)

from conftest import run_python, simple_graph, tape_vars


def tiny_config(**overrides) -> TrainConfig:
    base = dict(
        seed=1,
        max_epochs=3,
        patience=10,
        learning_rate=0.05,
        word_dim=4,
        tag_dim=2,
        lang_dim=2,
        lstm_hidden=4,
        mlp_hidden=6,
        remote_mlp_dim=3,
        use_pos=False,
        use_ner=False,
        use_dep=False,
    )
    base.update(overrides)
    return TrainConfig(**base)


# Trains a paper-size model on 30-token sentences, one BLAS thread, and
# prints the minor page faults per step after three warm-up steps, over the
# pages the step's gradients occupy.  Each step drops its gradients, as a
# training loop that keeps nothing between steps does.
PAGE_FAULTS = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import resource
from uccatree.generator import SyntheticSpec, generate
from uccatree.neural_core import AdamState, ModelParams, adam_step
from uccatree.training import TrainConfig, build_model_config, prepare_example, sentence_loss
graphs = generate(SyntheticSpec(sentences=9, min_tokens=30, max_tokens=30), seed=5)
params = ModelParams.initialize(build_model_config(graphs, TrainConfig()), seed=5)
examples = [prepare_example(g) for g in graphs]
adam, pages = AdamState(), []

def step(example):
    grads = sentence_loss(example, params)[3]
    pages.append(sum(g.nbytes for g in grads.values()) / resource.getpagesize())
    adam_step(params.tensors, grads, adam)

for example in examples[:3]:
    step(example)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for example in examples[3:]:
    step(example)
faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(examples[3:])
print(faults / min(pages[3:]))
"""


def tiny_corpus():
    return [simple_graph(["A", "P"], n=2), simple_graph(["P", "A"], n=2)]


class TestConfig:
    def test_defaults_match_contract(self):
        cfg = TrainConfig()
        assert (cfg.seed, cfg.max_epochs, cfg.patience) == (1, 100, 10)
        assert cfg.learning_rate == 1e-3
        assert (cfg.word_dim, cfg.tag_dim, cfg.lang_dim) == (100, 50, 50)
        assert (cfg.lstm_hidden, cfg.mlp_hidden, cfg.remote_mlp_dim) == (250, 250, 100)
        assert cfg.use_pos and cfg.use_ner and cfg.use_dep
        assert not cfg.multilingual and not cfg.share_span_hidden

    def test_from_json_round_trip(self):
        cfg = TrainConfig.from_json({"seed": 7, "learning_rate": 0.5})
        assert cfg.seed == 7 and cfg.learning_rate == 0.5

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown TrainConfig keys"):
            TrainConfig.from_json({"seed": 7, "momentum": 0.9})

    @pytest.mark.parametrize("key, value", [("optimizer", "sgd"), ("external_dim", 2)])
    def test_from_json_rejects_settings_that_are_not_choices(self, key, value):
        # Adam is the only update rule; the external width comes with the data.
        with pytest.raises(ValueError, match="unknown TrainConfig keys"):
            TrainConfig.from_json({"seed": 7, key: value})

    @pytest.mark.parametrize(
        "key, value",
        [("lstm_hidden", "4"), ("lstm_hidden", 4.0), ("lstm_hidden", True), ("lstm_hidden", 0),
         ("word_dim", 0), ("max_epochs", 0), ("max_epochs", "1"), ("patience", -1),
         ("use_pos", "no"), ("use_pos", 0), ("learning_rate", "0.1"), ("learning_rate", False),
         ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("pretrained_path", 3)],
    )
    def test_from_json_refuses_a_value_of_another_type_or_range(self, key, value):
        with pytest.raises((TypeError, ValueError), match=f"^config key '{key}' must be "):
            TrainConfig.from_json({"seed": 7, key: value})

    def test_from_json_takes_each_json_type_it_documents(self):
        cfg = TrainConfig.from_json(
            {"patience": 0, "learning_rate": 1, "use_pos": False, "pretrained_path": None}
        )
        assert (cfg.patience, cfg.learning_rate, cfg.use_pos, cfg.pretrained_path) == (0, 1, False, None)
        with pytest.raises(TypeError, match="the TrainConfig must be of type dict"):
            TrainConfig.from_json([["seed", 7]])

    def test_readme_lists_every_train_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        start = readme.index("`train.json` overrides")
        paragraph = readme[start : readme.index("\n\n", start)]
        keys = set(re.findall(r"`([a-z_]+)`", paragraph))
        assert keys == {f.name for f in dataclasses.fields(TrainConfig)}


class TestPrepareAndVocab:
    def test_prepare_example_on_worked_sentence(self, german_graph):
        ex = prepare_example(german_graph)
        assert ex.lang == "de"
        assert ex.gold_remotes == [(10, 12, "A")]
        assert len(ex.pairs) == 8
        assert ex.pairs.children == [12]
        assert set(ex.trace.values()) == {
            "ROOT+H", "U", "H-ancestor1", "A-remote", "P", "L-ancestor1",
        }

    def test_build_model_config_inventories(self, german_graph):
        cfg = build_model_config([german_graph], tiny_config())
        assert cfg.labels == [
            "", "A-remote", "H-ancestor1", "L-ancestor1", "P", "ROOT+H", "U",
        ]
        assert cfg.remote_labels == [NOT_PARENT, "A"]
        assert cfg.words[0] == UNK
        assert set(cfg.words[1:]) == {t.form for t in german_graph.tokens}
        assert cfg.languages == [UNK, "de"]


class TestSentenceLoss:
    def test_joint_is_exact_sum_of_parts(self, german_graph):
        cfg = build_model_config([german_graph], tiny_config())
        params = ModelParams.initialize(cfg, seed=2)
        ex = prepare_example(german_graph)
        joint, topdown, remote, grads = sentence_loss(ex, params)
        assert topdown > 0.0 and remote > 0.0
        assert abs(joint - (topdown + remote)) <= 1e-12
        assert grads and all(np.all(np.isfinite(g)) for g in grads.values())

    @pytest.mark.parametrize("shared", [False, True])
    def test_gradients_share_memory_with_nothing(self, german_graph, shared):
        # Ops hand the arrays they allocate to the tape uncopied; no
        # gradient may alias a parameter tensor or another gradient.
        cfg = build_model_config([german_graph], tiny_config(share_span_hidden=shared))
        params = ModelParams.initialize(cfg, seed=2)
        grads = sentence_loss(prepare_example(german_graph), params)[3]
        assert len(grads) > 10
        for name, grad in grads.items():
            others = list(params.tensors.values())
            others += [g for other, g in grads.items() if other != name]
            assert not any(np.shares_memory(grad, other) for other in others), name

    @pytest.mark.parametrize("dims", [{}, {"word_dim": 20, "lstm_hidden": 40, "mlp_hidden": 30}])
    def test_gradients_are_the_bytes_of_plain_leaves_in_the_models_buffers(self, german_graph, dims):
        # Plain leaves take every gradient as a freshly allocated array.  The
        # model's buffers change where a gradient is written, not one bit
        # of it, and a second pass overwrites the same arrays.
        cfg = build_model_config([german_graph], tiny_config(**dims))
        params = ModelParams.initialize(cfg, seed=2)
        ex = prepare_example(german_graph)

        def build(leaves):
            bound = BoundParams(params)
            bound.vars = leaves
            enc = encode(embed(ex.tokens, ex.lang, bound), bound)
            return loss_topdown(enc, ex.trace, bound) + loss_remote(ex.pairs, ex.gold_remotes, enc, bound)

        plain = analytic_grads(build, params.tensors)
        first = sentence_loss(ex, params)[3]
        assert len(first) > 10
        for grads in (first, sentence_loss(ex, params)[3]):
            assert grads.keys() == first.keys() and all(grads[name] is first[name] for name in first)
            for name, grad in plain.items():
                if name in grads:
                    assert grads[name].tobytes() == grad.tobytes(), name
                else:  # a tensor the loss does not reach
                    assert not grad.any(), name

    def test_a_reused_buffer_shows_no_stale_gradient(self):
        # The nested tree has a wrong split point, so its step writes the
        # split head's buffers; the flat one has none.  Its step must not
        # list the split head, nor may Adam move it or its moments.
        graphs = [
            tree_to_graph(tree_from_sexpr(sexpr, lang="en"))[0]
            for sexpr in ("(ROOT (A t1 t2) (P t3))", "(ROOT (A t1) (P t2) (A t3))")
        ]
        cfg = build_model_config(graphs, tiny_config())
        nested, flat = map(prepare_example, graphs)
        params = ModelParams.initialize(cfg, seed=2)
        adam = AdamState()
        split_head = {"span_out_w", "span_out_b", "span_hidden_w", "span_hidden_b"}
        grads = sentence_loss(nested, params)[3]
        assert split_head <= grads.keys()
        adam_step(params.tensors, grads, adam)
        kept = {name: [params.tensors[name].copy(), adam.m[name].copy(), adam.v[name].copy()] for name in split_head}
        unbuffered = sentence_loss(flat, ModelParams(cfg, params.copy_tensors()))[3]
        grads = sentence_loss(flat, params)[3]
        assert not split_head & grads.keys()
        assert grads.keys() == unbuffered.keys()
        assert all(grads[name].tobytes() == unbuffered[name].tobytes() for name in grads)
        adam_step(params.tensors, grads, adam)
        for name, (tensor, m, v) in kept.items():
            assert tensor.tobytes() == params.tensors[name].tobytes(), name
            assert m.tobytes() == adam.m[name].tobytes() and v.tobytes() == adam.v[name].tobytes(), name

    def test_parse_and_checkpoint_leave_the_buffers_out(self, german_graph, tmp_path):
        # A parse runs no backward pass, so it writes no buffer, and a
        # checkpoint holds the tensors only.
        cfg = build_model_config([german_graph], tiny_config())
        params = ModelParams.initialize(cfg, seed=2)
        grads = sentence_loss(prepare_example(german_graph), params)[3]
        before = {name: grad.copy() for name, grad in grads.items()}
        parse_pipeline(german_graph.tokens, params)
        assert all(grads[name].tobytes() == before[name].tobytes() for name in grads)
        params.save(str(tmp_path / "trained.ckpt"))
        ModelParams(cfg, params.copy_tensors()).save(str(tmp_path / "fresh.ckpt"))
        assert (tmp_path / "trained.ckpt").read_bytes() == (tmp_path / "fresh.ckpt").read_bytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
    def test_train_steps_do_not_page_fault_their_gradients(self):
        # Gradients allocated afresh each step are mapped and zero-filled
        # by the kernel again each step: about 1.2 faults per gradient page.
        # Written into the model's buffers, a step faults far fewer pages.
        assert float(run_python(PAGE_FAULTS)) < 0.5

    def test_loss_and_parse_leave_no_var_to_the_cyclic_collector(self, german_graph):
        # The decoding walk is a recursive closure, hence a reference
        # cycle.  A Var that it, or any other cycle on these paths,
        # captured would keep the whole tape and its gradient buffers
        # alive until the cyclic collector runs.
        cfg = build_model_config([german_graph], tiny_config())
        params = ModelParams.initialize(cfg, seed=2)
        ex = prepare_example(german_graph)
        gc.collect()
        gc.garbage.clear()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            sentence_loss(ex, params)
            parse_pipeline(german_graph.tokens, params)
            gc.collect()
            kept = [obj for obj in gc.garbage if isinstance(obj, Var)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert kept == []

    def test_no_tape_node_holds_a_matrix_of_span_features(self):
        # Span layers project the n + 1 fenceposts once and gather projected
        # rows, so no node of a train loss has a row of 2h span features per
        # span: none has more than n + 1 rows of 2h columns.
        spec = SyntheticSpec(sentences=1, min_tokens=20, max_tokens=20)
        graph = generate(spec, seed=3)[0]
        cfg = build_model_config([graph], tiny_config())
        params = ModelParams.initialize(cfg, seed=2)
        ex = prepare_example(graph)
        assert ex.pairs and ex.gold_remotes  # the remote loss is on the tape too
        bound, enc = encode_sentence(ex.tokens, params)
        remote = loss_remote(ex.pairs, ex.gold_remotes, enc, bound)
        loss = loss_topdown(enc, ex.trace, bound) + remote
        n, width = enc.n, 2 * cfg.lstm_hidden
        assert enc.fenceposts.shape == (n + 1, width)
        big = [
            v.shape
            for v in tape_vars(loss)
            if v.value.ndim == 2 and v.shape[0] > n + 1 and v.shape[1] == width
        ]
        assert big == []

    def test_remote_part_is_zero_without_remote_edges(self):
        graphs = tiny_corpus()
        cfg = build_model_config(graphs, tiny_config())
        params = ModelParams.initialize(cfg, seed=2)
        _, _, remote, _ = sentence_loss(prepare_example(graphs[0]), params)
        assert remote == 0.0


class TestTrainingLoop:
    def test_same_seed_gives_bitwise_identical_checkpoints(self, tmp_path):
        graphs = tiny_corpus()
        cfg = tiny_config(max_epochs=2)
        a = train(graphs, graphs, cfg)
        b = train(graphs, graphs, cfg)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        a.params.save(str(pa))
        b.params.save(str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_zero_learning_rate_stops_after_patience(self):
        graphs = tiny_corpus()
        cfg = tiny_config(learning_rate=0.0, patience=1, max_epochs=50)
        result = train(graphs, graphs, cfg)
        # Epoch 1 sets the baseline; epoch 2 cannot improve and trips patience.
        assert result.epochs_run == 2
        assert result.best_epoch == 1
        assert [h.epoch for h in result.history] == [1, 2]
        assert result.history[0].dev_f1 == result.history[1].dev_f1

    def test_best_model_is_returned(self):
        graphs = tiny_corpus()
        result = train(graphs, graphs, tiny_config(max_epochs=5))
        assert result.best_f1 == max(h.dev_f1 for h in result.history)
        rescored = evaluate_model(result.params, graphs)
        assert rescored.averaged.f1 == pytest.approx(result.best_f1)

    def test_optimization_error_names_the_epoch_and_the_sentence(self, monkeypatch):
        # The third sentence's gradient turns NaN in the second epoch only.
        graphs = tiny_corpus() + [simple_graph(["A", "H", "P"], n=3)]
        seen = []

        def poisoned(example, params):
            joint, lt, lr, grads = sentence_loss(example, params)
            seen.append(example.tokens)
            if example.tokens == graphs[2].tokens and seen.count(example.tokens) == 2:
                grads["label_out_b"] = np.full_like(grads["label_out_b"], np.nan)
            return joint, lt, lr, grads

        monkeypatch.setattr(training, "sentence_loss", poisoned)
        with pytest.raises(OptimizationError) as info:
            train(graphs, graphs, tiny_config(max_epochs=3))
        assert str(info.value) == "epoch 2, training sentence 3: non-finite gradient for tensor 'label_out_b'"
        assert isinstance(info.value.__cause__, OptimizationError)

    def test_empty_train_set_cannot_parse_dev(self):
        with pytest.raises(ValueError, match="the training set holds no graphs"):
            train([], tiny_corpus(), tiny_config(max_epochs=1))

    @pytest.mark.parametrize("which", ["training", "dev"])
    def test_empty_set_refused_before_the_first_step(self, which, monkeypatch):
        # An empty dev set used to select the first epoch with F1 1.0.
        def no_step(*args, **kwargs):
            raise AssertionError("adam_step ran")

        monkeypatch.setattr(training, "adam_step", no_step)
        sets = {"training": tiny_corpus(), "dev": tiny_corpus(), which: []}
        with pytest.raises(ValueError, match=f"the {which} set holds no graphs"):
            train(sets["training"], sets["dev"], tiny_config(max_epochs=1))


class TestMultilingual:
    def test_language_embeddings_created_and_used(self):
        graphs = [simple_graph(["A"], n=1, lang="en"), simple_graph(["A"], n=1, lang="de")]
        cfg = build_model_config(graphs, tiny_config(multilingual=True))
        assert cfg.languages == [UNK, "de", "en"]
        params = ModelParams.initialize(cfg, seed=3)
        assert params.tensors["emb_lang"].shape == (3, 2)
        bound = BoundParams(params)
        tok = graphs[0].tokens
        en = embed(tok, "en", bound).value
        de = embed(tok, "de", bound).value
        assert en[:, :4].tolist() == de[:, :4].tolist()  # same word rows
        assert not np.allclose(en, de)  # language block differs

    def test_monolingual_model_has_no_language_table(self):
        cfg = build_model_config(tiny_corpus(), tiny_config())
        params = ModelParams.initialize(cfg, seed=3)
        assert "emb_lang" not in params.tensors


class TestPretrained:
    def write_vectors(self, tmp_path, header=True):
        lines = []
        if header:
            lines.append("3 4")
        lines += [
            "t1 1.0 0.0 0.0 0.5",
            "t2 0.0 1.0 0.0 0.5",
            "zzz 0.0 0.0 1.0 0.5",
        ]
        path = tmp_path / "vecs.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_load_with_and_without_header(self, tmp_path):
        words, matrix = load_pretrained(self.write_vectors(tmp_path, header=True))
        assert words == ["t1", "t2", "zzz"]
        assert matrix.shape == (4, 4)
        assert matrix[0].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert matrix[1].tolist() == [1.0, 0.0, 0.0, 0.5]
        path2 = tmp_path / "noheader.txt"
        path2.write_text("a 1 2\nb 3 4\n", encoding="utf-8")
        words2, matrix2 = load_pretrained(str(path2))
        assert words2 == ["a", "b"] and matrix2.shape == (3, 2)

    def test_ragged_vector_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1 2\nb 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 2"):
            load_pretrained(str(path))

    def test_trailing_space_and_tab_lines_load(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text(
            "3 3 \nthe 0.1 0.2 0.3 \nof\t0.4\t0.5\t0.6\n10\u00a0000 0.7 0.8 0.9\n", encoding="utf-8"
        )
        words, matrix = load_pretrained(str(path))
        assert words == ["the", "of", "10\u00a0000"]
        assert matrix[1:].tolist() == [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]

    def test_non_numeric_component_names_its_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("the 0.1 x 0.3\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"vec\.txt:1: .*'x'"):
            load_pretrained(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_component_names_its_line(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text(f"a 0.1 0.2\nthe 0.1 {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"vec\.txt:2: vector holds NaN or infinite values"):
            load_pretrained(str(path))

    @pytest.mark.parametrize("line", [b"\xff\xfe 0.3 0.4", b"the 0.3 \xc3"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, line):
        path = tmp_path / "vec.txt"
        path.write_bytes(b"a 0.1 0.2\n" + line + b"\nb 0.5 0.6\n")
        with pytest.raises(ValueError, match=r"vec\.txt:2: bytes that are not UTF-8"):
            load_pretrained(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="no vectors"):
            load_pretrained(str(path))

    def test_freeze_keeps_pretrained_rows_fixed(self, tmp_path):
        vecs = self.write_vectors(tmp_path)
        graphs = tiny_corpus()  # token forms t1, t2 overlap the vectors
        frozen = train(
            graphs, graphs,
            tiny_config(learning_rate=0.5, max_epochs=1,
                        pretrained_path=vecs, freeze_pretrained=True),
        )
        _, matrix = load_pretrained(vecs)
        assert np.array_equal(frozen.params.tensors["emb_pre"], matrix)
        tuned = train(
            graphs, graphs,
            tiny_config(learning_rate=0.5, max_epochs=1,
                        pretrained_path=vecs, freeze_pretrained=False),
        )
        assert not np.array_equal(tuned.params.tensors["emb_pre"], matrix)


class TestLongSentences:
    def test_random_model_parses_lengths_up_to_200_to_valid_graphs(self):
        """A random-parameter model marks many nodes for remote recovery, and
        its remote head proposes an edge in many (child, parent) cells, so a
        200-token sentence gets tens of thousands of remote edges."""
        corpus = generate(
            SyntheticSpec(sentences=30, max_tokens=10, p_remote=0.4, p_discontinuity=0.6),
            seed=21,
        )
        cfg = build_model_config(corpus, tiny_config())
        params = ModelParams.initialize(cfg, seed=0)
        rng = np.random.default_rng(200)
        lengths = [1, 2, 200, *rng.integers(3, 200, size=12).tolist()]
        remotes = 0
        for n in lengths:
            tokens = tuple(Token(form=f"w{k}") for k in rng.integers(0, 50, size=n))
            graph = parse_pipeline(tokens, params)  # raises on an invalid graph
            assert graph.validate() == []
            assert graph.n == n
            remotes += len(graph.remote_edges)
        assert remotes > 20_000


class TestExternalFeatures:
    def test_training_and_parsing_with_external_vectors(self):
        graphs = tiny_corpus()
        ext = [np.full((len(g.tokens), 2), 0.25) for g in graphs]
        cfg = tiny_config(max_epochs=1)
        result = train(graphs, graphs, cfg, external_train=ext, external_dev=ext)
        assert result.epochs_run == 1
        assert result.params.config.external_dim == 2  # the width comes from the data
        parsed = parse_pipeline(graphs[0].tokens, result.params, external=ext[0])
        assert parsed.validate() == []
        report = evaluate_model(result.params, graphs, external=ext)
        assert 0.0 <= report.averaged.f1 <= 1.0

    def test_missing_external_matrix_rejected(self):
        graphs = tiny_corpus()
        ext = [np.full((len(g.tokens), 2), 0.25) for g in graphs]
        cfg = tiny_config(max_epochs=1)
        result = train(graphs, graphs, cfg, external_train=ext, external_dev=ext)
        with pytest.raises(ValueError, match="external"):
            parse_pipeline(graphs[0].tokens, result.params)

    @pytest.mark.parametrize(
        "part, shape", [("train", (2, 3)), ("train", (3, 2)), ("dev", (2, 3)), ("dev", (1, 2))]
    )
    def test_every_matrix_is_checked_before_the_first_step(self, monkeypatch, part, shape):
        graphs = tiny_corpus() * 2
        ext = {k: [np.zeros((2, 2)) for _ in graphs] for k in ("train", "dev")}
        ext[part][2] = np.zeros(shape)
        steps = []
        monkeypatch.setattr("uccatree.training.sentence_loss", lambda *a: steps.append(a))
        where = "training set" if part == "train" else "dev set"
        message = f"{where}: record 3: external features of shape {shape}, expected (2, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            train(graphs, graphs, tiny_config(), external_train=ext["train"], external_dev=ext["dev"])
        assert steps == []

    @pytest.mark.parametrize("part", ["train", "dev"])
    def test_too_few_matrices_are_refused_before_the_first_step(self, monkeypatch, part):
        graphs = tiny_corpus()
        ext = {k: [np.zeros((len(g.tokens), 2)) for g in graphs] for k in ("train", "dev")}
        ext[part] = ext[part][:-1]
        steps = []
        monkeypatch.setattr("uccatree.training.adam_step", lambda *a, **k: steps.append(a))
        where = "training set" if part == "train" else "dev set"
        message = f"{where}: {len(graphs) - 1} external feature matrices for {len(graphs)} sentences"
        with pytest.raises(ValueError, match=re.escape(message)):
            train(graphs, graphs, tiny_config(), external_train=ext["train"], external_dev=ext["dev"])
        assert steps == []
