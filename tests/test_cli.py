"""Command-line workflow: every subcommand end to end, JSON error contract."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import uccatree
from uccatree.cli import main
from uccatree.graph_model import (
    ConstituentTree,
    Edge,
    Token,
    TreeNode,
    UccaGraph,
    dump_corpus,
    load_corpus,
)
from uccatree.neural_core import ModelParams
from uccatree.training import TrainConfig, build_model_config

from conftest import german_example, primary_only, right_branching_chain, simple_graph

TINY_TRAIN = {
    "seed": 1,
    "max_epochs": 3,
    "patience": 10,
    "learning_rate": 0.05,
    "word_dim": 4,
    "tag_dim": 2,
    "lang_dim": 2,
    "lstm_hidden": 4,
    "mlp_hidden": 6,
    "remote_mlp_dim": 3,
    "use_pos": False,
    "use_ner": False,
    "use_dep": False,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def tiny_corpus_file(tmp_path):
    graphs = [simple_graph(["A", "P"], n=2), simple_graph(["P", "A"], n=2)]
    path = tmp_path / "corpus.jsonl"
    dump_corpus(graphs, str(path))
    return str(path)


class TestGenAndStats:
    def test_gen_writes_the_requested_corpus(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "spec.json",
            {"sentences": 8, "min_tokens": 3, "max_tokens": 8, "p_discontinuity": 1.0},
        )
        out = tmp_path / "gen.jsonl"
        code, stdout, _ = run_cli(
            capsys, "gen", "--spec", spec, "--seed", "5", "--out", str(out)
        )
        assert code == 0
        assert "wrote 8 graphs" in stdout
        assert len(load_corpus(str(out))) == 8

    def test_gen_is_deterministic_per_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(capsys, "gen", "--seed", "3", "--out", str(a))[0] == 0
        assert run_cli(capsys, "gen", "--seed", "3", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_rejects_unknown_spec_keys(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"sentences": 2, "n_tokens": 5})
        code, _, stderr = run_cli(capsys, "gen", "--spec", spec, "--out", str(tmp_path / "x"))
        assert code == 1
        payload = json.loads(stderr)
        assert payload["error"]["type"] == "CliError"
        assert "unknown generator spec keys" in payload["error"]["message"]

    def test_stats_reports_move_distribution(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "spec.json", {"sentences": 12, "p_discontinuity": 1.0}
        )
        out = tmp_path / "gen.jsonl"
        run_cli(capsys, "gen", "--spec", spec, "--seed", "2", "--out", str(out))
        code, stdout, _ = run_cli(capsys, "stats", "--in", str(out))
        assert code == 0
        table = json.loads(stdout)
        assert table["graphs"] == 12
        assert set(table["counts"]) == {
            "ancestor1", "ancestor2", "ancestor3plus", "discontinuous",
        }
        assert table["total_moves"] == sum(table["counts"].values())
        if table["total_moves"]:
            assert sum(table["percent"].values()) == pytest.approx(100.0)


class TestConvertAndRestore:
    @pytest.fixture
    def german_file(self, tmp_path):
        path = tmp_path / "german.jsonl"
        dump_corpus([german_example()], str(path))
        return str(path)

    def test_convert_sexpr(self, tmp_path, capsys, german_file):
        out = tmp_path / "trees.txt"
        code, stdout, _ = run_cli(
            capsys, "convert", "--in", german_file, "--out", str(out)
        )
        assert code == 0
        assert "converted 1 graphs" in stdout
        assert "1 remote edges dropped, 0 lossy moves" in stdout
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 and lines[0].startswith("(ROOT")

    def test_convert_jsonl(self, tmp_path, capsys, german_file):
        out = tmp_path / "trees.jsonl"
        code, _, _ = run_cli(
            capsys, "convert", "--in", german_file, "--out", str(out),
            "--format", "jsonl",
        )
        assert code == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert "tokens" in record and "lang" in record

    def test_convert_jsonl_too_deep_names_the_record_and_leaves_no_output(
        self, tmp_path, capsys
    ):
        corpus = tmp_path / "deep.jsonl"
        dump_corpus([german_example(), right_branching_chain(600)], str(corpus))
        out = tmp_path / "trees.jsonl"
        code, stdout, stderr = run_cli(
            capsys, "convert", "--in", str(corpus), "--out", str(out), "--format", "jsonl"
        )
        assert code == 1 and stdout == ""
        message = json.loads(stderr)["error"]["message"]
        assert message.startswith(f"{corpus}: record 2: ")
        assert "--format sexpr" in message
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.jsonl"]
        code, _, _ = run_cli(capsys, "convert", "--in", str(corpus), "--out", str(out))
        assert code == 0 and len(out.read_text(encoding="utf-8").splitlines()) == 2

    def test_restore_round_trips_the_worked_example(self, tmp_path, capsys, german_file):
        trees = tmp_path / "trees.txt"
        run_cli(capsys, "convert", "--in", german_file, "--out", str(trees))
        # A checkpoint with all-zero tensors never proposes a remote edge.
        cfg = build_model_config([german_example()], TrainConfig.from_json(TINY_TRAIN))
        params = ModelParams.initialize(cfg, seed=0)
        for arr in params.tensors.values():
            arr[...] = 0.0
        ckpt = tmp_path / "model.json"
        params.save(str(ckpt))
        out = tmp_path / "restored.jsonl"
        code, stdout, _ = run_cli(
            capsys, "restore", "--in", str(trees), "--remotes-model", str(ckpt),
            "--out", str(out), "--lang", "de",
        )
        assert code == 0
        assert "restored 1 graphs" in stdout
        restored = load_corpus(str(out))[0]
        assert not any(e.remote for e in restored.edges)
        assert restored.same_structure(primary_only(german_example()))

    def test_restore_encodes_jsonl_trees_in_their_own_language(
        self, tmp_path, capsys, german_file, monkeypatch
    ):
        # A multilingual checkpoint whose remote head fires only on German
        # input: with every other tensor zero, the encoding is zero unless
        # the "de" language embedding feeds the LSTM cell inputs.
        cfg = build_model_config(
            [german_example()], TrainConfig.from_json({**TINY_TRAIN, "multilingual": True})
        )
        params = ModelParams.initialize(cfg, seed=0)
        t = params.tensors
        for arr in t.values():
            arr[...] = 0.0
        h = cfg.lstm_hidden
        t["emb_lang"][cfg.languages.index("de")] = 1.0
        for name in t:
            if name.endswith("_wx"):
                t[name][3 * h :] = 1.0  # cell input gate
        t["remote_child_w"][0] = 1.0
        t["remote_parent_b"][:] = 1.0
        t["biaffine_w"][-1, 0] = 1.0  # constant NOT-PARENT score
        t["biaffine_w"][0, 1] = 10.0  # "A" score grows with the child's span
        ckpt = tmp_path / "model.json"
        params.save(str(ckpt))

        validated = []
        validate = UccaGraph.validate

        def spy(graph):
            validated.append(graph)
            return validate(graph)

        monkeypatch.setattr(UccaGraph, "validate", spy)

        def restore(fmt, *lang):
            trees = tmp_path / f"trees.{fmt}"
            run_cli(capsys, "convert", "--in", german_file, "--out", str(trees), "--format", fmt)
            out = tmp_path / f"restored-{fmt}-{len(lang)}.jsonl"
            code, _, err = run_cli(
                capsys, "restore", "--in", str(trees), "--remotes-model", str(ckpt),
                "--out", str(out), "--format", fmt, *lang,
            )
            assert code == 0, err
            return load_corpus(str(out))

        [from_jsonl] = restore("jsonl")
        assert from_jsonl.tokens[0].lang == "de"
        assert any(e.remote for e in from_jsonl.edges)
        assert from_jsonl in validated
        assert restore("sexpr", "--lang", "de") == [from_jsonl]
        [untagged] = restore("sexpr")
        assert not any(e.remote for e in untagged.edges)

    def test_restore_rejects_malformed_tree_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("(ROOT (A a)\n", encoding="utf-8")
        ckpt = tmp_path / "model.json"
        cfg = build_model_config([german_example()], TrainConfig.from_json(TINY_TRAIN))
        ModelParams.initialize(cfg, seed=0).save(str(ckpt))
        code, _, stderr = run_cli(
            capsys, "restore", "--in", str(bad), "--remotes-model", str(ckpt),
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        payload = json.loads(stderr)
        assert payload["error"]["type"] == "CliError"
        assert "bad.txt:1:" in payload["error"]["message"]

    def test_restore_rejects_invalid_jsonl_tree_with_its_line(self, tmp_path, capsys):
        tree = ConstituentTree(
            tokens=(Token(form="a"), Token(form="b")),
            root=TreeNode(label="ROOT", children=(TreeNode(leaf=2), TreeNode(leaf=1))),
        )
        trees = tmp_path / "trees.jsonl"
        trees.write_text(json.dumps(tree.to_json()) + "\n", encoding="utf-8")
        ckpt = tmp_path / "model.json"
        cfg = build_model_config([german_example()], TrainConfig.from_json(TINY_TRAIN))
        ModelParams.initialize(cfg, seed=0).save(str(ckpt))
        code, _, stderr = run_cli(
            capsys, "restore", "--in", str(trees), "--remotes-model", str(ckpt),
            "--out", str(tmp_path / "x"), "--format", "jsonl",
        )
        assert code == 1
        payload = json.loads(stderr)
        assert payload["error"]["type"] == "CliError"
        assert "trees.jsonl:1:" in payload["error"]["message"]
        assert "invalid tree: leaves [2, 1]" in payload["error"]["message"]

    def test_restore_reports_internal_node_without_tokens_with_its_line(self, tmp_path, capsys):
        tree = json.loads(
            '{"label":"ROOT","children":[{"leaf":1},'
            '{"label":"A","children":[{"label":"B","children":[]}]}]}'
        )
        trees = tmp_path / "trees.jsonl"
        write_json(trees, {"tokens": [{"form": "a"}], "lang": "en", "tree": tree})
        ckpt = tmp_path / "model.json"
        cfg = build_model_config([german_example()], TrainConfig.from_json(TINY_TRAIN))
        ModelParams.initialize(cfg, seed=0).save(str(ckpt))
        code, _, stderr = run_cli(
            capsys, "restore", "--in", str(trees), "--remotes-model", str(ckpt),
            "--out", str(tmp_path / "x"), "--format", "jsonl",
        )
        assert code == 1
        payload = json.loads(stderr)
        assert payload["error"]["type"] == "CliError"
        assert "trees.jsonl:1:" in payload["error"]["message"]
        assert "internal node 'A' covers no token" in payload["error"]["message"]

    def test_restore_rejects_empty_token_form_with_its_line(self, tmp_path, capsys):
        tree = {"label": "ROOT", "children": [{"leaf": 1}, {"leaf": 2}]}
        trees = tmp_path / "trees.jsonl"
        write_json(trees, {"tokens": [{"form": "a"}, {"form": ""}], "lang": "en", "tree": tree})
        ckpt = tmp_path / "model.json"
        cfg = build_model_config([german_example()], TrainConfig.from_json(TINY_TRAIN))
        ModelParams.initialize(cfg, seed=0).save(str(ckpt))
        code, _, stderr = run_cli(
            capsys, "restore", "--in", str(trees), "--remotes-model", str(ckpt),
            "--out", str(tmp_path / "x"), "--format", "jsonl",
        )
        assert code == 1
        message = json.loads(stderr)["error"]["message"]
        assert message == f"{trees}:1: malformed tree record: invalid tree: token 2 has an empty form"

    @pytest.mark.parametrize(
        "bad_tree, problem",
        [
            ("(ROOT (A-ancestor1 w1) (B w2))", "-ancestor1 marker on a child of the root"),
            ("(ROOT (H (A-ancestor1 w1)) (B w2))", "-ancestor1 marker on node 5 cannot be undone"),
        ],
    )
    def test_restore_names_the_record_a_tree_fails_to_decode_in(
        self, tmp_path, capsys, bad_tree, problem
    ):
        trees = tmp_path / "trees.txt"
        trees.write_text("(ROOT (A a b))\n" + bad_tree + "\n", encoding="utf-8")
        ckpt = tmp_path / "model.json"
        cfg = build_model_config([german_example()], TrainConfig.from_json(TINY_TRAIN))
        ModelParams.initialize(cfg, seed=0).save(str(ckpt))
        out = tmp_path / "restored.jsonl"
        code, stdout, stderr = run_cli(
            capsys, "restore", "--in", str(trees), "--remotes-model", str(ckpt), "--out", str(out)
        )
        assert code == 1 and stdout == "" and not out.exists()
        payload = json.loads(stderr)["error"]
        assert payload["type"] == "CliError"
        assert payload["message"].startswith(f"{trees}: record 2: {problem}")

    @pytest.mark.parametrize(
        "bad_tree, problem",
        [
            ("(ROOT (+ w1 w2))", "in '+', empty label"),
            ("(ROOT (A-remote-remote w1) (B w2))", "in 'A-remote-remote', label 'A-remote' ends in"),
            ("(ROOT (ROOT w1) (B w2))", "label 'ROOT' is reserved"),
        ],
    )
    def test_restore_rejects_reserved_label_syntax_with_its_line(
        self, tmp_path, capsys, bad_tree, problem
    ):
        trees = tmp_path / "trees.txt"
        trees.write_text("(ROOT (A a b))\n" + bad_tree + "\n", encoding="utf-8")
        ckpt = tmp_path / "model.json"
        cfg = build_model_config([german_example()], TrainConfig.from_json(TINY_TRAIN))
        ModelParams.initialize(cfg, seed=0).save(str(ckpt))
        code, stdout, stderr = run_cli(
            capsys, "restore", "--in", str(trees), "--remotes-model", str(ckpt),
            "--out", str(tmp_path / "x"),
        )
        assert code == 1 and stdout == ""
        message = json.loads(stderr)["error"]["message"]
        assert message.startswith(f"{trees}:2: malformed tree record: invalid tree: {problem}")

    def test_convert_names_the_record_a_graph_fails_to_convert_in(self, tmp_path, capsys):
        # The edge above node 4 has no label to put in a tree, so the graph
        # is refused as it is read.
        unlabeled = UccaGraph(
            tokens=(Token(form="a"), Token(form="b")),
            root=3,
            nonterminals=frozenset({3, 4, 5}),
            edges=(Edge(3, 4, ""), Edge(3, 5, "P"), Edge(4, 1, ""), Edge(5, 2, "")),
        )
        corpus = tmp_path / "corpus.jsonl"
        dump_corpus([simple_graph(["A", "P"], n=2), unlabeled], str(corpus))
        out = tmp_path / "trees.txt"
        code, stdout, stderr = run_cli(capsys, "convert", "--in", str(corpus), "--out", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        assert json.loads(stderr)["error"]["message"] == (
            f"{corpus}:2: malformed graph record: invalid graph: edge 3->4: empty label"
        )


class TestTrainParseEval:
    def test_full_workflow(self, tmp_path, capsys, tiny_corpus_file):
        config = write_json(tmp_path / "train.json", TINY_TRAIN)
        ckpt = tmp_path / "model.json"
        code, stdout, _ = run_cli(
            capsys, "train", "--train", tiny_corpus_file, "--dev", tiny_corpus_file,
            "--config", config, "--out", str(ckpt),
        )
        assert code == 0
        assert "trained for" in stdout and "best dev F1" in stdout
        assert ckpt.exists()

        parsed = tmp_path / "parsed.jsonl"
        code, stdout, _ = run_cli(
            capsys, "parse", "--model", str(ckpt), "--in", tiny_corpus_file,
            "--out", str(parsed),
        )
        assert code == 0
        assert "parsed 2 sentences" in stdout
        for graph in load_corpus(str(parsed)):
            assert graph.validate() == []

        tsv = tmp_path / "scores.tsv"
        code, stdout, _ = run_cli(
            capsys, "eval", "--gold", tiny_corpus_file, "--pred", str(parsed),
            "--tsv", str(tsv),
        )
        assert code == 0
        report = json.loads(stdout)
        assert set(report) == {"primary", "remote", "averaged"}
        assert 0.0 <= report["averaged"]["f1"] <= 1.0
        cells = tsv.read_text(encoding="utf-8").strip().split("\t")
        assert len(cells) == 9
        assert all(len(c.split(".")[1]) == 4 for c in cells)

    def test_eval_gold_against_gold_is_perfect(self, capsys, tiny_corpus_file):
        code, stdout, _ = run_cli(
            capsys, "eval", "--gold", tiny_corpus_file, "--pred", tiny_corpus_file
        )
        assert code == 0
        assert json.loads(stdout)["averaged"]["f1"] == 1.0

    def test_eval_rejects_invalid_predicted_graph(self, tmp_path, capsys):
        gold = simple_graph(["A", "P", "E"], n=3)
        # An extra primary edge gives node 5 a second primary parent.
        pred = dataclasses.replace(gold, edges=gold.edges + (Edge(6, 5, "A"),))
        gold_path, pred_path = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        dump_corpus([gold], str(gold_path))
        dump_corpus([pred], str(pred_path))
        code, stdout, stderr = run_cli(
            capsys, "eval", "--gold", str(gold_path), "--pred", str(pred_path)
        )
        assert code == 1
        assert stdout == ""
        message = json.loads(stderr)["error"]["message"]
        assert "pred.jsonl:1:" in message
        assert "invalid graph: node 5 has 2 primary parents, expected 1" in message

    def test_eval_names_the_record_over_other_tokens(self, tmp_path, capsys):
        gold = [simple_graph(["A", "P"], n=2), simple_graph(["P", "A"], n=2)]
        other = dataclasses.replace(gold[1], tokens=(Token(form="x"), Token(form="y")))
        gold_path, pred_path = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        dump_corpus(gold, str(gold_path))
        dump_corpus([gold[0], other], str(pred_path))
        code, stdout, stderr = run_cli(
            capsys, "eval", "--gold", str(gold_path), "--pred", str(pred_path)
        )
        assert code == 1 and stdout == ""
        message = json.loads(stderr)["error"]["message"]
        assert message == "record 2: gold and predicted graphs are over different token sequences"

    @pytest.mark.parametrize(
        "tokens, problem",
        [([], "sentence has no tokens"), ([{"form": "a"}, {"form": ""}], "token 2 has an empty form")],
        ids=["no-tokens", "empty-form"],
    )
    def test_parse_rejects_unparseable_sentence_with_its_line(
        self, tmp_path, capsys, tokens, problem
    ):
        ckpt = tmp_path / "model.json"
        cfg = build_model_config([german_example()], TrainConfig.from_json(TINY_TRAIN))
        ModelParams.initialize(cfg, seed=0).save(str(ckpt))
        sentences = tmp_path / "sentences.jsonl"
        sentences.write_text(
            json.dumps({"tokens": [{"form": "a"}]}) + "\n" + json.dumps({"tokens": tokens}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "parsed.jsonl"
        code, _, stderr = run_cli(
            capsys, "parse", "--model", str(ckpt), "--in", str(sentences), "--out", str(out)
        )
        assert code == 1 and not out.exists()
        message = json.loads(stderr)["error"]["message"]
        assert message == f"{sentences}:2: malformed token record: {problem}"

    def test_train_rejects_unknown_config_keys(self, tmp_path, capsys, tiny_corpus_file):
        config = write_json(tmp_path / "bad.json", {"seed": 1, "momentum": 0.9})
        code, _, stderr = run_cli(
            capsys, "train", "--train", tiny_corpus_file, "--dev", tiny_corpus_file,
            "--config", config, "--out", str(tmp_path / "m.json"),
        )
        assert code == 1
        payload = json.loads(stderr)
        assert payload["error"]["type"] == "ValueError"
        assert "unknown training config keys" in payload["error"]["message"]

    def test_train_rejects_misaligned_external_features(
        self, tmp_path, capsys, tiny_corpus_file
    ):
        feats = tmp_path / "ext.jsonl"
        feats.write_text(
            json.dumps({"vectors": [[0.1, 0.2], [0.3, 0.4]]}) + "\n", encoding="utf-8"
        )
        code, _, stderr = run_cli(
            capsys, "train", "--train", tiny_corpus_file, "--dev", tiny_corpus_file,
            "--external-features", str(feats), "--out", str(tmp_path / "m.json"),
        )
        assert code == 1
        message = json.loads(stderr)["error"]["message"]
        assert "1 external feature records for 2 training sentences" in message


    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=["wider", "extra-row"])
    @pytest.mark.parametrize("flag", ["--external-features", "--dev-external-features"])
    def test_train_checks_every_external_matrix_first(self, tmp_path, capsys, flag, shape):
        # Three two-token sentences; one file's third record is off.
        corpus = tmp_path / "corpus.jsonl"
        dump_corpus([simple_graph(["A", "P"], n=2)] * 3, str(corpus))
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        records = [{"vectors": [[0.5, 0.5]] * 2}] * 3
        good.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        records[2] = {"vectors": [[0.5] * shape[1]] * shape[0]}
        bad.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        train_feats = bad if flag == "--external-features" else good
        dev_feats = good if flag == "--external-features" else bad
        out = tmp_path / "m.json"
        code, stdout, stderr = run_cli(
            capsys, "train", "--train", str(corpus), "--dev", str(corpus),
            "--config", write_json(tmp_path / "train.json", TINY_TRAIN),
            "--external-features", str(train_feats), "--dev-external-features", str(dev_feats),
            "--out", str(out),
        )
        assert code == 1 and stdout == "" and not out.exists()
        message = json.loads(stderr)["error"]["message"]
        assert message == f"{bad}: record 3: external features of shape {shape}, expected (2, 2)"

    @pytest.mark.parametrize("flag", ["--external-features", "--dev-external-features"])
    def test_train_refuses_non_finite_external_features(self, tmp_path, capsys, flag):
        corpus = tmp_path / "corpus.jsonl"
        dump_corpus([simple_graph(["A", "P"], n=2)] * 2, str(corpus))
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        good.write_text('{"vectors": [[0.5, 0.5], [0.5, 0.5]]}\n' * 2, encoding="utf-8")
        bad.write_text(
            '{"vectors": [[0.5, 0.5], [0.5, 0.5]]}\n{"vectors": [[0.5, NaN], [0.5, 0.5]]}\n',
            encoding="utf-8",
        )
        train_feats, dev_feats = (bad, good) if flag == "--external-features" else (good, bad)
        out = tmp_path / "m.json"
        code, stdout, stderr = run_cli(
            capsys, "train", "--train", str(corpus), "--dev", str(corpus),
            "--config", write_json(tmp_path / "train.json", TINY_TRAIN),
            "--external-features", str(train_feats), "--dev-external-features", str(dev_feats),
            "--out", str(out),
        )
        assert code == 1 and stdout == "" and not out.exists()
        message = json.loads(stderr)["error"]["message"]
        assert message == f"{bad}: record 2: external features hold NaN or infinite values"

    @pytest.mark.parametrize("given, missing", [("training", "dev"), ("dev", "training")])
    def test_train_needs_external_features_for_both_sets(
        self, tmp_path, capsys, monkeypatch, tiny_corpus_file, given, missing
    ):
        feats = tmp_path / "feats.jsonl"
        record = json.dumps({"vectors": [[0.5, 0.5]] * 2})
        feats.write_text(f"{record}\n{record}\n", encoding="utf-8")
        flag = "--external-features" if given == "training" else "--dev-external-features"
        steps = []
        monkeypatch.setattr("uccatree.training.sentence_loss", lambda *a: steps.append(a))
        out = tmp_path / "m.json"
        code, stdout, stderr = run_cli(
            capsys, "train", "--train", tiny_corpus_file, "--dev", tiny_corpus_file,
            "--config", write_json(tmp_path / "train.json", TINY_TRAIN),
            flag, str(feats), "--out", str(out),
        )
        assert code == 1 and stdout == "" and not out.exists() and steps == []
        message = json.loads(stderr)["error"]["message"]
        assert message == f"external features given for the {given} set but not for the {missing} set"

    def test_parse_refuses_external_features_the_model_does_not_take(
        self, tmp_path, capsys, tiny_corpus_file
    ):
        graphs = load_corpus(tiny_corpus_file)
        ckpt = tmp_path / "model.json"
        cfg = build_model_config(graphs, TrainConfig.from_json(TINY_TRAIN))
        assert cfg.external_dim == 0
        ModelParams.initialize(cfg, seed=0).save(str(ckpt))
        feats = tmp_path / "feats.jsonl"
        feats.write_text(
            "".join(json.dumps({"vectors": [[0.25, 0.5]] * 2}) + "\n" for _ in graphs),
            encoding="utf-8",
        )
        out = tmp_path / "parsed.jsonl"
        code, stdout, stderr = run_cli(
            capsys, "parse", "--model", str(ckpt), "--in", tiny_corpus_file,
            "--external-features", str(feats), "--out", str(out),
        )
        assert code == 1 and stdout == "" and not out.exists()
        payload = json.loads(stderr)["error"]
        assert payload["message"] == "model takes no external feature vectors but some were given"

    def test_parse_checks_external_matrices_before_the_first_sentence(
        self, tmp_path, capsys, monkeypatch
    ):
        graphs = [simple_graph(["A", "P"], n=2), simple_graph(["P", "A"], n=2)]
        corpus = tmp_path / "corpus.jsonl"
        dump_corpus(graphs, str(corpus))
        cfg = build_model_config(graphs, TrainConfig.from_json(TINY_TRAIN))
        ckpt = tmp_path / "model.json"
        ModelParams.initialize(dataclasses.replace(cfg, external_dim=2), seed=0).save(str(ckpt))
        feats = tmp_path / "feats.jsonl"
        vectors = [[[0.25, 0.5]] * 2, [[0.1] * 3] * 2]  # the second is too wide
        feats.write_text(
            "".join(json.dumps({"vectors": v}) + "\n" for v in vectors), encoding="utf-8"
        )
        parsed = []
        monkeypatch.setattr("uccatree.cli.parse_pipeline", lambda *a, **k: parsed.append(a))
        out = tmp_path / "parsed.jsonl"
        code, _, stderr = run_cli(
            capsys, "parse", "--model", str(ckpt), "--in", str(corpus),
            "--external-features", str(feats), "--out", str(out),
        )
        assert code == 1 and parsed == [] and not out.exists()
        message = json.loads(stderr)["error"]["message"]
        assert message == f"{feats}: record 2: external features of shape (2, 3), expected (2, 2)"

    def test_parse_refuses_non_finite_external_features(self, tmp_path, capsys):
        graphs = [simple_graph(["A", "P"], n=2)]
        corpus = tmp_path / "corpus.jsonl"
        dump_corpus(graphs, str(corpus))
        cfg = build_model_config(graphs, TrainConfig.from_json(TINY_TRAIN))
        ckpt = tmp_path / "model.json"
        ModelParams.initialize(dataclasses.replace(cfg, external_dim=2), seed=0).save(str(ckpt))
        feats = tmp_path / "feats.jsonl"
        feats.write_text('{"vectors": [[0.5, Infinity], [0.5, 0.5]]}\n', encoding="utf-8")
        out = tmp_path / "parsed.jsonl"
        code, stdout, stderr = run_cli(
            capsys, "parse", "--model", str(ckpt), "--in", str(corpus),
            "--external-features", str(feats), "--out", str(out),
        )
        assert code == 1 and stdout == "" and not out.exists()
        message = json.loads(stderr)["error"]["message"]
        assert message == f"{feats}: record 1: external features hold NaN or infinite values"


class TestErrorContract:
    def test_missing_input_file(self, capsys):
        code, stdout, stderr = run_cli(capsys, "stats", "--in", "/nonexistent/x.jsonl")
        assert code == 1
        assert stdout == ""
        payload = json.loads(stderr)
        assert payload["error"]["type"] == "FileNotFoundError"

    def test_malformed_corpus_line_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, "stats", "--in", str(bad))
        assert code == 1
        assert ":1:" in json.loads(stderr)["error"]["message"]

    def test_malformed_external_feature_line_reports_position(
        self, tmp_path, capsys, tiny_corpus_file
    ):
        feats = tmp_path / "ext.jsonl"
        feats.write_text('{"vectors": [[0.1], [0.2]]}\n[1, 2]\n', encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "train", "--train", tiny_corpus_file, "--dev", tiny_corpus_file,
            "--external-features", str(feats), "--out", str(tmp_path / "m.json"),
        )
        assert code == 1
        message = json.loads(stderr)["error"]["message"]
        assert "ext.jsonl:2: malformed external feature record" in message

    def test_missing_subcommand_still_emits_json(self, capsys):
        code, _, stderr = run_cli(capsys)
        assert code == 1
        assert json.loads(stderr)["error"]["type"] == "CliError"


class TestClosedStdout:
    @pytest.mark.parametrize("command", [["stats"], ["convert", "--out", "/dev/stdout"]])
    def test_reader_that_stops_early_is_no_error(self, tmp_path, command):
        """``ucca stats ... | head`` exits as a process killed by SIGPIPE
        would, with status 141 and nothing on stderr."""
        corpus = tmp_path / "g.jsonl"
        dump_corpus([german_example()], str(corpus))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "uccatree.cli", *command, "--in", str(corpus)],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(Path(uccatree.__file__).resolve().parents[1])),
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141


class TestConsoleScript:
    def test_installed_entry_point_runs(self, tmp_path):
        """The `ucca` script declared in pyproject.toml runs as its own process.

        The declared entry point is loaded and run through the launcher an
        installer would write, so the test needs no install. An installed
        `ucca` on PATH is run too, with the same call and checks.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            value = tomllib.load(fh)["project"]["scripts"]["ucca"]
        entry_point = EntryPoint(name="ucca", value=value, group="console_scripts")
        assert callable(entry_point.load())

        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        launcher = bin_dir / "ucca"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {entry_point.module} import {entry_point.attr}\n"
            f"sys.exit({entry_point.attr}())\n",
            encoding="utf-8",
        )
        launcher.chmod(0o755)
        checkout_env = dict(
            os.environ,
            PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
            PYTHONPATH=str(Path(uccatree.__file__).resolve().parents[1]),
        )
        runs = [("ucca", checkout_env)]
        installed = shutil.which("ucca")
        if installed is not None:
            runs.append((installed, None))

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sentences": 2, "max_tokens": 5}), encoding="utf-8")
        for i, (exe, env) in enumerate(runs):
            out = tmp_path / f"gen{i}.jsonl"
            proc = subprocess.run(
                [exe, "gen", "--spec", str(spec), "--seed", "1", "--out", str(out)],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 0, f"{exe}: {proc.stderr}"
            assert "wrote 2 graphs" in proc.stdout
            assert len(load_corpus(str(out))) == 2
