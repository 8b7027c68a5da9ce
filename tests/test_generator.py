"""Synthetic corpus generator: determinism, validity, knob behavior."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from uccatree.conversion import graph_to_tree, tree_from_sexpr, tree_to_graph, tree_to_sexpr
from uccatree.generator import SyntheticSpec, generate

from conftest import primary_only


def dumps(graphs) -> str:
    return "\n".join(json.dumps(g.to_json(), sort_keys=True) for g in graphs)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        spec = SyntheticSpec(sentences=25)
        assert dumps(generate(spec, seed=3)) == dumps(generate(spec, seed=3))

    def test_different_seeds_differ(self):
        spec = SyntheticSpec(sentences=25)
        assert dumps(generate(spec, seed=3)) != dumps(generate(spec, seed=4))

    def test_language_tag_applied(self):
        graphs = generate(SyntheticSpec(sentences=3), seed=0, lang="fr")
        assert all(t.lang == "fr" for g in graphs for t in g.tokens)


class TestValidityAndShape:
    def test_all_graphs_valid(self):
        for g in generate(SyntheticSpec(sentences=50), seed=11):
            assert g.validate() == []

    def test_token_count_bounds(self):
        spec = SyntheticSpec(sentences=60, min_tokens=4, max_tokens=9)
        counts = {len(g.tokens) for g in generate(spec, seed=2)}
        assert counts <= set(range(4, 10))
        assert min(counts) == 4 and max(counts) == 9

    def test_vocabulary_and_annotations_come_from_the_pools(self):
        spec = SyntheticSpec(sentences=20, vocab_size=7)
        graphs = generate(spec, seed=5)
        forms = {t.form for g in graphs for t in g.tokens}
        assert forms <= {f"w{k}" for k in range(7)}
        assert {t.pos for g in graphs for t in g.tokens} <= {"NOUN", "VERB", "ADJ", "DET"}
        assert {t.ner for g in graphs for t in g.tokens} <= {"O", "PER", "LOC"}
        assert {t.dep for g in graphs for t in g.tokens} <= {"s", "o", "m", "d"}

    def test_edge_labels_come_from_the_spec(self):
        spec = SyntheticSpec(sentences=20, labels=("X", "Y"))
        graphs = generate(spec, seed=8)
        labels = {e.label for g in graphs for e in g.edges if e.label}
        assert labels <= {"X", "Y"}


class TestKnobs:
    def test_zero_probabilities_give_plain_trees(self):
        spec = SyntheticSpec(sentences=40, p_remote=0.0, p_discontinuity=0.0)
        for g in generate(spec, seed=6):
            assert not any(e.remote for e in g.edges)
            assert not any(g.is_discontinuous(v) for v in g.nonterminals)

    def test_high_probabilities_produce_both_phenomena(self):
        spec = SyntheticSpec(sentences=60, p_remote=0.8, p_discontinuity=1.0)
        graphs = generate(spec, seed=9)
        with_remote = sum(any(e.remote for e in g.edges) for g in graphs)
        with_disc = sum(
            any(g.is_discontinuous(v) for v in g.nonterminals) for g in graphs
        )
        assert with_remote >= 30
        assert with_disc >= 20


class TestRoundTripGuarantee:
    def test_generated_graphs_convert_losslessly(self):
        spec = SyntheticSpec(sentences=40, p_remote=0.5, p_discontinuity=0.8)
        for g in generate(spec, seed=13):
            result = graph_to_tree(g)
            assert result.lossy_moves == 0
            restored, marked = tree_to_graph(result.tree)
            assert restored.validate() == []
            assert restored.same_structure(primary_only(g))

    def test_conversion_path_digest(self):
        # Pins the bytes of generated corpora, of their bracketed trees and
        # of the graphs read back from those trees: a refactor of the
        # generator or the conversion must leave all three unchanged.
        spec = SyntheticSpec(sentences=30, max_tokens=30, max_depth=6, p_remote=0.6, p_discontinuity=1.0)
        digest = hashlib.sha256()
        for seed in (7, 8):
            for g in generate(spec, seed=seed):
                sexpr = tree_to_sexpr(graph_to_tree(g).tree)
                restored, marked = tree_to_graph(tree_from_sexpr(sexpr, lang=g.tokens[0].lang))
                for text in (json.dumps(g.to_json(), sort_keys=True), sexpr,
                             json.dumps(restored.to_json(), sort_keys=True), repr(marked)):
                    digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == "0ec11babe793904fe3d26c75a1553aae403a03f6c55a0ef09f56c07b52803096"


def test_readme_genspec_example_lists_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("`genspec.json` holds generator settings", 1)[1]
    example = json.loads(section[section.index("`{") + 1 : section.index("}`") + 1])
    defaults = asdict(SyntheticSpec())
    defaults["labels"] = list(defaults["labels"])
    assert example == defaults
    assert SyntheticSpec.from_json(example) == SyntheticSpec()


def test_spec_takes_the_edges_of_each_range():
    edges = {"sentences": 1, "min_tokens": 1, "max_tokens": 1, "vocab_size": 1, "max_depth": 1,
             "min_branch": 1, "max_branch": 1, "p_remote": 0, "p_discontinuity": 1, "labels": ["X"]}
    spec = SyntheticSpec.from_json(edges)
    assert spec.labels == ("X",)
    assert [len(g.tokens) for g in generate(spec, seed=1)] == [1]
