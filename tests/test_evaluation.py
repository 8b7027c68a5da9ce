"""Yield-based F1 scoring, frozen hand cases, and a brute-force oracle."""

from __future__ import annotations

import json

import pytest

from uccatree.evaluation import (
    F1Report,
    KindScore,
    edge_records,
    report_json,
    score,
    score_corpus,
)
from uccatree.generator import SyntheticSpec, generate
from uccatree.graph_model import Edge, EdgeRecord, Token, UccaGraph

from conftest import primary_only, simple_graph


# --- independent oracle ----------------------------------------------------
# Recomputes everything from the raw edge list: own yield traversal, own
# multiset matching.  Shares no helper with the implementation under test.


def _oracle_yield(graph: UccaGraph, node: int) -> frozenset[int]:
    kids: dict[int, list[int]] = {}
    for e in graph.edges:
        if not e.remote:
            kids.setdefault(e.parent, []).append(e.child)
    out: set[int] = set()
    stack = [node]
    while stack:
        v = stack.pop()
        if v in kids:
            stack.extend(kids[v])
        else:
            out.add(v)
    return frozenset(out)


def _oracle_records(graph: UccaGraph) -> list[tuple]:
    records = []
    for e in graph.edges:
        if e.label == "":
            continue
        records.append((_oracle_yield(graph, e.child), e.label, e.remote))
    return records


def _oracle_counts(gold: list[tuple], pred: list[tuple]) -> tuple[int, int, int]:
    pool = list(pred)
    matched = 0
    for rec in gold:
        if rec in pool:
            pool.remove(rec)
            matched += 1
    return matched, len(gold), len(pred)


def _oracle_prf(matched: int, gold: int, predicted: int) -> tuple[float, float, float]:
    p = (matched / predicted) if predicted else (1.0 if gold == 0 else 0.0)
    r = (matched / gold) if gold else (1.0 if predicted == 0 else 0.0)
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def _oracle_report(gold: UccaGraph, pred: UccaGraph) -> dict:
    out = {}
    gold_recs = _oracle_records(gold)
    pred_recs = _oracle_records(pred)
    kinds = {
        "primary": (lambda r: not r[2]),
        "remote": (lambda r: r[2]),
        "averaged": (lambda r: True),
    }
    for kind, keep in kinds.items():
        m, g, p = _oracle_counts(
            [r for r in gold_recs if keep(r)], [r for r in pred_recs if keep(r)]
        )
        prec, rec, f1 = _oracle_prf(m, g, p)
        out[kind] = {"precision": prec, "recall": rec, "f1": f1}
    return out


def unary_chain_graph(upper: str, lower: str) -> UccaGraph:
    """Two tokens: the first under a unary chain labeled ``upper`` over
    ``lower``, the second under a preterminal labeled "P"."""
    return UccaGraph(
        tokens=(Token(form="t1"), Token(form="t2")),
        root=3,
        nonterminals=frozenset({3, 4, 5, 6}),
        edges=(
            Edge(3, 4, upper),
            Edge(4, 5, lower),
            Edge(5, 1, ""),
            Edge(3, 6, "P"),
            Edge(6, 2, ""),
        ),
    )


# --- frozen hand cases -----------------------------------------------------


class TestHandCases:
    def test_identical_graphs_score_one(self, german_graph):
        report = score(german_graph, german_graph)
        assert report.primary == KindScore(matched=8, gold=8, predicted=8)
        assert report.remote == KindScore(matched=1, gold=1, predicted=1)
        assert report.averaged.f1 == 1.0

    def test_two_of_three_scores_point_eight(self):
        gold = simple_graph(["A", "P", "E"])
        pred = simple_graph(["A", "P", ""])  # third preterminal unlabeled
        report = score(gold, pred)
        assert report.primary == KindScore(matched=2, gold=3, predicted=2)
        assert report.primary.precision == 1.0
        assert report.primary.recall == pytest.approx(2 / 3)
        assert report.primary.f1 == pytest.approx(0.8)

    def test_missing_remote_on_worked_example(self, german_graph):
        report = score(german_graph, primary_only(german_graph))
        assert report.primary.f1 == 1.0
        assert report.remote == KindScore(matched=0, gold=1, predicted=0)
        assert report.remote.precision == 0.0
        assert report.remote.f1 == 0.0
        assert report.averaged.f1 == pytest.approx(16 / 17)

    def test_empty_against_empty_is_perfect(self):
        gold = simple_graph(["", ""], n=2)
        assert score(gold, gold).averaged.f1 == 1.0
        assert KindScore(0, 0, 0).f1 == 1.0

    def test_wrong_label_is_both_fp_and_fn(self):
        gold = simple_graph(["A"], n=1)
        pred = simple_graph(["P"], n=1)
        report = score(gold, pred)
        assert report.primary == KindScore(matched=0, gold=1, predicted=1)
        assert report.primary.f1 == 0.0

    def test_token_mismatch_rejected(self):
        gold = simple_graph(["A"], n=1)
        pred = UccaGraph(
            tokens=tuple([gold.tokens[0].__class__(form="other")]),
            root=gold.root,
            nonterminals=gold.nonterminals,
            edges=gold.edges,
        )
        with pytest.raises(ValueError, match="different token sequences"):
            score(gold, pred)


class TestEdgeRecords:
    def test_german_records(self, german_graph):
        recs = edge_records(german_graph)
        expected = {
            EdgeRecord(frozenset({2, 3, 4}), "H", False): 1,
            EdgeRecord(frozenset({1, 6, 7}), "H", False): 1,
            EdgeRecord(frozenset({5}), "L", False): 1,
            EdgeRecord(frozenset({2}), "A", False): 1,
            EdgeRecord(frozenset({3, 4}), "P", False): 1,
            EdgeRecord(frozenset({1}), "U", False): 1,
            EdgeRecord(frozenset({6}), "P", False): 1,
            EdgeRecord(frozenset({7}), "U", False): 1,
            EdgeRecord(frozenset({2}), "A", True): 1,
        }
        assert dict(recs) == expected

    def test_unary_chain_scores_one_record_per_edge(self):
        graph = unary_chain_graph("H", "E")
        assert dict(edge_records(graph)) == {
            EdgeRecord(frozenset({1}), "H", False): 1,
            EdgeRecord(frozenset({1}), "E", False): 1,
            EdgeRecord(frozenset({2}), "P", False): 1,
        }

    def test_duplicate_records_kept_as_multiset(self):
        gold = simple_graph(["A", "A"], n=2)
        # Both preterminals yield different positions, so they stay apart;
        # force a true duplicate via a unary chain that repeats the label.
        dup = unary_chain_graph("A", "A")
        recs = edge_records(dup)
        assert recs[EdgeRecord(frozenset({1}), "A", False)] == 2
        report = score(gold, dup)
        assert report.primary.matched == 1  # only one copy exists in gold


class TestPooling:
    def test_corpus_counts_pool_before_dividing(self):
        gold_a, pred_a = simple_graph(["A"], n=1), simple_graph(["P"], n=1)
        gold_b = simple_graph(["A", "P"], n=2)
        report = score_corpus([gold_a, gold_b], [pred_a, gold_b])
        assert report.averaged == KindScore(matched=2, gold=3, predicted=3)
        # Micro-averaged: 2/3.  A per-sentence mean of F1s would give 0.5.
        assert report.averaged.f1 == pytest.approx(2 / 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="gold graphs"):
            score_corpus([simple_graph(["A"], n=1)], [])


class TestReports:
    def test_tsv_line_for_worked_example(self, german_graph):
        report = score(german_graph, primary_only(german_graph))
        assert report.to_tsv() == "\t".join(
            [
                "1.0000", "1.0000", "1.0000",
                "0.0000", "0.0000", "0.0000",
                "1.0000", "0.8889", "0.9412",
            ]
        )

    def test_json_report_structure(self, german_graph):
        payload = json.loads(report_json(score(german_graph, german_graph)))
        assert set(payload) == {"primary", "remote", "averaged"}
        assert payload["averaged"]["matched"] == 9
        assert payload["averaged"]["f1"] == 1.0


class TestOracleEquivalence:
    def _random_pairs(self, count: int):
        pairs = []
        per_size = {k: count // 6 + 1 for k in range(2, 8)}
        for k, sentences in per_size.items():
            spec = SyntheticSpec(
                sentences=sentences, min_tokens=k, max_tokens=k,
                p_remote=0.5, p_discontinuity=0.5,
            )
            golds = generate(spec, seed=100 + k)
            preds = generate(spec, seed=900 + k)
            for gold, pred in zip(golds, preds):
                pred = UccaGraph(
                    tokens=gold.tokens,
                    root=pred.root,
                    nonterminals=pred.nonterminals,
                    edges=pred.edges,
                )
                pairs.append((gold, pred))
        return pairs[:count]

    def test_matches_brute_force_on_random_pairs(self):
        pairs = self._random_pairs(120)
        assert len(pairs) == 120
        for gold, pred in pairs:
            got = score(gold, pred).to_json()
            want = _oracle_report(gold, pred)
            for kind in ("primary", "remote", "averaged"):
                for key in ("precision", "recall", "f1"):
                    assert got[kind][key] == pytest.approx(
                        want[kind][key], abs=1e-12
                    ), (kind, key)

