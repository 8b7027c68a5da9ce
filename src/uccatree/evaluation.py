"""Yield-based scoring of predicted graphs against gold graphs.

An edge counts as correct when its child's terminal yield, its label and
its kind (primary or remote) all match a gold edge; matching is a
multiset intersection, so repeated identical edges only count as often
as they appear on both sides.  Terminal-attaching edges carry no label
and are excluded.  Scores are reported per kind and pooled ("averaged",
a micro-average over both kinds together).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .conversion import strip_suffixes
from .graph_model import EdgeRecord, UccaGraph


@dataclass(frozen=True)
class KindScore:
    matched: int
    gold: int
    predicted: int

    @property
    def precision(self) -> float:
        if self.predicted == 0:
            return 1.0 if self.gold == 0 else 0.0
        return self.matched / self.predicted

    @property
    def recall(self) -> float:
        if self.gold == 0:
            return 1.0 if self.predicted == 0 else 0.0
        return self.matched / self.gold

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        if p + r == 0.0:
            return 0.0
        return 2.0 * p * r / (p + r)

    def __add__(self, other: KindScore) -> KindScore:
        return KindScore(
            matched=self.matched + other.matched,
            gold=self.gold + other.gold,
            predicted=self.predicted + other.predicted,
        )


@dataclass(frozen=True)
class F1Report:
    primary: KindScore
    remote: KindScore

    @property
    def averaged(self) -> KindScore:
        return self.primary + self.remote

    def to_json(self) -> dict:
        def enc(score: KindScore) -> dict:
            return {
                "precision": score.precision,
                "recall": score.recall,
                "f1": score.f1,
                "matched": score.matched,
                "gold": score.gold,
                "predicted": score.predicted,
            }

        return {
            "primary": enc(self.primary),
            "remote": enc(self.remote),
            "averaged": enc(self.averaged),
        }

    def to_tsv(self) -> str:
        """One tab-separated line: P/R/F1 for primary, remote, averaged."""
        cells = []
        for score in (self.primary, self.remote, self.averaged):
            cells.extend(
                f"{value:.4f}" for value in (score.precision, score.recall, score.f1)
            )
        return "\t".join(cells)


def edge_records(graph: UccaGraph) -> Counter[EdgeRecord]:
    """Multiset of scoring records for all labeled edges of a graph.

    Conversion markers are stripped and "+"-joined chain labels expand
    into one record per part so that tree artifacts can never leak into
    a score.
    """
    records: Counter[EdgeRecord] = Counter()
    for edge in graph.edges:
        if edge.label == "":
            continue
        positions = frozenset(graph.yield_of(edge.child))
        for part in edge.label.split("+"):
            base = strip_suffixes(part)
            if base == "":
                continue
            records[EdgeRecord(positions=positions, label=base, remote=edge.remote)] += 1
    return records


def _score_kind(gold: Counter[EdgeRecord], pred: Counter[EdgeRecord]) -> KindScore:
    matched = sum((gold & pred).values())
    return KindScore(matched=matched, gold=sum(gold.values()), predicted=sum(pred.values()))


def _split_kinds(records: Counter[EdgeRecord]) -> tuple[Counter, Counter]:
    primary: Counter[EdgeRecord] = Counter()
    remote: Counter[EdgeRecord] = Counter()
    for record, count in records.items():
        (remote if record.remote else primary)[record] = count
    return primary, remote


def score(gold: UccaGraph, pred: UccaGraph) -> F1Report:
    """Score one predicted graph against its gold counterpart."""
    if [t.form for t in gold.tokens] != [t.form for t in pred.tokens]:
        raise ValueError("gold and predicted graphs are over different token sequences")
    gold_primary, gold_remote = _split_kinds(edge_records(gold))
    pred_primary, pred_remote = _split_kinds(edge_records(pred))
    return F1Report(
        primary=_score_kind(gold_primary, pred_primary),
        remote=_score_kind(gold_remote, pred_remote),
    )


def score_corpus(gold: list[UccaGraph], pred: list[UccaGraph]) -> F1Report:
    """Corpus-level scores: counts pool over sentences before dividing."""
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold graphs vs {len(pred)} predicted graphs")
    primary = KindScore(0, 0, 0)
    remote = KindScore(0, 0, 0)
    for r, (g, p) in enumerate(zip(gold, pred), start=1):
        try:
            report = score(g, p)
        except ValueError as exc:
            raise ValueError(f"record {r}: {exc}") from exc
        primary += report.primary
        remote += report.remote
    return F1Report(primary=primary, remote=remote)


def report_json(report: F1Report) -> str:
    return json.dumps(report.to_json(), sort_keys=True, indent=2)
