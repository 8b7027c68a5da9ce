"""Recovery of remote (reentrant) edges with a biaffine classifier.

Each node whose tree label carried the ``-remote`` marker is paired with
every other nonterminal of the restored graph.  Each node's span goes
through its MLP once; one biaffine product (arXiv 1611.01734) then scores
every remote label plus a distinguished NOT-PARENT outcome for every
(child, parent) cell.  Training minimizes per-pair cross-entropy; at
prediction time every pair whose best label is a real one proposes an
edge, and proposals are accepted in order of confidence as long as they
neither duplicate a primary edge nor close a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .graph_model import UccaGraph, reachable
from .neural_core import BoundParams, Encoding, biaffine, span_affine


@dataclass(frozen=True)
class RemoteCandidatePair:
    child: int
    parent: int
    child_span: tuple[int, int]
    parent_span: tuple[int, int]


def enumerate_pairs(
    graph: UccaGraph, remote_marked: Sequence[int]
) -> list[RemoteCandidatePair]:
    """All (marked child, candidate parent) pairs in a fixed order.

    Candidate parents are every other nonterminal, including the child's
    own primary parent and the root.  Spans come from the yield of each
    node in the restored primary graph, so a discontinuous node spans its
    leftmost-to-rightmost interval.
    """
    pairs: list[RemoteCandidatePair] = []
    for child in remote_marked:
        if child not in graph.nonterminals:
            raise ValueError(f"remote-marked node {child} is not a nonterminal")
        child_span = graph.fencepost_span(child)
        for parent in sorted(graph.nonterminals):
            if parent == child:
                continue
            pairs.append(
                RemoteCandidatePair(
                    child=child,
                    parent=parent,
                    child_span=child_span,
                    parent_span=graph.fencepost_span(parent),
                )
            )
    return pairs


def _pair_score_matrix(
    pairs: Sequence[RemoteCandidatePair], enc: Encoding, bound: BoundParams
) -> Var:
    """(pairs, remote labels) scores, row k for ``pairs[k]``, gathered from
    one (child, label, parent) grid over the distinct nodes."""
    child_spans = {p.child: p.child_span for p in pairs}
    parent_spans = {p.parent: p.parent_span for p in pairs}
    children = span_affine(enc, list(child_spans.values()), bound, "remote_child")
    parents = span_affine(enc, list(parent_spans.values()), bound, "remote_parent")
    grid = biaffine(ad.relu(children), ad.relu(parents), bound["biaffine_w"])
    row = {node: k for k, node in enumerate(child_spans)}
    col = {node: k for k, node in enumerate(parent_spans)}
    return ad.index(grid, ([row[p.child] for p in pairs], slice(None), [col[p.parent] for p in pairs]))


def loss_remote(
    pairs: Sequence[RemoteCandidatePair],
    gold_remote_edges: Sequence[tuple[int, int, str]],
    enc: Encoding,
    bound: BoundParams,
) -> Var:
    """Summed cross-entropy over all candidate pairs.

    Pairs that do not correspond to a gold remote edge train toward
    NOT-PARENT (index 0 of the remote label inventory).
    """
    if not pairs:
        return Var(np.zeros(()))
    gold = {(parent, child): label for parent, child, label in gold_remote_edges}
    vocab = bound.params.remote_labels
    gold_ids = []
    for pair in pairs:
        label = gold.get((pair.parent, pair.child))
        if label is not None and label not in vocab.index:
            raise ValueError(f"remote label {label!r} missing from the inventory")
        gold_ids.append(0 if label is None else vocab.lookup(label))
    return ad.cross_entropy_rows(_pair_score_matrix(pairs, enc, bound), gold_ids)


def predict_remotes(
    graph: UccaGraph,
    remote_marked: Sequence[int],
    enc: Encoding,
    bound: BoundParams,
) -> list[tuple[int, int, str]]:
    """Predicted (parent, child, label) remote edges for a restored graph.

    Every pair whose argmax label is not NOT-PARENT becomes a proposal
    with confidence ``score[best] - score[NOT-PARENT]``.  Proposals are
    processed by descending confidence and dropped when they duplicate a
    primary edge or would close a cycle.
    """
    pairs = enumerate_pairs(graph, remote_marked)
    if not pairs:
        return []
    labels = bound.config.remote_labels
    scores = _pair_score_matrix(pairs, enc, bound).value
    proposals = [
        (float(values[best] - values[0]), pair, labels[best])
        for pair, values, best in zip(pairs, scores, scores.argmax(axis=1))
        if best != 0  # NOT-PARENT
    ]
    proposals.sort(key=lambda item: (-item[0], item[1].child, item[1].parent))

    primary = {(e.parent, e.child) for e in graph.primary_edges}
    out_edges: dict[int, set[int]] = {v: set() for v in graph.node_ids}
    for e in graph.primary_edges:
        out_edges[e.parent].add(e.child)

    accepted: list[tuple[int, int, str]] = []
    for _, pair, label in proposals:
        if (pair.parent, pair.child) in primary:
            continue
        if reachable(out_edges, pair.child, pair.parent):
            continue  # the new edge would close a cycle
        out_edges[pair.parent].add(pair.child)
        accepted.append((pair.parent, pair.child, label))
    return accepted
