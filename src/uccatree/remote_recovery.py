"""Recovery of remote (reentrant) edges with a biaffine classifier.

Each node whose tree label carried the ``-remote`` marker is paired with
every other nonterminal of the restored graph.  Each node's span goes
through its MLP once; one biaffine product (arXiv 1611.01734) then scores
every remote label plus a distinguished NOT-PARENT outcome for every
(child, parent) cell of one (child, label, parent) grid.  Training
minimizes per-pair cross-entropy over the cells that
:func:`enumerate_pairs` lists.  Prediction reads the grid itself and
creates no pair objects: every cell off the diagonal whose best label is a
real one proposes an edge, and proposals are accepted in order of
confidence as long as they neither duplicate a primary edge nor close a
cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .graph_model import Span, UccaGraph
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


def _score_grid(
    child_spans: Mapping[int, Span],
    parent_spans: Mapping[int, Span],
    enc: Encoding,
    bound: BoundParams,
) -> Var:
    """(children, remote labels, parents) scores of every cell, rows and
    columns in the order of the two node -> span maps."""
    children = span_affine(enc, list(child_spans.values()), bound, "remote_child")
    parents = span_affine(enc, list(parent_spans.values()), bound, "remote_parent")
    return biaffine(ad.relu(children), ad.relu(parents), bound["biaffine_w"])


def _pair_score_matrix(
    pairs: Sequence[RemoteCandidatePair], enc: Encoding, bound: BoundParams
) -> Var:
    """(pairs, remote labels) scores, row k for ``pairs[k]``, gathered from
    the grid over the distinct nodes in first-seen order."""
    child_spans = {p.child: p.child_span for p in pairs}
    parent_spans = {p.parent: p.parent_span for p in pairs}
    grid = _score_grid(child_spans, parent_spans, enc, bound)
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

    The grid is scored once, over the marked children and the columns of
    :func:`enumerate_pairs`.  Every cell off the diagonal whose argmax
    label is not NOT-PARENT becomes a proposal with confidence
    ``score[best] - score[NOT-PARENT]``.  Proposals are processed by
    descending confidence and dropped when they duplicate a primary edge
    or would close a cycle.
    """
    nonterminals = sorted(graph.nonterminals)
    for child in remote_marked:
        if child not in graph.nonterminals:
            raise ValueError(f"remote-marked node {child} is not a nonterminal")
    children = list(dict.fromkeys(remote_marked))
    if not children or len(nonterminals) < 2:
        return []
    # The pair list's columns in its first-seen order: the first child is
    # its own column only as another child's candidate parent.
    parents = [p for p in nonterminals if p != children[0]]
    if len(children) > 1:
        parents.append(children[0])
    child_spans = {c: graph.fencepost_span(c) for c in children}
    parent_spans = {p: graph.fencepost_span(p) for p in parents}
    grid = _score_grid(child_spans, parent_spans, enc, bound).value
    best = grid.argmax(axis=1)  # (children, parents); label 0 is NOT-PARENT
    margins = np.take_along_axis(grid, best[:, None, :], axis=1)[:, 0, :] - grid[:, 0, :]
    # Nodes by their place among the sorted nonterminals, which orders them
    # as their ids do.
    index = {v: k for k, v in enumerate(nonterminals)}
    child_at = np.array([index[c] for c in children])
    parent_at = np.array([index[p] for p in parents])
    rows, cols = np.nonzero((best != 0) & (child_at[:, None] != parent_at))
    proposals = sorted(
        zip(
            (-margins[rows, cols]).tolist(),
            child_at[rows].tolist(),
            parent_at[cols].tolist(),
            best[rows, cols].tolist(),
        )
    )

    # reach[a, b]: a reaches b, kept closed under every edge linked so far.
    reach = np.eye(len(nonterminals), dtype=bool)

    def link(parent: int, child: int) -> None:
        if not reach[parent, child]:  # all that reaches the parent now reaches all the child does
            reach[reach[:, parent]] |= reach[child]

    primary = {(index[e.parent], index[e.child]) for e in graph.primary_edges if e.child in index}
    for parent, child in primary:
        link(parent, child)

    labels = bound.config.remote_labels
    accepted: list[tuple[int, int, str]] = []
    for _, child, parent, label in proposals:
        if (parent, child) in primary:
            continue
        if reach[child, parent]:
            continue  # the new edge would close a cycle
        link(parent, child)
        accepted.append((nonterminals[parent], nonterminals[child], labels[label]))
    return accepted
