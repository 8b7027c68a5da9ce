"""Recovery of remote (reentrant) edges with a biaffine classifier.

Each node whose tree label carried the ``-remote`` marker is paired with
every other nonterminal of the restored graph.  :func:`enumerate_pairs`
lays these candidates out as the cells of one (child, parent) grid, and
training and prediction both read exactly those cells.  Each node's span
goes through its MLP once; one biaffine product (arXiv 1611.01734) then
scores every remote label plus a distinguished NOT-PARENT outcome for
every cell.  Training minimizes per-cell cross-entropy.  At prediction
every cell whose best label is a real one proposes an edge, and proposals
are accepted in order of confidence as long as they neither duplicate a
primary edge nor close a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .graph_model import Span, UccaGraph
from .neural_core import BoundParams, Encoding, biaffine, span_affine


@dataclass(frozen=True)
class RemoteGrid:
    """The remote candidates of one graph: candidate k is the cell
    (``children[rows[k]]``, ``parents[cols[k]]``)."""

    children: list[int]  # the distinct marked nodes, in first-marked order
    parents: list[int]  # every nonterminal in id order; a node's column is its index here
    spans: dict[int, Span]  # each node's fencepost span
    rows: np.ndarray
    cols: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


def enumerate_pairs(graph: UccaGraph, remote_marked: Sequence[int]) -> RemoteGrid:
    """All (marked child, candidate parent) cells in a fixed order: child
    by first mark, parents by ascending id, the child itself skipped.

    Candidate parents are every other nonterminal, including the child's
    own primary parent and the root.  Spans come from the yield of each
    node in the restored primary graph, so a discontinuous node spans its
    leftmost-to-rightmost interval.
    """
    for child in remote_marked:
        if child not in graph.nonterminals:
            raise ValueError(f"remote-marked node {child} is not a nonterminal")
    children = list(dict.fromkeys(remote_marked))
    parents = sorted(graph.nonterminals)
    # Row-major over the off-diagonal of (marked node, column).
    rows, cols = np.nonzero(np.array(children, dtype=np.intp)[:, None] != parents)
    spans = {v: graph.fencepost_span(v) for v in parents}
    return RemoteGrid(children, parents, spans, rows, cols)


def _score_grid(grid: RemoteGrid, enc: Encoding, bound: BoundParams) -> Var:
    """(children, remote labels, parents) scores of every cell, rows and
    columns in the grid's order."""
    children = span_affine(enc, [grid.spans[c] for c in grid.children], bound, "remote_child")
    parents = span_affine(enc, [grid.spans[p] for p in grid.parents], bound, "remote_parent")
    return biaffine(ad.relu(children), ad.relu(parents), bound["biaffine_w"])


def loss_remote(
    grid: RemoteGrid,
    gold_remote_edges: Sequence[tuple[int, int, str]],
    enc: Encoding,
    bound: BoundParams,
) -> Var:
    """Summed cross-entropy over all candidate cells.

    Cells that do not correspond to a gold remote edge train toward
    NOT-PARENT (index 0 of the remote label inventory).
    """
    if not len(grid):
        return Var(np.zeros(()))
    vocab = bound.params.remote_labels
    row = {c: k for k, c in enumerate(grid.children)}
    col = {p: k for k, p in enumerate(grid.parents)}
    gold_ids = np.zeros((len(grid.children), len(grid.parents)), dtype=np.intp)
    gold = {(parent, child): label for parent, child, label in gold_remote_edges}
    for (parent, child), label in gold.items():
        if child in row and parent in col:
            if label not in vocab.index:
                raise ValueError(f"remote label {label!r} missing from the inventory")
            gold_ids[row[child], col[parent]] = vocab.index[label]
    scores = ad.index(_score_grid(grid, enc, bound), (grid.rows, slice(None), grid.cols))
    return ad.cross_entropy_rows(scores, gold_ids[grid.rows, grid.cols])


def predict_remotes(
    graph: UccaGraph,
    remote_marked: Sequence[int],
    enc: Encoding,
    bound: BoundParams,
) -> list[tuple[int, int, str]]:
    """Predicted (parent, child, label) remote edges for a restored graph.

    The grid of :func:`enumerate_pairs` is scored once.  Every candidate
    cell whose argmax label is not NOT-PARENT becomes a proposal with
    confidence ``score[best] - score[NOT-PARENT]``.  Proposals are
    processed by descending confidence and dropped when they duplicate a
    primary edge or would close a cycle.
    """
    grid = enumerate_pairs(graph, remote_marked)
    if not len(grid):
        return []
    cells = _score_grid(grid, enc, bound).value[grid.rows, :, grid.cols]
    best = cells.argmax(axis=1)  # label 0 is NOT-PARENT
    (hits,) = np.nonzero(best != 0)
    rows, cols, best = grid.rows[hits], grid.cols[hits], best[hits]
    margins = cells[hits, best] - cells[hits, 0]
    child_at = np.searchsorted(grid.parents, grid.children)[rows]
    # By descending margin, then child and parent column: each cell is one proposal.
    order = np.lexsort((cols, child_at, -margins))
    proposals = zip(child_at[order].tolist(), cols[order].tolist(), best[order].tolist())

    # reach[a, b]: column a reaches column b, kept closed under every edge linked so far.
    reach = np.eye(len(grid.parents), dtype=bool)

    def link(parent: int, child: int) -> None:
        if not reach[parent, child]:  # all that reaches the parent now reaches all the child does
            reach[reach[:, parent]] |= reach[child]

    ends = [(e.parent, e.child) for e in graph.primary_edges if e.child in graph.nonterminals]
    primary = {(p, c) for p, c in np.searchsorted(grid.parents, ends).reshape(-1, 2).tolist()}
    for parent, child in primary:
        link(parent, child)

    labels = bound.config.remote_labels
    accepted: list[tuple[int, int, str]] = []
    for child, parent, label in proposals:
        if (parent, child) in primary:
            continue
        if reach[child, parent]:
            continue  # the new edge would close a cycle
        link(parent, child)
        accepted.append((grid.parents[parent], grid.parents[child], labels[label]))
    return accepted
