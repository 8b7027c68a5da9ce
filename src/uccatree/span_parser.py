"""Greedy top-down span parsing with a margin loss.

A tree is its map of labeled spans (``ConstituentTree.spans``): every
span gets a label decision, the "+"-joined labels of the nodes on it or
else the empty label, and above length one a split decision.  N-ary
nodes are binarized implicitly: the spans in between carry the empty
label.  The decoder's spans become its tree through ``from_spans``.  The
root chain always starts with "ROOT", which is forbidden everywhere
else, so the empty label is never an option for the whole sentence.
Move markers are further restricted at decode time (no marker under a
bare "ROOT" node or at a node's left edge, none on non-head chain parts):
a stricter form of the rule in ``ConstituentTree.validate`` that keeps
every marker undoable, so every produced tree restores to a graph; see
``_label_masks``.

Training walks the gold tree (teacher forcing) and accumulates hinge
penalties with margin one for labels and splits; a loss of zero implies
the greedy parser reproduces the gold tree exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .graph_model import ROOT_LABEL, ConstituentTree, Span, Token, checked, split_label
from .neural_core import BoundParams, Encoding, label_scores, split_scores


def gold_trace(tree: ConstituentTree) -> dict[Span, str]:
    """The labeled spans of a valid tree; every other span's gold label is ""."""
    return checked(tree, "tree").spans()


@lru_cache(maxsize=8)
def _label_masks(labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three read-only boolean masks over the label inventory, built once
    per inventory: the labels the whole sentence may take, those any other
    span may take, and those of the latter whose head is not move-marked.

    The whole sentence takes a "ROOT"-headed label, every other span a
    non-"ROOT" head.  No label with a move marker on a non-head chain part
    is ever decodable: undoing it would leave the preceding part childless.
    A marked head is decodable only on a span starting after its ``edge``:
    below a labeled node that is the node's left edge, so the node keeps a
    child that stays put when markers are undone, and below a bare "ROOT"
    it is n, since the moved node would have no grandparent to return to.
    This is stricter than ``ConstituentTree.validate``, which asks only for
    some unmarked child.  Graph-derived gold trees satisfy all of this
    already: a moved subtree starts strictly inside its new parent's span,
    has siblings and is never part of a chain.
    """
    chains = [label.split("+") for label in labels]
    marked = [[split_label(part)[2] for part in chain] for chain in chains]
    root = np.array([chain[0] == ROOT_LABEL for chain in chains], dtype=bool)
    untailed = np.array([not any(m[1:]) for m in marked], dtype=bool)
    unmarked = np.array([not m[0] for m in marked], dtype=bool)
    masks = (root & untailed, ~root & untailed, ~root & untailed & unmarked)
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _edge_below(label: str, i: int, n: int, edge: int) -> int:
    """``edge`` of the spans below a label decision on a span starting at i."""
    if not label:  # empty label: still binarizing the same parent node
        return edge
    return n if label == ROOT_LABEL else i


def _span_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every span (i, j) of an n-token sentence as the rows of an (m, 2)
    array, ordered by i then j, and the ``(n + 1, n + 1)`` matrix whose cell
    (i, j) holds the row of span (i, j) (-1 if i >= j)."""
    lo, hi = np.triu_indices(n + 1, 1)
    table = np.full((n + 1, n + 1), -1)
    table[lo, hi] = np.arange(lo.size)
    return np.stack([lo, hi], axis=1), table


# Spans per ``split_scores`` call when the split table is filled.  Each of a
# call's temporaries is SPAN_BLOCK x mlp_hidden floats, 125 KiB at the
# paper's 250, so the table's memory grows with n(n + 1)/2 scalars, not
# with n(n + 1)/2 hidden layers.  With one BLAS thread, blocks of a multiple
# of 8 spans give the bits of one call over all spans (measured; other
# sizes round some rows differently).
SPAN_BLOCK = 64


def _split_table(enc: Encoding, bound: BoundParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_span_table(enc.n)`` and the ``(n + 1, n + 1)`` matrix of split
    scores s(i, j), filled SPAN_BLOCK spans at a time."""
    spans, table = _span_table(enc.n)
    blocks = [
        split_scores(enc, spans[lo : lo + SPAN_BLOCK], bound).value
        for lo in range(0, len(spans), SPAN_BLOCK)
    ]
    return spans, table, np.concatenate(blocks)[table]


def _best_split(span_scores: np.ndarray, i: int, j: int, ks: np.ndarray) -> int:
    """The k among the ascending ``ks`` with the highest s(i, k) + s(k, j),
    the first one on ties; ``span_scores`` is indexed like the span table."""
    return int(ks[np.argmax(span_scores[i, ks] + span_scores[ks, j])])


def _best_labels(label_values: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Per row, the allowed label with the highest score; the first on ties."""
    return np.where(allowed, label_values, -np.inf).argmax(axis=-1)


def loss_topdown(enc: Encoding, gold: Mapping[Span, str], bound: BoundParams) -> Var:
    """Margin-one hinge loss along the gold derivation.

    ``gold`` maps the gold tree's labeled spans to their labels, root span
    first (see :func:`gold_trace`).  The descent picks the best-scoring
    gold-consistent split at every n-ary decision; terms with no incorrect
    alternative contribute zero.

    The decisions read the split scores of every span, which the loss does
    not reach.  The hinge terms score again, on the loss's tape, only the
    distinct spans they use: at most 4(n - 1) rows, not n(n + 1)/2, so
    backward never visits the whole span table.  The label head is taped
    on the 2n - 1 decided spans.
    """
    n = enc.n
    if next(iter(gold), None) != (0, n):
        raise ValueError(f"gold spans start with {next(iter(gold), None)}, encoder has n={n}")
    spans, table, span_scores = _split_table(enc, bound)
    whole, inner, unmarked = _label_masks(tuple(bound.config.labels))
    # Bounds of the smallest gold span strictly containing each fencepost:
    # k is a gold split point of a decided span (i, j) when that gold span
    # contains (i, j), i.e. k lies between two children of (i, j)'s node.
    lo, hi = np.zeros(n + 1, dtype=np.intp), np.zeros(n + 1, dtype=np.intp)
    for i, j in gold:  # preorder: a smaller span overwrites a larger one
        lo[i + 1 : j], hi[i + 1 : j] = i, j

    label_index = bound.params.labels.index
    # (span, gold label id, allowed-label mask) of every label decision.
    label_decisions: list[tuple[Span, int, np.ndarray]] = []
    # Span rows of each split term: gold left, gold right, wrong left, wrong right.
    split_terms: list[np.ndarray] = []

    stack = [(0, n, n)]  # (i, j, edge); the whole sentence's edge is never read
    while stack:
        i, j, edge = stack.pop()
        label = gold.get((i, j), "")
        allowed = whole if j - i == n else inner if i > edge else unmarked
        if label not in label_index:
            raise ValueError(f"gold label {label!r} missing from the label inventory")
        if not allowed[label_index[label]]:
            raise ValueError(f"gold label {label!r} of span {(i, j)} is not allowed at its position")
        label_decisions.append(((i, j), label_index[label], allowed))
        if j - i < 2:
            continue
        edge = _edge_below(label, i, n, edge)
        ks = np.arange(i + 1, j)
        is_gold = (lo[ks] <= i) & (hi[ks] >= j)
        k_star = _best_split(span_scores, i, j, ks[is_gold])
        if not is_gold.all():
            k_wrong = _best_split(span_scores, i, j, ks[~is_gold])
            split_terms.append(table[[i, k_star, i, k_wrong], [k_star, j, k_wrong, j]])
        stack.append((k_star, j, edge))
        stack.append((i, k_star, edge))

    decided, gold_ids, masks = zip(*label_decisions)
    label_v = label_scores(enc, decided, bound)
    gold_ids = np.array(gold_ids)
    wrong = np.array(masks)
    wrong[np.arange(len(gold_ids)), gold_ids] = False
    terms = np.flatnonzero(wrong.any(axis=1))
    wrong_ids = _best_labels(label_v.value[terms], wrong[terms])

    # A kind of term that is absent stays off the tape: the tensors only it
    # would reach get no gradient, so the optimizer leaves them alone.
    margins: list[Var] = []
    if terms.size:
        gold_score = ad.index(label_v, (terms, gold_ids[terms]))
        margins.append(ad.index(label_v, (terms, wrong_ids)) - gold_score)
    if split_terms:
        # Tape only the distinct rows the terms read, in span-table order.
        rows, where = np.unique(np.ravel(split_terms), return_inverse=True)
        split_v = split_scores(enc, spans[rows], bound)
        gold_l, gold_r, wrong_l, wrong_r = where.reshape(-1, 4).T
        wrong_score = ad.index(split_v, wrong_l) + ad.index(split_v, wrong_r)
        margins.append(wrong_score - (ad.index(split_v, gold_l) + ad.index(split_v, gold_r)))
    if not margins:
        return Var(np.zeros(()))
    return ad.vsum(ad.relu(ad.concat(margins, axis=0) + 1.0))


def parse_topdown(
    enc: Encoding, tokens: Sequence[Token], bound: BoundParams
) -> ConstituentTree:
    """Greedy top-down decoding over precomputed span scores.

    A split's score reads no label, so the whole split tree is fixed
    first; the label head then runs once, on its 2n - 1 spans.  Ties
    resolve to the smallest split point and the smallest label index.
    The full span must pick a "ROOT"-headed label chain; other spans may
    pick the empty label, which emits no node.  Move-marker placements
    that could not be undone are masked out (see ``_label_masks``), so the
    output is always restorable.
    """
    n = enc.n
    if len(tokens) != n:
        raise ValueError(f"{len(tokens)} tokens but encoding has n={n}")
    labels = bound.config.labels
    whole, inner, unmarked = _label_masks(tuple(labels))
    if not whole.any():
        raise ValueError('the label inventory has no "ROOT"-headed entry')
    span_scores = _split_table(enc, bound)[2]

    decided = [(0, n)]
    split_at: dict[Span, int] = {}
    for i, j in decided:  # grows while it is read: breadth first
        if j - i > 1:
            k = _best_split(span_scores, i, j, np.arange(i + 1, j))
            split_at[i, j] = k
            decided += [(i, k), (k, j)]
    label_values = label_scores(enc, decided, bound).value

    edges = {(0, n): n}  # the whole sentence's is never read
    chosen: dict[Span, str] = {}
    for row, (i, j) in enumerate(decided):
        edge = edges[i, j]
        allowed = whole if j - i == n else inner if i > edge else unmarked
        label = labels[_best_labels(label_values[row], allowed)]
        if label:
            chosen[i, j] = label
        if j - i > 1:
            k = split_at[i, j]
            edges[i, k] = edges[k, j] = _edge_below(label, i, n, edge)
    return ConstituentTree.from_spans(tokens, chosen)
