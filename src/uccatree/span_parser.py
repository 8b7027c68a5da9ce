"""Greedy top-down span parsing with a margin loss.

A tree is its map of labeled spans (``ConstituentTree.spans``): every
span gets a label decision, the "+"-joined labels of the nodes on it or
else the empty label, and above length one a split decision.  N-ary
nodes are binarized implicitly: the spans in between carry the empty
label.  The decoder's spans become its tree through ``from_spans``.  The
root chain always starts with "ROOT", which is forbidden everywhere
else, so the empty label is never an option for the whole sentence.
Move markers are further restricted at decode time (no marker under a
bare "ROOT" node or at a node's left edge, none on non-head chain parts)
so that every produced tree stays restorable to a graph; see
``_candidate_ids``.

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
from .conversion import split_label
from .graph_model import ROOT_LABEL, ConstituentTree, Span, Token
from .neural_core import BoundParams, Encoding, label_scores, split_scores


def gold_trace(tree: ConstituentTree) -> dict[Span, str]:
    """The labeled spans of a valid tree; every other span's gold label is ""."""
    problems = tree.validate()
    if problems:
        raise ValueError("invalid tree: " + "; ".join(problems))
    return tree.spans()


def _label_head(label: str) -> str:
    return label.split("+", 1)[0]


# Label-decision positions.  TOP is the whole sentence; UNDER_ROOT marks
# spans emitted as direct children of a bare "ROOT" node, where an
# ancestor-marked head would be unrestorable (the moved node would have
# no grandparent to return to); INNER is everything else.  Additionally,
# a move marker on a non-head chain part is never decodable (undoing it
# would leave the preceding chain part childless), and an ancestor-marked
# head is forbidden at a node's left edge so that every emitted node
# keeps at least one child that stays put when markers are undone.
# Graph-derived gold trees satisfy all of this already: a moved subtree
# always starts strictly inside its new parent's span and always has
# siblings, so it is never a leftmost child and never part of a chain.
TOP, UNDER_ROOT, INNER = "top", "under_root", "inner"


def _marked_head(label: str) -> bool:
    return split_label(_label_head(label))[2]


def _marked_tail(label: str) -> bool:
    return any(split_label(part)[2] for part in label.split("+")[1:])


def _candidate_ids(labels: Sequence[str], mode: str, at_left_edge: bool) -> list[int]:
    ids = [i for i, lab in enumerate(labels) if not _marked_tail(lab)]
    if mode == TOP:
        return [i for i in ids if _label_head(labels[i]) == ROOT_LABEL]
    ids = [i for i in ids if _label_head(labels[i]) != ROOT_LABEL]
    if mode == UNDER_ROOT or at_left_edge:
        ids = [i for i in ids if not _marked_head(labels[i])]
    return ids


@lru_cache(maxsize=8)
def _candidate_table(labels: tuple[str, ...]) -> dict[tuple[str, bool], np.ndarray]:
    """``_candidate_ids`` of every (mode, at_left_edge) position as a
    read-only boolean mask over the label inventory, built once per
    inventory, not once per decision or per call."""
    table = {
        (mode, at_left): np.isin(np.arange(len(labels)), _candidate_ids(labels, mode, at_left))
        for mode in (TOP, UNDER_ROOT, INNER)
        for at_left in (False, True)
    }
    for mask in table.values():
        mask.flags.writeable = False
    return table


def _child_position(label: str, i: int, mode: str, node_left: int) -> tuple[str, int]:
    """Mode and node left edge below a label decision on a span starting at i."""
    if not label:  # empty label: still binarizing the same parent node
        return mode, node_left
    return (UNDER_ROOT if mode == TOP and label == ROOT_LABEL else INNER), i


def _span_table(n: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Every span of an n-token sentence, and the ``(n + 1, n + 1)`` matrix
    whose cell (i, j) holds the row of span (i, j) in that list (-1 if i >= j)."""
    spans = [(i, j) for i in range(n) for j in range(i + 1, n + 1)]
    table = np.full((n + 1, n + 1), -1)
    table[tuple(np.array(spans).T)] = np.arange(len(spans))
    return spans, table


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
    """
    n = enc.n
    if next(iter(gold), None) != (0, n):
        raise ValueError(f"gold spans start with {next(iter(gold), None)}, encoder has n={n}")
    spans, table = _span_table(n)
    split_v = split_scores(enc, spans, bound)
    span_scores = split_v.value[table]
    candidates = _candidate_table(tuple(bound.config.labels))
    # Bounds of the smallest gold span strictly containing each fencepost:
    # k is a gold split point of a decided span (i, j) when that gold span
    # contains (i, j), i.e. k lies between two children of (i, j)'s node.
    lo, hi = np.zeros(n + 1, dtype=np.intp), np.zeros(n + 1, dtype=np.intp)
    for i, j in gold:  # preorder: a smaller span overwrites a larger one
        lo[i + 1 : j], hi[i + 1 : j] = i, j

    label_index = bound.params.labels.index
    # (span, gold label id, candidate mask) of every label decision.
    label_decisions: list[tuple[Span, int, np.ndarray]] = []
    # Span rows of each split term: gold left, gold right, wrong left, wrong right.
    split_terms: list[np.ndarray] = []

    stack: list[tuple[int, int, str, int]] = [(0, n, TOP, -1)]  # (i, j, mode, node left edge)
    while stack:
        i, j, mode, node_left = stack.pop()
        label = gold.get((i, j), "")
        allowed = candidates[(mode, i == node_left)]
        if label not in label_index:
            raise ValueError(f"gold label {label!r} missing from the label inventory")
        if not allowed[label_index[label]]:
            raise ValueError(f"gold label {label!r} of span {(i, j)} is not allowed at its position")
        label_decisions.append(((i, j), label_index[label], allowed))
        if j - i < 2:
            continue
        mode, node_left = _child_position(label, i, mode, node_left)
        ks = np.arange(i + 1, j)
        is_gold = (lo[ks] <= i) & (hi[ks] >= j)
        k_star = _best_split(span_scores, i, j, ks[is_gold])
        if not is_gold.all():
            k_wrong = _best_split(span_scores, i, j, ks[~is_gold])
            split_terms.append(table[[i, k_star, i, k_wrong], [k_star, j, k_wrong, j]])
        stack.append((k_star, j, mode, node_left))
        stack.append((i, k_star, mode, node_left))

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
        gold_l, gold_r, wrong_l, wrong_r = np.array(split_terms).T
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
    that could not be undone are excluded from the candidate sets, so the
    output is always restorable.
    """
    n = enc.n
    if len(tokens) != n:
        raise ValueError(f"{len(tokens)} tokens but encoding has n={n}")
    labels = bound.config.labels
    candidates = _candidate_table(tuple(labels))
    if not candidates[(TOP, False)].any():
        raise ValueError('the label inventory has no "ROOT"-headed entry')
    spans, table = _span_table(n)
    span_scores = split_scores(enc, spans, bound).value[table]

    decided = [(0, n)]
    split_at: dict[Span, int] = {}
    for i, j in decided:  # grows while it is read: breadth first
        if j - i > 1:
            k = _best_split(span_scores, i, j, np.arange(i + 1, j))
            split_at[i, j] = k
            decided += [(i, k), (k, j)]
    label_values = label_scores(enc, decided, bound).value

    position = {(0, n): (TOP, -1)}  # (mode, node left edge) of each decided span
    chosen: dict[Span, str] = {}
    for row, (i, j) in enumerate(decided):
        mode, node_left = position[i, j]
        label = labels[_best_labels(label_values[row], candidates[(mode, i == node_left)])]
        if label:
            chosen[i, j] = label
        if j - i > 1:
            k = split_at[i, j]
            position[i, k] = position[k, j] = _child_position(label, i, mode, node_left)
    return ConstituentTree.from_spans(tokens, chosen)
