"""Greedy top-down span parsing with a margin loss.

Every span gets a label decision (the chain of node labels sitting
exactly on that span, possibly empty) and, above length one, a split
decision.  N-ary nodes are binarized implicitly: the spans introduced in
between carry the empty label.  The tree root chain always starts with
"ROOT", which is forbidden everywhere else, so the empty label is never
an option for the whole sentence.  Move markers are further restricted
at decode time (no marker under a bare "ROOT" node or at a node's left
edge, none on non-head chain parts) so that every produced tree stays
restorable to a graph; see ``_candidate_ids``.

Training walks the gold tree (teacher forcing) and accumulates hinge
penalties with margin one for labels and splits; a loss of zero implies
the greedy parser reproduces the gold tree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .conversion import split_label
from .graph_model import ROOT_LABEL, ConstituentTree, Token, TreeNode
from .neural_core import BoundParams, Encoding, label_scores, span_reprs, split_scores


@dataclass(frozen=True)
class TraceNode:
    """One labeled span of the gold tree (label "" for bare leaves)."""

    span: tuple[int, int]
    label: str
    kids: tuple["TraceNode", ...]


@dataclass(frozen=True)
class TraceEntry:
    span: tuple[int, int]
    label: str
    splits: frozenset[int]


@dataclass(frozen=True)
class GoldTrace:
    root: TraceNode
    entries: tuple[TraceEntry, ...]


def _trace_node(node: TreeNode) -> TraceNode:
    parts = [node.label or ""]
    # Distinct same-span chain nodes merge into one decision, mirroring
    # the "+" convention of converted trees.
    while len(node.children) == 1 and not node.children[0].is_leaf:
        node = node.children[0]
        parts.append(node.label or "")
    kids = []
    for child in node.children:
        if child.is_leaf:
            kids.append(TraceNode(span=(child.leaf - 1, child.leaf), label="", kids=()))
        else:
            kids.append(_trace_node(child))
    span = (node.leaf_positions[0] - 1, node.leaf_positions[-1])
    return TraceNode(span=span, label="+".join(parts), kids=tuple(kids))


def gold_trace(tree: ConstituentTree) -> GoldTrace:
    """Decompose a tree into per-span gold labels and gold splits."""
    problems = tree.validate()
    if problems:
        raise ValueError("invalid tree: " + "; ".join(problems))
    root = _trace_node(tree.root)
    entries: list[TraceEntry] = []

    def walk(tn: TraceNode) -> None:
        splits = frozenset(kid.span[1] for kid in tn.kids[:-1])
        entries.append(TraceEntry(span=tn.span, label=tn.label, splits=splits))
        for kid in tn.kids:
            if kid.span != tn.span:
                walk(kid)

    walk(root)
    return GoldTrace(root=root, entries=tuple(entries))


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


def _candidate_table(labels: Sequence[str]) -> dict[tuple[str, bool], list[int]]:
    """``_candidate_ids`` of every (mode, at_left_edge) position of one
    label inventory, so a call filters the inventory six times, not once
    per decision."""
    return {
        (mode, at_left): _candidate_ids(labels, mode, at_left)
        for mode in (TOP, UNDER_ROOT, INNER)
        for at_left in (False, True)
    }


def _child_mode(mode: str, label: str) -> str:
    """Position of the spans emitted below a label decision."""
    if not label:  # empty label: still binarizing the same parent node
        return mode
    return UNDER_ROOT if mode == TOP and label == ROOT_LABEL else INNER


def _all_spans(n: int) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    spans = [(i, j) for i in range(n) for j in range(i + 1, n + 1)]
    return spans, {span: k for k, span in enumerate(spans)}


def _argmax_first(values: Sequence[float], keys: Sequence[int]) -> int:
    """Key with the highest value; earliest key wins ties."""
    best_key = keys[0]
    best = values[0]
    for key, val in zip(keys[1:], values[1:]):
        if val > best:
            best, best_key = val, key
    return best_key


def loss_topdown(enc: Encoding, gold: GoldTrace, bound: BoundParams) -> Var:
    """Margin-one hinge loss along the gold derivation.

    The descent picks the best-scoring gold-consistent split at every
    n-ary decision; terms with no incorrect alternative contribute zero.
    """
    n = enc.n
    if gold.root.span != (0, n):
        raise ValueError(f"gold trace covers {gold.root.span}, encoder has n={n}")
    spans, span_index = _all_spans(n)
    reprs = span_reprs(enc, spans)
    split_v = split_scores(reprs, bound)
    split_values = split_v.value

    def split_value(i: int, k: int, j: int) -> float:
        return float(split_values[span_index[(i, k)]] + split_values[span_index[(k, j)]])

    # (span, gold label, mode, span starts at the parent node's left edge)
    label_decisions: list[tuple[tuple[int, int], str, str, bool]] = []
    # Span rows of each split term: gold left, gold right, wrong left, wrong right.
    split_terms: list[tuple[int, ...]] = []

    def binarize(
        i: int, j: int, kids: tuple[TraceNode, ...], mode: str, node_left: int
    ) -> None:
        gold_ks = [kid.span[1] for kid in kids[:-1]]
        wrong_ks = [k for k in range(i + 1, j) if k not in set(gold_ks)]
        gold_vals = [split_value(i, k, j) for k in gold_ks]
        k_star = _argmax_first(gold_vals, gold_ks)
        if wrong_ks:
            wrong_vals = [split_value(i, k, j) for k in wrong_ks]
            k_wrong = _argmax_first(wrong_vals, wrong_ks)
            halves = ((i, k_star), (k_star, j), (i, k_wrong), (k_wrong, j))
            split_terms.append(tuple(span_index[half] for half in halves))
        left = tuple(kid for kid in kids if kid.span[1] <= k_star)
        right = tuple(kid for kid in kids if kid.span[1] > k_star)
        for side, (a, b) in ((left, (i, k_star)), (right, (k_star, j))):
            if len(side) == 1:
                handle(side[0], mode, a == node_left)
            else:
                label_decisions.append(((a, b), "", mode, a == node_left))
                binarize(a, b, side, mode, node_left)

    def handle(tn: TraceNode, mode: str, at_left_edge: bool) -> None:
        label_decisions.append((tn.span, tn.label, mode, at_left_edge))
        if len(tn.kids) >= 2:
            binarize(
                tn.span[0], tn.span[1], tn.kids, _child_mode(mode, tn.label), tn.span[0]
            )

    handle(gold.root, TOP, False)

    candidate_ids = _candidate_table(bound.config.labels)
    label_rows = ad.index(reprs, [span_index[span] for span, _, _, _ in label_decisions])
    label_v = label_scores(label_rows, bound)
    label_values = label_v.value

    label_terms: list[tuple[int, int, int]] = []  # (row of label_v, gold id, wrong id)
    for idx, (span, gold_label, mode, at_left_edge) in enumerate(label_decisions):
        candidates = candidate_ids[(mode, at_left_edge)]
        gold_id = bound.params.labels.lookup(gold_label)
        if gold_label not in bound.params.labels.index or gold_id not in candidates:
            raise ValueError(f"gold label {gold_label!r} missing from the label inventory")
        wrong = [c for c in candidates if c != gold_id]
        if not wrong:
            continue
        wrong_vals = [float(label_values[idx, c]) for c in wrong]
        label_terms.append((idx, gold_id, _argmax_first(wrong_vals, wrong)))

    # A kind of term that is absent stays off the tape: the tensors only it
    # would reach get no gradient, so the optimizer leaves them alone.
    margins: list[Var] = []
    if label_terms:
        rows, gold_ids, wrong_ids = (list(col) for col in zip(*label_terms))
        margins.append(ad.index(label_v, (rows, wrong_ids)) - ad.index(label_v, (rows, gold_ids)))
    if split_terms:
        gold_l, gold_r, wrong_l, wrong_r = (list(col) for col in zip(*split_terms))
        wrong_score = ad.index(split_v, wrong_l) + ad.index(split_v, wrong_r)
        margins.append(wrong_score - (ad.index(split_v, gold_l) + ad.index(split_v, gold_r)))
    if not margins:
        return Var(np.zeros(()))
    return ad.vsum(ad.relu(ad.concat(margins, axis=0) + 1.0))


def parse_topdown(
    enc: Encoding, tokens: Sequence[Token], bound: BoundParams
) -> ConstituentTree:
    """Greedy top-down decoding over precomputed span scores.

    Ties resolve to the smallest label index and the smallest split
    point.  The full span must pick a "ROOT"-headed label chain; other
    spans may pick the empty label, which emits no node.  Move-marker
    placements that could not be undone are excluded from the candidate
    sets, so the output is always restorable.
    """
    n = enc.n
    if len(tokens) != n:
        raise ValueError(f"{len(tokens)} tokens but encoding has n={n}")
    spans, span_index = _all_spans(n)
    reprs = span_reprs(enc, spans)
    label_values = label_scores(reprs, bound).value
    split_values = split_scores(reprs, bound).value

    labels = bound.config.labels
    candidate_ids = _candidate_table(labels)
    if not candidate_ids[(TOP, False)]:
        raise ValueError('the label inventory has no "ROOT"-headed entry')

    def build(i: int, j: int, mode: str, node_left: int) -> list[TreeNode]:
        candidates = candidate_ids[(mode, i == node_left)]
        rows = label_values[span_index[(i, j)]]
        label_id = _argmax_first([float(rows[c]) for c in candidates], candidates)
        label = labels[label_id]
        if j - i == 1:
            children: list[TreeNode] = [TreeNode(leaf=j)]
        else:
            kid_mode = _child_mode(mode, label)
            kid_left = i if label else node_left
            ks = list(range(i + 1, j))
            vals = [
                float(split_values[span_index[(i, k)]] + split_values[span_index[(k, j)]])
                for k in ks
            ]
            split = _argmax_first(vals, ks)
            children = build(i, split, kid_mode, kid_left) + build(split, j, kid_mode, kid_left)
        parts = label.split("+") if label else []
        for part in reversed(parts):
            children = [TreeNode(label=part, children=tuple(children))]
        return children

    forest = build(0, n, TOP, -1)
    assert len(forest) == 1 and forest[0].label == ROOT_LABEL
    return ConstituentTree(tokens=tuple(tokens), root=forest[0])
