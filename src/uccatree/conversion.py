"""Lossy-bounded conversion between semantic graphs and constituent trees.

The forward direction turns a graph into a tree in three passes:

1. ``strip_remotes`` drops reentrant edges and marks each node that had a
   remote parent by suffixing ``-remote`` onto its primary edge label.
2. ``remove_discontinuities`` repairs non-contiguous yields by moving the
   subtree that fills a gap down into the discontinuous node.  When the
   moved subtree came from the discontinuous node's own parent (distance
   one, which is also the lowest common ancestor) the move is recorded on
   the label as ``-ancestor1`` and can be undone exactly; all other moves
   are lossy and only counted.
3. ``push_labels`` turns edge labels into node labels, names the root
   "ROOT", and collapses unary chains with ``+``.

``tree_to_graph`` inverts pass 3, re-expands ``-ancestor1`` moves and
returns the list of nodes whose incoming remote edges must be recovered
by a classifier.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph_model import (
    ROOT_LABEL,
    ConstituentTree,
    Edge,
    Span,
    Token,
    UccaGraph,
    graph_from_children,
    node_yields,
    preorder_edges,
    span_preorder,
)

# A node label is one or more "+"-joined parts; each part is a base
# category optionally carrying the remote marker and then the move marker.
REMOTE_SUFFIX = "-remote"
ANCESTOR_SUFFIX = "-ancestor1"


class ConversionError(ValueError):
    """Raised when a graph or tree cannot be converted faithfully."""


@dataclass(frozen=True)
class MoveRecord:
    """One structural move performed while removing a discontinuity.

    ``category`` is "ancestor" when the detachment point was the lowest
    common ancestor of the discontinuous node and the gap terminal (then
    ``ancestor_distance`` counts the primary edges from there down to the
    discontinuous node), or "discontinuous" when the upward walk stopped
    early at another discontinuous node.  ``marked`` says whether the moved
    node's label got the ``-ancestor1`` marker, which makes the move lossless.
    """

    moved: int
    from_parent: int
    to_parent: int
    category: str
    ancestor_distance: int | None = None
    marked: bool = False


@dataclass(frozen=True)
class ConversionResult:
    tree: ConstituentTree
    dropped_remote_edges: tuple[tuple[int, int, str], ...]
    lossy_moves: int


def split_label(label: str) -> tuple[str, bool, bool]:
    """Split a label part into (base, has_remote, has_ancestor1)."""
    ancestor = label.endswith(ANCESTOR_SUFFIX)
    if ancestor:
        label = label[: -len(ANCESTOR_SUFFIX)]
    remote = label.endswith(REMOTE_SUFFIX)
    if remote:
        label = label[: -len(REMOTE_SUFFIX)]
    return label, remote, ancestor


def strip_suffixes(label: str) -> str:
    return split_label(label)[0]


# ---------------------------------------------------------------------------
# Pass 1: remote edges


def strip_remotes(graph: UccaGraph) -> tuple[UccaGraph, tuple[tuple[int, int, str], ...]]:
    """Drop remote edges, marking former remote children on their labels.

    Returns the remote-free graph and the dropped (parent, child, label)
    triples in their original order.  A node with several remote parents
    still gets a single ``-remote`` marker.
    """
    dropped = tuple((e.parent, e.child, e.label) for e in graph.remote_edges)
    marked = {e.child for e in graph.remote_edges}
    edges = []
    for e in graph.primary_edges:
        if e.child in marked:
            edges.append(Edge(e.parent, e.child, e.label + REMOTE_SUFFIX))
        else:
            edges.append(Edge(e.parent, e.child, e.label))
    stripped = UccaGraph(
        tokens=graph.tokens,
        root=graph.root,
        nonterminals=graph.nonterminals,
        edges=tuple(edges),
    )
    return stripped, dropped


# ---------------------------------------------------------------------------
# Pass 2: discontinuities


class _MutableTree:
    """Scratch parent/children/label maps for the move procedure."""

    def __init__(self, graph: UccaGraph):
        if graph.remote_edges:
            raise ConversionError("remove_discontinuities expects a remote-free graph")
        self.n = graph.n
        self.root = graph.root
        self.parent = dict(graph.primary_parent)
        self.label = dict(graph.primary_label)
        self.children: dict[int, list[int]] = {v: [] for v in graph.node_ids}
        for e in graph.primary_edges:
            self.children[e.parent].append(e.child)

    def depth(self, v: int) -> int:
        d = 0
        while v != self.root:
            v = self.parent[v]
            d += 1
        return d

    def ancestors(self, v: int) -> list[int]:
        chain = [v]
        while chain[-1] != self.root:
            chain.append(self.parent[chain[-1]])
        return chain

    def move(self, child: int, new_parent: int) -> None:
        old = self.parent[child]
        self.children[old].remove(child)
        self.children[new_parent].append(child)
        self.parent[child] = new_parent


def _discontinuity_pairs(yields: dict[int, tuple[int, ...]]) -> int:
    """Total count of (node, missing terminal inside its interval) pairs."""
    total = 0
    for y in yields.values():
        total += (y[-1] - y[0] + 1) - len(y)
    return total


def remove_discontinuities(
    graph: UccaGraph,
) -> tuple[UccaGraph, tuple[MoveRecord, ...]]:
    """Repair all non-contiguous yields by moving gap subtrees.

    Repeatedly picks the discontinuous node A with the smallest leftmost
    terminal (deepest first on ties), finds the leftmost terminal B inside
    A's interval that is not a descendant of A, and walks up from B to the
    node C whose parent is either lca(A, B) or another discontinuous node.
    C is moved under A.  Only moves with the detachment point equal to the
    lca at distance one from A gain the ``-ancestor1`` label marker; every
    other move is lossy.
    """
    state = _MutableTree(graph)
    moves: list[MoveRecord] = []

    # The gap-pair count is a non-negative integer that must fall every
    # round, so the progress check alone ends the loop.
    previous_pairs: int | None = None
    while True:
        yields = node_yields(state.children, state.root, state.n)
        pairs = _discontinuity_pairs(yields)
        if previous_pairs is not None and pairs >= previous_pairs:
            raise ConversionError(
                f"discontinuity repair failed to make progress "
                f"({previous_pairs} -> {pairs} gap pairs)"
            )
        previous_pairs = pairs
        discontinuous = {
            v for v, y in yields.items() if (y[-1] - y[0] + 1) != len(y)
        }
        if not discontinuous:
            projective = graph_from_children(graph.tokens, state.root, state.children, state.label)
            return projective, tuple(moves)

        a = min(discontinuous, key=lambda v: (yields[v][0], -state.depth(v)))
        ya = set(yields[a])
        b = next(t for t in range(yields[a][0], yields[a][-1] + 1) if t not in ya)

        ancestors_a = set(state.ancestors(a))
        chain_b = state.ancestors(b)
        lca = next(v for v in chain_b if v in ancestors_a)

        c = b
        while True:
            father = state.parent[c]
            if father == lca or (father in discontinuous and father != lca):
                break
            c = father
        detach = state.parent[c]

        if detach == lca:
            distance = state.depth(a) - state.depth(lca)
            category = "ancestor"
        else:
            distance = None
            category = "discontinuous"
        state.move(c, a)
        marked = category == "ancestor" and distance == 1 and c > state.n
        if marked:
            state.label[c] += ANCESTOR_SUFFIX
        moves.append(
            MoveRecord(
                moved=c,
                from_parent=detach,
                to_parent=a,
                category=category,
                ancestor_distance=distance,
                marked=marked,
            )
        )


# ---------------------------------------------------------------------------
# Pass 3: labels onto nodes


def push_labels(tree_graph: UccaGraph) -> ConstituentTree:
    """Turn a projective remote-free graph into a constituent tree.

    Edge labels become node labels, the root is named "ROOT", children
    are ordered by leftmost terminal, and unary chains of nonterminals
    (other than the root itself) collapse into a "+"-joined label.
    """
    if tree_graph.remote_edges:
        raise ConversionError("push_labels expects a remote-free graph")
    for v in tree_graph.nonterminals:
        if tree_graph.is_discontinuous(v):
            raise ConversionError(f"push_labels expects a projective graph; node {v} is discontinuous")

    n = tree_graph.n
    labels = tree_graph.primary_label
    spans = {(0, n): ROOT_LABEL}
    # Preorder puts a parent's label before its child's on a shared span.
    pairs = preorder_edges(tree_graph.primary_children, tree_graph.root, n, tree_graph._yields)
    for _, v in pairs:
        label = labels[v]
        if v <= n and label != "":
            raise ConversionError(
                f"terminal {v} has a labeled edge ({label!r}); terminal edges must be unlabeled"
            )
        if v > n:
            if strip_suffixes(label) == "":
                raise ConversionError(f"nonterminal edge above node {v} has an empty label")
            span = tree_graph.fencepost_span(v)
            spans[span] = f"{spans[span]}+{label}" if span in spans else label
    return ConstituentTree.from_spans(tree_graph.tokens, spans)


def graph_to_tree(graph: UccaGraph) -> ConversionResult:
    """Full forward conversion: graph -> constituent tree."""
    problems = graph.validate()
    if problems:
        raise ConversionError("invalid graph: " + "; ".join(problems))
    stripped, dropped = strip_remotes(graph)
    projective, moves = remove_discontinuities(stripped)
    tree = push_labels(projective)
    lossy = sum(not m.marked for m in moves)
    return ConversionResult(tree=tree, dropped_remote_edges=dropped, lossy_moves=lossy)


# ---------------------------------------------------------------------------
# Tree -> graph


def tree_to_graph(tree: ConstituentTree) -> tuple[UccaGraph, tuple[int, ...]]:
    """Invert label pushing and undo recorded ``-ancestor1`` moves.

    Returns the primary graph together with the ids of nodes whose labels
    carried the ``-remote`` marker, i.e. the nodes for which incoming
    remote edges still need to be recovered.
    """
    problems = tree.validate()
    if problems:
        raise ConversionError("invalid tree: " + "; ".join(problems))

    n = tree.n
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {}
    labels: dict[int, str] = {}
    remote_marked: list[int] = []
    ancestor_marked: list[int] = []
    stack: list[int] = []  # the lowest chain part of each open node
    for kind, value in span_preorder(n, tree.spans()):
        if kind == "leaf":
            labels[value] = ""
            parent[value] = stack[-1]
            children[stack[-1]].append(value)
        elif kind == "close":
            stack.pop()
        else:
            above = stack[-1] if stack else None
            for part in value.split("+"):
                base, remote, ancestor = split_label(part)
                if not base:
                    raise ConversionError(f"empty label part in {value!r}")
                ident = n + 1 + len(children)  # nonterminal ids in preorder
                children[ident] = []
                labels[ident] = base
                if remote:
                    remote_marked.append(ident)
                if ancestor:
                    ancestor_marked.append(ident)
                if above is not None:
                    parent[ident] = above
                    children[above].append(ident)
                above = ident
            stack.append(above)
    root_id = n + 1

    # Undo recorded moves top-down, left-to-right (ids were assigned in
    # preorder, so sorting gives exactly that order).
    for ident in sorted(ancestor_marked):
        origin = parent.get(ident)
        if origin is None or origin == root_id:
            raise ConversionError(
                f"-ancestor1 marker on a child of the root (node {ident}): no grandparent to return to"
            )
        if len(children[origin]) == 1:
            raise ConversionError(
                f"-ancestor1 marker on node {ident} cannot be undone: "
                f"its parent (node {origin}) would be left without children"
            )
        target = parent[origin]
        children[origin].remove(ident)
        children[target].append(ident)
        parent[ident] = target

    graph = graph_from_children(tree.tokens, root_id, children, labels)
    return graph, tuple(remote_marked)


# ---------------------------------------------------------------------------
# Bracketed serialization

_TOKEN_ESCAPES = {
    "(": "-LRB-",
    ")": "-RRB-",
    " ": "-SP-",
    "\t": "-TAB-",
}
_TOKEN_UNESCAPES = {v: k for k, v in _TOKEN_ESCAPES.items()}


def escape_token(form: str) -> str:
    for raw, esc in _TOKEN_ESCAPES.items():
        form = form.replace(raw, esc)
    return form


def unescape_token(form: str) -> str:
    for esc, raw in _TOKEN_UNESCAPES.items():
        form = form.replace(esc, raw)
    return form


def tree_to_sexpr(tree: ConstituentTree) -> str:
    """Serialize a tree to a single-line bracketed expression."""
    pieces: list[str] = []
    for kind, value in span_preorder(tree.n, tree.spans()):
        if kind == "open":
            if "(" in value or ")" in value or " " in value:
                raise ConversionError(f"label {value!r} contains reserved characters")
            pieces.append(f"({value}")
        elif kind == "leaf":
            pieces.append(escape_token(tree.tokens[value - 1].form))
        else:
            pieces[-1] += ")"
    return " ".join(pieces)


# One item of a bracketed expression: "(" with the label right after it,
# ")", or a token.  Spaces and tabs between items match nothing.
_SEXPR_ITEM_RE = re.compile(r"\(([^() \t]*)|\)|[^() \t]+")


def tree_from_sexpr(line: str, lang: str = "") -> ConstituentTree:
    """Parse a bracketed expression produced by :func:`tree_to_sexpr`.

    Token features other than the form are not representable in this
    format and come back empty.  A chain of nodes on one span is read as
    its "+"-joined label, the form :func:`graph_to_tree` writes.
    """
    text = line.strip()
    tokens: list[Token] = []
    spans: dict[Span, str] = {}
    open_nodes: list[tuple[int, str]] = []  # (tokens before it, label) per unclosed node
    for item in _SEXPR_ITEM_RE.finditer(text):
        if tokens and not open_nodes:  # the tree is complete
            raise ConversionError(f"trailing content after tree: {text[item.start():]!r}")
        if item.group(1) is not None:
            if not item.group(1):
                raise ConversionError(f"missing label at position {item.start() + 1} in {text!r}")
            open_nodes.append((len(tokens), item.group(1)))
        elif item.group() == ")":
            if not open_nodes:
                raise ConversionError("unbalanced brackets")
            start, label = open_nodes.pop()
            if start == len(tokens):
                raise ConversionError(f"invalid tree: internal node {label!r} has no children")
            span = (start, len(tokens))
            spans[span] = f"{label}+{spans[span]}" if span in spans else label
        else:
            tokens.append(Token(form=unescape_token(item.group()), lang=lang))
    if open_nodes or not tokens:
        raise ConversionError(
            "unbalanced brackets" if open_nodes else "unexpected end of bracketed expression"
        )
    tree = ConstituentTree.from_spans(tokens, spans)
    problems = tree.validate()
    if problems:
        raise ConversionError("invalid tree: " + "; ".join(problems))
    return tree
