"""Lossy-bounded conversion between semantic graphs and constituent trees.

The forward direction, :func:`graph_to_tree`, turns a graph into a tree:

1. ``strip_remotes`` drops reentrant edges and marks each node that had a
   remote parent by suffixing ``-remote`` onto its primary edge label.
2. The discontinuity repair (``remove_discontinuities`` on its own)
   makes every yield contiguous by moving the subtree that fills a gap
   down into the discontinuous node.  When the moved subtree came from the
   discontinuous node's own parent (distance one, which is also the lowest
   common ancestor) the move is recorded on the label as ``-ancestor1`` and
   can be undone exactly; all other moves are lossy and only counted.  The
   repair moves nodes of the graph's :class:`~uccatree.graph_model.PrimaryTree`,
   whose yields then give the tree's labeled spans directly: edge labels
   become node labels, the root is named "ROOT", and a unary chain of
   nonterminals on one span becomes one "+"-joined label.

``tree_to_graph`` builds a ``PrimaryTree`` as it reads the spans, expands
the chains, moves each ``-ancestor1`` node back to its grandparent and
returns the list of nodes whose incoming remote edges must be recovered
by a classifier.  The markers, the label grammar that keeps graph labels
clear of them and the rule that keeps every marker undoable are defined
in :mod:`uccatree.graph_model`; both directions start from input that its
``validate`` methods accept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .graph_model import (
    ANCESTOR_SUFFIX,
    REMOTE_SUFFIX,
    ROOT_LABEL,
    ConstituentTree,
    PrimaryTree,
    Span,
    Token,
    UccaGraph,
    checked,
    span_preorder,
    split_label,
)


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


# ---------------------------------------------------------------------------
# Remote edges


def strip_remotes(graph: UccaGraph) -> tuple[UccaGraph, tuple[tuple[int, int, str], ...]]:
    """Drop remote edges, marking former remote children on their labels.

    Returns the remote-free graph and the dropped (parent, child, label)
    triples in their original order.  A node with several remote parents
    still gets a single ``-remote`` marker.
    """
    dropped = tuple((e.parent, e.child, e.label) for e in graph.remote_edges)
    marked = {e.child for e in graph.remote_edges}
    edges = tuple(
        replace(e, label=e.label + REMOTE_SUFFIX) if e.child in marked else e for e in graph.primary_edges
    )
    return replace(graph, edges=edges), dropped


# ---------------------------------------------------------------------------
# Discontinuities and labels onto nodes


def _discontinuity_pairs(yields: dict[int, tuple[int, ...]]) -> int:
    """Total count of (node, missing terminal inside its interval) pairs."""
    total = 0
    for y in yields.values():
        total += (y[-1] - y[0] + 1) - len(y)
    return total


def _repair(graph: UccaGraph) -> tuple[PrimaryTree, dict, tuple[MoveRecord, ...]]:
    """The discontinuity repair of :func:`remove_discontinuities`: the
    repaired tree, its (now contiguous) yields and the moves made."""
    if graph.remote_edges:
        raise ConversionError("remove_discontinuities expects a remote-free graph")
    tree = PrimaryTree.of(graph)
    moves: list[MoveRecord] = []

    # The gap-pair count is a non-negative integer that must fall every
    # round, so the progress check alone ends the loop.
    previous_pairs: int | None = None
    while True:
        yields = tree.yields()
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
            return tree, yields, tuple(moves)

        a = min(discontinuous, key=lambda v: (yields[v][0], -len(tree.ancestors(v))))
        ya = set(yields[a])
        b = next(t for t in range(yields[a][0], yields[a][-1] + 1) if t not in ya)

        chain_a = tree.ancestors(a)
        ancestors_a = set(chain_a)
        lca = next(v for v in tree.ancestors(b) if v in ancestors_a)

        c = b
        while True:
            father = tree.parent[c]
            if father == lca or (father in discontinuous and father != lca):
                break
            c = father
        detach = tree.parent[c]

        if detach == lca:
            distance = chain_a.index(lca)
            category = "ancestor"
        else:
            distance = None
            category = "discontinuous"
        tree.move(c, a)
        marked = category == "ancestor" and distance == 1 and c > tree.n
        if marked:
            tree.label[c] += ANCESTOR_SUFFIX
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


def remove_discontinuities(graph: UccaGraph) -> tuple[UccaGraph, tuple[MoveRecord, ...]]:
    """Repair all non-contiguous yields by moving gap subtrees.

    Repeatedly picks the discontinuous node A with the smallest leftmost
    terminal (deepest first on ties), finds the leftmost terminal B inside
    A's interval that is not a descendant of A, and walks up from B to the
    node C whose parent is either lca(A, B) or another discontinuous node.
    C is moved under A.  Only moves with the detachment point equal to the
    lca at distance one from A gain the ``-ancestor1`` label marker; every
    other move is lossy.  Returns the projective graph and the moves.
    """
    primary, _, moves = _repair(graph)
    return primary.graph(graph.tokens), moves


def graph_to_tree(graph: UccaGraph) -> ConversionResult:
    """Full forward conversion: graph -> constituent tree."""
    stripped, dropped = strip_remotes(checked(graph, "graph", ConversionError))
    primary, yields, moves = _repair(stripped)
    n = graph.n
    spans = {(0, n): ROOT_LABEL}
    # Preorder puts a parent's label before its child's on a shared span.
    for _, v in primary.preorder(yields):
        if v > n:
            span = (yields[v][0] - 1, yields[v][-1])
            spans[span] = f"{spans[span]}+{primary.label[v]}" if span in spans else primary.label[v]
    tree = ConstituentTree.from_spans(graph.tokens, spans)
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
    n = checked(tree, "tree", ConversionError).n
    primary = PrimaryTree(n, n + 1)
    remote_marked: list[int] = []
    ancestor_marked: list[int] = []
    stack: list[int] = []  # the lowest chain part of each open node
    for kind, value in span_preorder(n, tree.spans()):
        if kind == "leaf":
            primary.attach(stack[-1], value, "")
        elif kind == "close":
            stack.pop()
        elif not stack:  # the root, a part of its own and opened first
            stack.append(primary.root)
        else:
            above = stack[-1]
            for part in value.split("+"):
                base, remote, ancestor = split_label(part)
                ident = n + 1 + len(primary.children)  # nonterminal ids in preorder
                primary.attach(above, ident, base)
                if remote:
                    remote_marked.append(ident)
                if ancestor:
                    ancestor_marked.append(ident)
                above = ident
            stack.append(above)

    # Undo recorded moves top-down, left-to-right (ids were assigned in
    # preorder, so sorting gives exactly that order); in a valid tree each
    # has a grandparent and leaves its parent a child.
    for ident in sorted(ancestor_marked):
        primary.move(ident, primary.parent[primary.parent[ident]])
    return primary.graph(tree.tokens), tuple(remote_marked)


# ---------------------------------------------------------------------------
# Bracketed serialization

# Token forms travel with "(", ")", space and tab escaped, and a "-" where the
# text after it would read back as an escape: a code name, then "-" or an
# escaped character.
_TOKEN_ESCAPES = {"(": "-LRB-", ")": "-RRB-", " ": "-SP-", "\t": "-TAB-", "-": "-HY-"}
_TOKEN_UNESCAPES = {v: k for k, v in _TOKEN_ESCAPES.items()}
_ESCAPED_RE = re.compile(r"[() \t]|-(?=(?:LRB|RRB|SP|TAB|HY)[-() \t])")
_ESCAPE_RE = re.compile(r"-(?:LRB|RRB|SP|TAB|HY)-")


def escape_token(form: str) -> str:
    return _ESCAPED_RE.sub(lambda m: _TOKEN_ESCAPES[m.group()], form)


def unescape_token(form: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _TOKEN_UNESCAPES[m.group()], form)


def tree_to_sexpr(tree: ConstituentTree) -> str:
    """Serialize a valid tree to a single-line bracketed expression; the
    label grammar keeps labels clear of its brackets and white space."""
    pieces: list[str] = []
    for kind, value in span_preorder(tree.n, tree.spans()):
        if kind == "open":
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
    return checked(ConstituentTree.from_spans(tokens, spans), "tree", ConversionError)
