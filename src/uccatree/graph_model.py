"""Data model for UCCA-style semantic graphs and constituent trees.

Conventions used throughout the package:

* Token positions are 1-based.  A sentence with n tokens has fencepost
  positions 0..n; the span (i, j) covers tokens i+1..j.
* Terminal nodes share their id with their token position (1..n).
  Nonterminal ids are integers greater than n.
* Every node except the root has exactly one *primary* parent; primary
  edges form a tree.  *Remote* edges add reentrancies on top of that
  tree and the full edge set must stay acyclic.
* Terminal-attaching edges carry the empty label ""; terminals carry no
  label of their own.  Every other label follows the label grammar below,
  which keeps graph labels clear of the syntax the tree conversion writes.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import secrets
import shutil
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

NodeId = int
Checked = TypeVar("Checked", "UccaGraph", "ConstituentTree")


@dataclass(frozen=True)
class Token:
    """One token of the underlying sentence with its standard features."""

    form: str
    pos: str = ""
    ner: str = ""
    dep: str = ""
    lang: str = ""


# Graph and tree records share their token part: a "tokens" list of
# feature objects and one "lang" for the whole sentence.


def tokens_to_json(tokens: Sequence[Token]) -> dict:
    return {
        "tokens": [{"form": t.form, "pos": t.pos, "ner": t.ner, "dep": t.dep} for t in tokens],
        "lang": tokens[0].lang if tokens else "",
    }


def tokens_from_json(data: dict) -> tuple[Token, ...]:
    lang = data.get("lang", "")
    return tuple(
        Token(
            form=t["form"],
            pos=t.get("pos", ""),
            ner=t.get("ner", ""),
            dep=t.get("dep", ""),
            lang=lang,
        )
        for t in data["tokens"]
    )


def json_typed(value, kind: type, what: str):
    """``value`` when JSON read it as ``kind``: ``int`` takes no boolean or
    float, ``bool`` nothing but ``true`` and ``false``."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Label grammar: graph labels stay clear of the syntax trees reserve.  A tree
# label is one or more "+"-joined parts (a chain of nodes on one span), each a
# graph label followed by the remote marker and then the move marker, both
# optional.  "ROOT" names every tree's root, "NOT-PARENT" the remote
# classifier's negative class.

ROOT_LABEL = "ROOT"
NOT_PARENT = "NOT-PARENT"
REMOTE_SUFFIX = "-remote"
ANCESTOR_SUFFIX = "-ancestor1"

# No label holds the bracketed format's delimiters, the chain joiner or an
# unpaired surrogate (no UTF-8 file can); no form a line break or surrogate.
_LABEL_BREAKERS = re.compile(r"[\s()+\ud800-\udfff]")
_FORM_BREAKERS = re.compile(r"[\n\r\ud800-\udfff]")


def split_label(part: str) -> tuple[str, bool, bool]:
    """Split a tree label part into (graph label, has_remote, has_ancestor1)."""
    ancestor = part.endswith(ANCESTOR_SUFFIX)
    if ancestor:
        part = part[: -len(ANCESTOR_SUFFIX)]
    remote = part.endswith(REMOTE_SUFFIX)
    if remote:
        part = part[: -len(REMOTE_SUFFIX)]
    return part, remote, ancestor


def label_problem(label: object) -> str | None:
    """Why ``label`` cannot label a graph edge that ends at a nonterminal,
    or None if it can."""
    if not isinstance(label, str):
        return f"label {label!r} is not a string"
    if not label:
        return "empty label"
    if _LABEL_BREAKERS.search(label):
        return f"label {label!r} holds white space, '(', ')', '+' or an unpaired surrogate"
    if label.endswith((REMOTE_SUFFIX, ANCESTOR_SUFFIX)):
        return f"label {label!r} ends in a conversion marker"
    if label in (ROOT_LABEL, NOT_PARENT):
        return f"label {label!r} is reserved"
    return None


def tree_label_problem(label: object) -> str | None:
    """Why ``label`` cannot label a tree node below the root, or None: each
    "+"-joined part must be a graph label with optional markers, and only
    the head part may carry the move marker."""
    if not isinstance(label, str):
        return f"label {label!r} is not a string"
    parts = label.split("+")
    for part in parts:
        base = split_label(part)[0]
        problem = label_problem(base)
        if problem:
            return problem if base == label else f"in {label!r}, {problem}"
    if any(split_label(part)[2] for part in parts[1:]):
        return f"in {label!r}, a marked part after the head leaves the one before it without children"
    return None


def _head_moved(label: object) -> bool:
    """Whether ``label`` is a tree label whose head part carries the move marker."""
    return isinstance(label, str) and split_label(label.partition("+")[0])[2]


def token_problems(tokens: Sequence[Token]) -> list[str]:
    """Why a token sequence cannot be a sentence: no tokens, a feature that
    is not a string, or a form that is empty or breaks a line."""
    if not tokens:
        return ["sentence has no tokens"]
    problems = []
    for i, t in enumerate(tokens, start=1):
        if not all(isinstance(value, str) for value in vars(t).values()):
            problems.append(f"token {i} has a feature that is not a string")
        elif not t.form:
            problems.append(f"token {i} has an empty form")
        elif _FORM_BREAKERS.search(t.form):
            problems.append(f"token {i} has a line break or an unpaired surrogate in its form")
    return problems


@dataclass(frozen=True)
class Edge:
    """A labeled parent->child edge, either primary (tree) or remote."""

    parent: NodeId
    child: NodeId
    label: str
    remote: bool = False


@dataclass(frozen=True)
class EdgeRecord:
    """Yield-based identity of a labeled edge, used for scoring.

    Two edges count as the same prediction when the terminal yield of
    their child, their label and their kind all agree.
    """

    positions: frozenset[int]
    label: str
    remote: bool = False


@dataclass(frozen=True)
class UccaGraph:
    """An immutable semantic graph over a token sequence.

    Derived accessors (parents, yields, depths, ...) assume the graph is
    valid; call :meth:`validate` on untrusted input first.
    """

    tokens: tuple[Token, ...]
    root: NodeId
    nonterminals: frozenset[NodeId]
    edges: tuple[Edge, ...]

    # -- basic structure ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.tokens)

    @property
    def terminals(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def primary_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if not e.remote)

    @cached_property
    def remote_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.remote)

    @cached_property
    def primary(self) -> PrimaryTree:
        """The tree of the primary edges, built once; do not change it."""
        return PrimaryTree.of(self)

    @property
    def primary_label(self) -> dict[NodeId, str]:
        """Label of the unique primary edge above each non-root node."""
        return self.primary.label

    # -- yields ---------------------------------------------------------

    @cached_property
    def _yields(self) -> dict[NodeId, tuple[int, ...]]:
        return self.primary.yields()

    def yield_of(self, node: NodeId) -> tuple[int, ...]:
        """Sorted token positions reachable from ``node`` via primary edges."""
        if node not in self._yields:
            raise ValueError(f"unknown node id {node}")
        return self._yields[node]

    def is_discontinuous(self, node: NodeId) -> bool:
        """True when the node's yield does not form a contiguous block."""
        if node in self.terminals:
            raise ValueError(f"node {node} is a terminal")
        y = self.yield_of(node)
        return bool(y) and (y[-1] - y[0] + 1) != len(y)

    def fencepost_span(self, node: NodeId) -> tuple[int, int]:
        """(min position - 1, max position) of the node's yield."""
        y = self.yield_of(node)
        return (y[0] - 1, y[-1])

    # -- validation -----------------------------------------------------

    def validate(self) -> list[str]:
        """Check the structural invariants, the label grammar and the token
        rules; return human-readable violations.

        An empty list means the graph is well-formed.  This method never
        touches the cached accessors, so it is safe on malformed input.
        """
        problems = token_problems(self.tokens)
        n = self.n
        terminals = set(range(1, n + 1))
        if self.root not in self.nonterminals:
            problems.append(f"root {self.root} is not a nonterminal")
        for v in self.nonterminals:
            if v <= n:
                problems.append(f"nonterminal id {v} collides with terminal range 1..{n}")
        nodes = terminals | set(self.nonterminals)

        for e in self.edges:
            if e.parent not in nodes:
                problems.append(f"edge references unknown parent {e.parent}")
            if e.child not in nodes:
                problems.append(f"edge references unknown child {e.child}")
            if e.parent in terminals:
                problems.append(f"terminal {e.parent} has a child ({e.child})")
            if e.child in terminals:
                if e.label != "":
                    problems.append(f"edge {e.parent}->{e.child} to a terminal has label {e.label!r}")
            else:
                problem = label_problem(e.label)
                if problem:
                    problems.append(f"edge {e.parent}->{e.child}: {problem}")

        seen_pairs = Counter((e.parent, e.child) for e in self.edges)
        for (p, c), count in seen_pairs.items():
            if count > 1:
                problems.append(f"duplicate edge {p}->{c}")

        primary_parents: dict[NodeId, list[NodeId]] = {}
        for e in self.edges:
            if not e.remote:
                primary_parents.setdefault(e.child, []).append(e.parent)
        for v in sorted(nodes):
            parents = primary_parents.get(v, [])
            if v == self.root:
                if parents:
                    problems.append(f"root {v} has a primary parent {parents[0]}")
            elif len(parents) != 1:
                problems.append(f"node {v} has {len(parents)} primary parents, expected 1")

        primary_pairs = {(e.parent, e.child) for e in self.edges if not e.remote}
        for e in self.edges:
            if e.remote and e.child in terminals:
                problems.append(f"remote edge {e.parent}->{e.child} points at a terminal")
            if e.remote and (e.parent, e.child) in primary_pairs:
                problems.append(f"remote edge {e.parent}->{e.child} duplicates a primary edge")

        if problems:
            return problems

        # Every node but the root has one primary parent, so the primary
        # edges form a tree below the root exactly when the full edge set
        # holds no cycle, which is when Kahn's algorithm pops every node.
        childless = self.nonterminals - {p for p, _ in primary_pairs}
        problems = [f"nonterminal {v} has no children" for v in sorted(childless)]
        out: dict[NodeId, list[NodeId]] = {v: [] for v in nodes}
        indegree = dict.fromkeys(nodes, 0)
        for e in self.edges:
            out[e.parent].append(e.child)
            indegree[e.child] += 1
        ready = [v for v, d in indegree.items() if d == 0]
        popped = 0
        while ready:
            popped += 1
            for w in out[ready.pop()]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    ready.append(w)
        if popped < len(nodes):
            problems.append("full edge set contains a cycle")
        return problems

    # -- canonical identity ---------------------------------------------

    def canonical_ids(self) -> dict[NodeId, NodeId]:
        """Renumber nonterminals by preorder over the primary tree.

        Children are visited in order of their leftmost terminal, so two
        graphs that differ only in nonterminal numbering map to the same
        canonical ids.  Terminals map to themselves.
        """
        ids = itertools.count(self.n + 1)
        mapping: dict[NodeId, NodeId] = {t: t for t in self.terminals}
        mapping[self.root] = next(ids)
        for _, child in self.primary.preorder(self._yields):
            if child > self.n:
                mapping[child] = next(ids)
        return mapping

    def canonical(self) -> UccaGraph:
        """Equivalent graph with canonical ids and sorted edges."""
        mapping = self.canonical_ids()
        edges = tuple(
            sorted(
                (
                    Edge(mapping[e.parent], mapping[e.child], e.label, e.remote)
                    for e in self.edges
                ),
                key=lambda e: (e.parent, e.child, e.remote, e.label),
            )
        )
        return UccaGraph(
            tokens=self.tokens,
            root=mapping[self.root],
            nonterminals=frozenset(mapping[v] for v in self.nonterminals),
            edges=edges,
        )

    def same_structure(self, other: UccaGraph) -> bool:
        """Edge-set equality modulo nonterminal numbering."""
        a, b = self.canonical(), other.canonical()
        return a.tokens == b.tokens and a.root == b.root and a.edges == b.edges

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            **tokens_to_json(self.tokens),
            "nodes": sorted(self.nonterminals),
            "root": self.root,
            "edges": [
                {"parent": e.parent, "child": e.child, "label": e.label, "remote": e.remote}
                for e in self.edges
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> UccaGraph:
        edges = tuple(
            Edge(
                parent=json_typed(e["parent"], int, "edge parent"),
                child=json_typed(e["child"], int, "edge child"),
                label=e.get("label", ""),
                remote=json_typed(e.get("remote", False), bool, "edge remote flag"),
            )
            for e in data["edges"]
        )
        return cls(
            tokens=tokens_from_json(data),
            root=json_typed(data["root"], int, "root"),
            nonterminals=frozenset(json_typed(v, int, "node id") for v in data["nodes"]),
            edges=edges,
        )


# ---------------------------------------------------------------------------
# The primary tree


class PrimaryTree:
    """A mutable primary tree over n tokens, whose ids 1..n are the terminals.

    ``children`` maps each nonterminal to its ordered children, ``parent``
    and ``label`` each non-root node to its parent and its edge's label.
    """

    def __init__(self, n: int, root: NodeId):
        self.n = n
        self.root = root
        self.children: dict[NodeId, list[NodeId]] = {root: []}
        self.parent: dict[NodeId, NodeId] = {}
        self.label: dict[NodeId, str] = {}

    @classmethod
    def of(cls, graph: UccaGraph) -> PrimaryTree:
        """The tree of ``graph``'s primary edges, children in edge order."""
        tree = cls(graph.n, graph.root)
        tree.children.update((v, []) for v in graph.nonterminals)
        for e in graph.primary_edges:
            tree.attach(e.parent, e.child, e.label)
        return tree

    def attach(self, parent: NodeId, child: NodeId, label: str) -> None:
        """Make ``child`` the last child of ``parent``."""
        self.children[parent].append(child)
        self.parent[child] = parent
        self.label[child] = label
        if child > self.n:
            self.children.setdefault(child, [])

    def move(self, child: NodeId, new_parent: NodeId) -> None:
        """Detach ``child`` and make it the last child of ``new_parent``."""
        self.children[self.parent[child]].remove(child)
        self.children[new_parent].append(child)
        self.parent[child] = new_parent

    def ancestors(self, v: NodeId) -> list[NodeId]:
        """``v`` and the nodes above it, the root last."""
        chain = [v]
        while chain[-1] != self.root:
            chain.append(self.parent[chain[-1]])
        return chain

    def yields(self) -> dict[NodeId, tuple[int, ...]]:
        """Sorted terminal yield of each terminal and of every nonterminal
        below the root.  Raises ValueError when the walk reaches more
        nonterminals than the tree holds, as a cycle makes it do."""
        reached: list[NodeId] = []  # nonterminals, parents before children
        stack = [self.root]
        while stack:
            v = stack.pop()
            if v > self.n:
                reached.append(v)
                if len(reached) > len(self.children):
                    raise ValueError(f"the children below node {self.root} do not form a tree")
                stack.extend(self.children[v])
        yields: dict[NodeId, tuple[int, ...]] = {t: (t,) for t in range(1, self.n + 1)}
        for v in reversed(reached):
            acc: list[int] = []
            for c in self.children[v]:
                acc.extend(yields[c])
            yields[v] = tuple(sorted(acc))
        return yields

    def preorder(self, yields: Mapping[NodeId, tuple[int, ...]]) -> Iterator[tuple[NodeId, NodeId]]:
        """(parent, child) pairs below the root in preorder, the children of
        each node ordered by their leftmost terminal in ``yields``."""

        def reversed_children(v: NodeId) -> Iterator[NodeId]:
            return reversed(sorted(self.children[v], key=lambda c: yields[c][0]))

        stack = [(self.root, c) for c in reversed_children(self.root)]
        while stack:
            parent, child = stack.pop()
            yield parent, child
            if child > self.n:
                stack.extend((child, c) for c in reversed_children(child))

    def graph(self, tokens: tuple[Token, ...], remotes: Iterable[Edge] = ()) -> UccaGraph:
        """The graph of this tree over ``tokens``: its primary edges in the
        order of :meth:`preorder`, then ``remotes``."""
        primary = tuple(Edge(p, c, self.label[c]) for p, c in self.preorder(self.yields()))
        return UccaGraph(tokens, self.root, frozenset(self.children), primary + tuple(remotes))


def descendants(out_edges: Mapping[NodeId, Iterable[NodeId]], start: NodeId) -> set[NodeId]:
    """The nodes reachable from ``start`` along ``out_edges``, ``start`` included."""
    stack, seen = [start], {start}
    while stack:
        for w in out_edges[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def load_lines(path: str, decode: Callable[[str], object], what: str) -> list:
    """``decode`` of every non-blank line, stripped; failures name ``path:line``.

    Bytes that are not UTF-8 read as unpaired surrogates, which no label or
    form may hold, so they fail where they stand too.
    """
    records = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(decode(line))
            except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed {what} record: {exc}") from exc
    return records


def load_jsonl(path: str, decode: Callable[[dict], object], what: str) -> list:
    """``decode`` of every non-blank line's JSON object; failures name ``path:line``."""

    def record(line: str) -> object:
        data = json.loads(line)
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        return decode(data)

    return load_lines(path, record, what)


def checked(value: Checked, what: str, error: type[Exception] = ValueError) -> Checked:
    """``value``, or ``error`` naming every problem its ``validate`` finds."""
    problems = value.validate()
    if problems:
        raise error(f"invalid {what}: " + "; ".join(problems))
    return value


def load_corpus(path: str) -> list[UccaGraph]:
    """Read one graph per line from a JSONL file; every graph must be valid."""
    return load_jsonl(path, lambda data: checked(UccaGraph.from_json(data), "graph"), "graph")


@contextmanager
def atomic_output(path: str, binary: bool = False) -> Iterator[IO]:
    """A text file, or a byte file with ``binary``, that replaces ``path`` only
    if the block ends without an error: an interrupted write never truncates it.

    The output goes to a hidden temporary file in the same directory, which
    is removed on error and otherwise renamed over ``path``.  The result has
    the mode ``open(path, "w")`` would give it: the old file's, else 0o666
    less the umask.  A path that exists but is not a regular file, such as
    a pipe, is written directly.
    """
    mode, encoding = ("wb", None) if binary else ("w", "utf-8")
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the path asked for, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, mode, encoding=encoding) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())  # the data is on disk before the rename
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def dump_corpus(graphs: Iterable[UccaGraph], path: str) -> None:
    with atomic_output(path) as fh:
        for g in graphs:
            fh.write(json.dumps(g.to_json(), sort_keys=True) + "\n")


def load_token_lines(path: str) -> list[tuple[Token, ...]]:
    """Read token sequences from corpus JSONL, ignoring any graph part;
    each must pass :func:`token_problems`."""

    def sentence(data: dict) -> tuple[Token, ...]:
        tokens = tokens_from_json(data)
        problems = token_problems(tokens)
        if problems:
            raise ValueError("; ".join(problems))
        return tokens

    return load_jsonl(path, sentence, "token")


# ---------------------------------------------------------------------------
# Constituent trees


@dataclass(frozen=True)
class TreeNode:
    """A node of a constituent tree.

    Internal nodes have a label and children; leaves reference a token
    position and carry no label.
    """

    label: str | None = None
    children: tuple[TreeNode, ...] = ()
    leaf: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def leaves(self) -> Iterator[int]:
        if self.is_leaf:
            yield self.leaf  # type: ignore[misc]
            return
        for c in self.children:
            yield from c.leaves()

    @cached_property
    def leaf_positions(self) -> tuple[int, ...]:
        return tuple(self.leaves())

    def iter_nodes(self) -> Iterator[TreeNode]:
        yield self
        for c in self.children:
            yield from c.iter_nodes()


Span = tuple[int, int]


def span_preorder(n: int, spans: Mapping[Span, str]) -> Iterator[tuple[str, int | str]]:
    """The tree of the nested labeled ``spans`` over n tokens, as preorder
    events: ("open", label) where a node starts, ("leaf", position) for
    each token and ("close", label) where a node ends.

    Each span is one node, except that a "ROOT"-headed chain opens the
    root as a node of its own with the rest of the chain below it.
    """
    open_nodes: list[tuple[int, str]] = []  # (end, label), innermost last
    position = 0
    ordered = sorted(spans.items(), key=lambda item: (item[0][0], -item[0][1]))
    for (i, j), label in ordered + [((n, n), None)]:  # None only closes what is open
        while position < i or (open_nodes and open_nodes[-1][0] <= i):
            if open_nodes and open_nodes[-1][0] <= position:
                yield "close", open_nodes.pop()[1]
            else:
                position += 1
                yield "leaf", position
        if label is None:
            break
        head, _, rest = label.partition("+")
        for part in [head, rest] if head == ROOT_LABEL and rest else [label]:
            open_nodes.append((j, part))
            yield "open", part


@dataclass(frozen=True)
class ConstituentTree:
    """An ordered tree over the sentence with the root labeled "ROOT"; to
    the parser, its map of labeled spans (:meth:`spans`, :meth:`from_spans`)."""

    tokens: tuple[Token, ...]
    root: TreeNode

    @property
    def n(self) -> int:
        return len(self.tokens)

    def spans(self) -> dict[Span, str]:
        """The labeled spans in preorder, (i, j) -> label.  A chain of nodes
        on one span is one "+"-joined label; leaves have no entry."""
        entries: list[list] = []  # [i, j, label], j set once the node is walked
        stack: list[TreeNode | list] = [self.root]
        position = 0
        while stack:
            item = stack.pop()
            if isinstance(item, list):
                item[1] = position
            elif item.leaf is not None:
                position += 1
            else:
                parts = [item.label or ""]
                while len(item.children) == 1 and item.children[0].leaf is None:
                    item = item.children[0]
                    parts.append(item.label or "")
                entries.append([position, None, "+".join(parts)])
                stack += [entries[-1], *reversed(item.children)]
        return {(i, j): label for i, j, label in entries}

    @classmethod
    def from_spans(cls, tokens: Sequence[Token], spans: Mapping[Span, str]) -> ConstituentTree:
        """The tree whose :meth:`spans` are ``spans``; see :func:`span_preorder`."""
        levels: list[list[TreeNode]] = [[]]  # the children gathered so far per open node
        for kind, value in span_preorder(len(tokens), spans):
            if kind == "open":
                levels.append([])
            elif kind == "leaf":
                levels[-1].append(TreeNode(leaf=value))
            else:
                children = tuple(levels.pop())
                levels[-1].append(TreeNode(label=value, children=children))
        (root,) = levels[0]
        return cls(tokens=tuple(tokens), root=root)

    def validate(self) -> list[str]:
        """Violations of the tree invariants, the label grammar and the token
        rules.  Every valid tree decodes: no move-marked node is a child of
        the root or follows the head of a chain, and none has only marked
        siblings, so :func:`~uccatree.conversion.tree_to_graph` can return
        each to its grandparent, top-down, and leave its parent a child."""
        problems = token_problems(self.tokens)
        if self.root.is_leaf or self.root.label != ROOT_LABEL:
            problems.append(f"root label is {self.root.label!r}, expected {ROOT_LABEL!r}")
        leaves = list(self.root.leaves())
        if leaves != list(range(1, len(self.tokens) + 1)):
            problems.append(f"leaves {leaves} do not cover positions 1..{len(self.tokens)} in order")
            return problems
        for node in self.root.iter_nodes():
            if node.is_leaf:
                continue
            problem = node is not self.root and tree_label_problem(node.label)
            if problem:
                problems.append(problem)
            if not node.children:
                problems.append(f"internal node {node.label!r} has no children")
                continue
            pos = node.leaf_positions
            if not pos:
                problems.append(f"internal node {node.label!r} covers no token")
            elif pos[-1] - pos[0] + 1 != len(pos):
                problems.append(f"node {node.label!r} spans a non-contiguous interval {pos}")
            moved = [c.label for c in node.children if _head_moved(c.label)]
            if moved and node is self.root:
                problems.append(f"move marker on {moved[0]!r}, a child of the root: no grandparent")
            elif len(moved) == len(node.children):
                problems.append(f"every child of {node.label!r} is move-marked: none would stay")
        return problems

    # The JSONL tree form mirrors the graph corpus format: one object per
    # line with "tokens" and "lang" keys plus the nested tree.

    def to_json(self) -> dict:
        def encode(node: TreeNode) -> dict:
            if node.is_leaf:
                return {"leaf": node.leaf}
            return {"label": node.label, "children": [encode(c) for c in node.children]}

        return {**tokens_to_json(self.tokens), "tree": encode(self.root)}

    @classmethod
    def from_json(cls, data: dict) -> ConstituentTree:
        def decode(node: dict) -> TreeNode:
            if "leaf" in node:
                return TreeNode(leaf=json_typed(node["leaf"], int, "leaf position"))
            return TreeNode(
                label=node["label"],
                children=tuple(decode(c) for c in node["children"]),
            )

        return checked(cls(tokens=tokens_from_json(data), root=decode(data["tree"])), "tree")
