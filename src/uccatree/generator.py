"""Seeded synthetic corpus generation for tests and demos.

Graphs are built projective first, then optionally made discontinuous by
the exact inverse of the tree restoration rule: an interior nonterminal
child of some node A is lifted to A's parent, which leaves a gap in A's
yield that the conversion closes again with a single distance-one move.
Remote edges are added last, only where they keep the graph acyclic.
Every generated graph therefore round-trips losslessly through the
tree conversion.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .graph_model import Edge, PrimaryTree, Token, UccaGraph, checked, descendants, json_typed, label_problem

_POS_TAGS = ("NOUN", "VERB", "ADJ", "DET")
_NER_TAGS = ("O", "PER", "LOC")
_DEP_LABELS = ("s", "o", "m", "d")

_P_DIRECT_TERMINAL = 0.4  # token attaches straight to the phrase node
_P_UNARY = 0.12  # wrap a nonterminal child in an extra unary node


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a generated corpus."""

    sentences: int = 100
    min_tokens: int = 3
    max_tokens: int = 20
    vocab_size: int = 50
    max_depth: int = 4
    min_branch: int = 2
    max_branch: int = 4
    p_remote: float = 0.3
    p_discontinuity: float = 0.5
    labels: tuple[str, ...] = ("A", "P", "H", "L", "U", "E", "C")

    @classmethod
    def from_json(cls, data: dict) -> SyntheticSpec:
        """A spec from a JSON object of field values, each optional.  Counts
        are integers of at least 1, each ``min_*`` at most its ``max_*``; the
        ``p_*`` are numbers in [0, 1]; ``labels`` is a non-empty list of
        graph labels."""
        unknown = set(json_typed(data, dict, "the generator spec")) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown generator spec keys: {sorted(unknown)}")
        values = {}
        for key, value in data.items():
            what = f"spec key {key!r}"
            if key == "labels":
                for label in json_typed(value, list, what):
                    problem = label_problem(json_typed(label, str, f"each item of {what}"))
                    if problem:
                        raise ValueError(f"{what}: {problem}")
                if not value:
                    raise ValueError(f"{what} must hold at least one label")
                value = tuple(value)
            elif key.startswith("p_"):  # NaN fails the comparison too
                if type(value) not in (int, float) or not 0 <= value <= 1:
                    raise ValueError(f"{what} must be a number in [0, 1], got {value!r}")
            elif json_typed(value, int, what) < 1:
                raise ValueError(f"{what} must be at least 1, got {value}")
            values[key] = value
        spec = cls(**values)
        for low, high in (("min_tokens", "max_tokens"), ("min_branch", "max_branch")):
            if getattr(spec, low) > getattr(spec, high):
                raise ValueError(
                    f"spec key {low!r} ({getattr(spec, low)}) must be at most "
                    f"{high!r} ({getattr(spec, high)})"
                )
        return spec


class _Builder:
    def __init__(self, n: int, spec: SyntheticSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        self.tree = PrimaryTree(n, n + 1)

    def _new_node(self, parent: int, label: str) -> int:
        nid = self.tree.n + 1 + len(self.tree.children)
        self.tree.attach(parent, nid, label)
        return nid

    def _random_label(self) -> str:
        return str(self.rng.choice(self.spec.labels))

    def build(self) -> None:
        self._fill(self.tree.root, 1, self.tree.n, depth=1)

    def _fill(self, node: int, lo: int, hi: int, depth: int) -> None:
        length = hi - lo + 1
        if length == 1:
            self.tree.attach(node, lo, "")
            return
        if depth >= self.spec.max_depth:
            for t in range(lo, hi + 1):
                self.tree.attach(node, t, "")
            return
        top = min(self.spec.max_branch, length)
        low = min(self.spec.min_branch, top)
        k = int(self.rng.integers(low, top + 1))
        if k < 2:
            k = 2
        cuts = sorted(self.rng.choice(np.arange(lo, hi), size=k - 1, replace=False).tolist())
        starts = [lo] + [c + 1 for c in cuts]
        ends = cuts + [hi]
        for a, b in zip(starts, ends):
            if a == b and self.rng.random() < _P_DIRECT_TERMINAL:
                self.tree.attach(node, a, "")
                continue
            parent = node
            if self.rng.random() < _P_UNARY:
                parent = self._new_node(node, self._random_label())
            child = self._new_node(parent, self._random_label())
            self._fill(child, a, b, depth + 1)

    def inject_discontinuity(self) -> bool:
        """Lift one interior nonterminal child above its parent.

        Only configurations that the conversion undoes with a single
        recorded distance-one move are eligible; returns False when the
        tree offers none.
        """
        tree = self.tree
        yields = tree.yields()
        candidates: list[tuple[int, int]] = []
        for a in sorted(tree.children):
            if a == tree.root:
                continue
            ya = yields[a]
            for c in tree.children[a]:
                if c <= tree.n:
                    continue
                yc = yields[c]
                if ya[0] < yc[0] and yc[-1] < ya[-1]:
                    candidates.append((a, c))
        if not candidates:
            return False
        a, c = candidates[int(self.rng.integers(0, len(candidates)))]
        tree.move(c, tree.parent[a])
        return True

    def add_remotes(self) -> list[Edge]:
        tree = self.tree
        nonterminals = sorted(tree.children)
        out_edges: dict[int, set[int]] = {t: set() for t in range(1, tree.n + 1)}
        out_edges.update((v, set(cs)) for v, cs in tree.children.items())

        remotes: list[Edge] = []
        for child in nonterminals:
            if child == tree.root:
                continue
            if self.rng.random() >= self.spec.p_remote:
                continue
            below = descendants(out_edges, child)  # child included
            options = [p for p in nonterminals if p != tree.parent[child] and p not in below]
            if not options:
                continue
            parent = options[int(self.rng.integers(0, len(options)))]
            remotes.append(Edge(parent, child, self._random_label(), remote=True))
            out_edges[parent].add(child)
        return remotes


def generate(spec: SyntheticSpec, seed: int, lang: str = "en") -> list[UccaGraph]:
    """Deterministically generate a corpus from a spec and a seed."""
    rng = np.random.default_rng(seed)
    graphs: list[UccaGraph] = []
    for _ in range(spec.sentences):
        n = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
        tokens = tuple(
            Token(
                form=f"w{int(rng.integers(0, spec.vocab_size))}",
                pos=str(rng.choice(_POS_TAGS)),
                ner=str(rng.choice(_NER_TAGS)),
                dep=str(rng.choice(_DEP_LABELS)),
                lang=lang,
            )
            for _ in range(n)
        )
        builder = _Builder(n, spec, rng)
        builder.build()
        if rng.random() < spec.p_discontinuity:
            builder.inject_discontinuity()
        graph = builder.tree.graph(tokens, builder.add_remotes())
        graphs.append(checked(graph, "generated graph", AssertionError))  # a bug here, not bad input
    return graphs
