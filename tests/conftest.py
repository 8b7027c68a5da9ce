"""Shared fixtures: the worked German example and small helpers.

The seven-token German sentence (`` lch ging umher und tastete .) has one
discontinuous node and one remote edge, which makes it exercise every
conversion rule at once.  Node ids: terminals 1..7 by position, then the
nine nonterminals 8..16 (8 is the root).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import uccatree
from uccatree.autodiff import Var
from uccatree.graph_model import Edge, Token, UccaGraph

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # Same examples on every run, and no example database on disk.
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")
    # Hypothesis also caches what it reads from source files; keep that
    # in a directory that goes away with the test run.
    _hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home.name)

GERMAN_FORMS = ["``", "lch", "ging", "umher", "und", "tastete", "."]

# Expected converted tree: the discontinuous node keeps its position,
# the two nodes moved under it carry "-ancestor1", the remote child
# carries "-remote", and the root's single-child chain stays expanded
# only at ROOT.
GERMAN_TREE_SEXPR = (
    "(ROOT (H (U ``) (H-ancestor1 (A-remote lch) (P ging umher)) "
    "(L-ancestor1 und) (P tastete) (U .)))"
)


def german_example() -> UccaGraph:
    toks = tuple(Token(form=f, lang="de") for f in GERMAN_FORMS)

    def nt(k: int) -> int:  # k-th nonterminal, numbered as in the docstring
        return 7 + k

    edges = (
        Edge(nt(1), nt(2), "H"),
        Edge(nt(1), nt(3), "H"),
        Edge(nt(1), nt(7), "L"),
        Edge(nt(2), nt(5), "A"),
        Edge(nt(2), nt(6), "P"),
        Edge(nt(3), nt(4), "U"),
        Edge(nt(3), nt(8), "P"),
        Edge(nt(3), nt(9), "U"),
        Edge(nt(4), 1, ""),
        Edge(nt(5), 2, ""),
        Edge(nt(6), 3, ""),
        Edge(nt(6), 4, ""),
        Edge(nt(7), 5, ""),
        Edge(nt(8), 6, ""),
        Edge(nt(9), 7, ""),
        Edge(nt(3), nt(5), "A", remote=True),
    )
    return UccaGraph(
        tokens=toks,
        root=nt(1),
        nonterminals=frozenset(nt(k) for k in range(1, 10)),
        edges=edges,
    )


@pytest.fixture
def german_graph() -> UccaGraph:
    return german_example()


def primary_only(graph: UccaGraph) -> UccaGraph:
    """The graph restricted to its primary (tree-forming) edges."""
    return UccaGraph(
        tokens=graph.tokens,
        root=graph.root,
        nonterminals=graph.nonterminals,
        edges=tuple(graph.primary_edges),
    )


def discontinuous(graph: UccaGraph, node: int) -> bool:
    """True when the node's yield leaves a gap between its first and last token."""
    y = graph.yield_of(node)
    return y[-1] - y[0] + 1 != len(y)


def simple_graph(labels: list[str], n: int = 3, lang: str = "en") -> UccaGraph:
    """Flat graph: root dominates one preterminal per token.

    ``labels[k]`` labels the k-th preterminal's edge from the root.
    """
    assert len(labels) == n
    toks = tuple(Token(form=f"t{k}", lang=lang) for k in range(1, n + 1))
    root = n + 1
    edges = []
    for k in range(1, n + 1):
        pre = n + 1 + k
        edges.append(Edge(root, pre, labels[k - 1]))
        edges.append(Edge(pre, k, ""))
    return UccaGraph(
        tokens=toks,
        root=root,
        nonterminals=frozenset(range(n + 1, 2 * n + 2)),
        edges=tuple(edges),
    )


def right_branching_chain(depth: int) -> UccaGraph:
    """A chain of ``depth`` >= 4 nonterminals, each with one token on its
    left; the deepest one holds the last two tokens.  Edge labels cycle
    through A, P and H, and one remote edge runs from the root to the
    middle of the chain."""
    n = depth + 1
    chain = list(range(n + 1, n + 1 + depth))
    edges = []
    for level, node in enumerate(chain):
        edges.append(Edge(node, level + 1, ""))
        below = chain[level + 1] if level + 1 < depth else n
        edges.append(Edge(node, below, "APH"[level % 3] if below > n else ""))
    edges.append(Edge(chain[0], chain[depth // 2], "A", remote=True))
    return UccaGraph(
        tokens=tuple(Token(form=f"w{k}") for k in range(1, n + 1)),
        root=chain[0],
        nonterminals=frozenset(chain),
        edges=tuple(edges),
    )


def offset_biases(tensors: dict[str, np.ndarray], seed: int) -> None:
    """Shift every bias away from zero, in place.

    Finite differences are only a valid oracle where the loss is smooth;
    at the all-zero-bias init point many relu pre-activations sit within
    the perturbation step of their kink, which poisons the comparison.
    A generic offset moves the check to a smooth point without touching
    the code under test.
    """
    rng = np.random.default_rng(seed)
    for name, value in tensors.items():
        if name.endswith("_b"):
            value += rng.uniform(-0.5, 0.5, size=value.shape)


def tape_vars(root: Var) -> list[Var]:
    """Distinct tape nodes reachable from ``root`` through ``_parents``."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def tape_nodes(root: Var) -> int:
    """How many distinct tape nodes are reachable from ``root``."""
    return len(tape_vars(root))


def run_python(source: str, *args: str, cpu: int | None = None) -> str:
    """The last line that ``source`` prints, run in a fresh interpreter;
    ``cpu``: confined to that one CPU."""
    if cpu is not None:
        source = f"import os\nos.sched_setaffinity(0, {{{cpu}}})\n{source}"
    src = str(Path(uccatree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", source, *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout.splitlines()[-1]
