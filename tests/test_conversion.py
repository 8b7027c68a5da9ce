"""Graph <-> tree conversion: marker placement, moves, and round trips."""

from __future__ import annotations

import random
import sys

import pytest

from uccatree.conversion import (
    ConversionError,
    MoveRecord,
    graph_to_tree,
    remove_discontinuities,
    split_label,
    strip_remotes,
    tree_from_sexpr,
    tree_to_graph,
    tree_to_sexpr,
)
from uccatree.generator import SyntheticSpec, generate
from uccatree.graph_model import ConstituentTree, Edge, Token, TreeNode, UccaGraph, span_preorder

from conftest import GERMAN_TREE_SEXPR, primary_only, right_branching_chain, simple_graph


def build_graph(forms, root, nonterminals, edges):
    return UccaGraph(
        tokens=tuple(Token(form=f) for f in forms),
        root=root,
        nonterminals=frozenset(nonterminals),
        edges=tuple(Edge(*e) for e in edges),
    )


class TestLabelSuffixes:
    def test_split_plain(self):
        assert split_label("A") == ("A", False, False)

    def test_split_remote(self):
        assert split_label("A-remote") == ("A", True, False)

    def test_split_ancestor(self):
        assert split_label("H-ancestor1") == ("H", False, True)

    def test_split_both_markers(self):
        # The move marker is appended after the remote marker.
        assert split_label("P-remote-ancestor1") == ("P", True, True)


class TestStripRemotes:
    def test_worked_example(self, german_graph):
        stripped, dropped = strip_remotes(german_graph)
        assert dropped == ((10, 12, "A"),)
        assert stripped.remote_edges == ()
        assert stripped.primary_label[12] == "A-remote"
        # Every other label is untouched.
        assert stripped.primary_label[9] == "H"
        assert stripped.primary_label[13] == "P"

    def test_multiple_remote_parents_single_marker(self):
        g = build_graph(
            ["a", "b", "c"],
            root=4,
            nonterminals={4, 5, 6, 7},
            edges=[
                (4, 5, "H"),
                (4, 6, "H"),
                (4, 7, "L"),
                (5, 1, ""),
                (6, 2, ""),
                (7, 3, ""),
                (6, 5, "A", True),
                (7, 5, "E", True),
            ],
        )
        assert g.validate() == []
        stripped, dropped = strip_remotes(g)
        assert set(dropped) == {(6, 5, "A"), (7, 5, "E")}
        assert stripped.primary_label[5] == "H-remote"
        assert stripped.primary_label[6] == "H"


class TestRemoveDiscontinuities:
    def test_worked_example_two_ancestor1_moves(self, german_graph):
        stripped, _ = strip_remotes(german_graph)
        projective, moves = remove_discontinuities(stripped)
        lossless = dict(from_parent=8, to_parent=10, category="ancestor", ancestor_distance=1)
        assert moves == (
            MoveRecord(moved=9, **lossless, marked=True),
            MoveRecord(moved=14, **lossless, marked=True),
        )
        assert projective.primary_label[9] == "H-ancestor1"
        assert projective.primary_label[14] == "L-ancestor1"
        assert projective.yield_of(10) == tuple(range(1, 8))
        assert not any(projective.is_discontinuous(v) for v in projective.nonterminals)

    def test_distance_two_move_is_lossy(self):
        # t1 and t3 share a node whose gap filler detaches two levels up.
        g = build_graph(
            ["t1", "t2", "t3"],
            root=4,
            nonterminals={4, 5, 6, 7},
            edges=[
                (4, 5, "H"),
                (4, 7, "E"),
                (5, 6, "F"),
                (6, 1, ""),
                (6, 3, ""),
                (7, 2, ""),
            ],
        )
        assert g.validate() == []
        projective, moves = remove_discontinuities(g)
        assert moves == (
            MoveRecord(moved=7, from_parent=4, to_parent=6, category="ancestor", ancestor_distance=2),
        )
        assert not moves[0].marked
        result = graph_to_tree(g)
        assert tree_to_sexpr(result.tree) == "(ROOT (H+F t1 (E t2) t3))"
        assert result.lossy_moves == 1

    def test_walk_stops_at_discontinuous_node(self):
        # The gap filler's walk upward hits another discontinuous node
        # before reaching the lca, so the move is categorized differently.
        g = build_graph(
            ["w1", "w2", "w3", "w4", "w5", "w6"],
            root=7,
            nonterminals={7, 8, 9, 10},
            edges=[
                (7, 8, "H"),
                (7, 9, "H"),
                (7, 5, ""),
                (8, 1, ""),
                (8, 4, ""),
                (9, 10, "F"),
                (9, 6, ""),
                (10, 2, ""),
                (10, 3, ""),
            ],
        )
        assert g.validate() == []
        projective, moves = remove_discontinuities(g)
        assert moves == (
            MoveRecord(moved=10, from_parent=9, to_parent=8, category="discontinuous", ancestor_distance=None),
        )
        assert not moves[0].marked
        result = graph_to_tree(g)
        assert tree_to_sexpr(result.tree) == "(ROOT (H w1 (F w2 w3) w4) w5 (H w6))"
        assert result.lossy_moves == 1

    def test_moved_terminal_is_lossy(self):
        # The gap filler is a terminal under the lca one level up: a
        # terminal edge carries no label, so no marker can record the move.
        g = build_graph(
            ["t1", "t2", "t3"],
            root=4,
            nonterminals={4, 5},
            edges=[(4, 5, "H"), (4, 2, ""), (5, 1, ""), (5, 3, "")],
        )
        assert g.validate() == []
        projective, moves = remove_discontinuities(g)
        assert moves == (
            MoveRecord(moved=2, from_parent=4, to_parent=5, category="ancestor", ancestor_distance=1),
        )
        assert projective.primary_label[2] == ""
        assert graph_to_tree(g).lossy_moves == 1


class TestPushLabels:
    """graph_to_tree pushes edge labels onto the nodes below them."""

    def test_unary_chain_collapses(self):
        g = build_graph(
            ["a", "b"],
            root=3,
            nonterminals={3, 4, 5},
            edges=[(3, 4, "H"), (4, 5, "A"), (5, 1, ""), (5, 2, "")],
        )
        assert tree_to_sexpr(graph_to_tree(g).tree) == "(ROOT (H+A a b))"

    def test_root_never_collapses(self):
        # Even a root with one same-span child keeps its own node.
        g = build_graph(
            ["a"],
            root=2,
            nonterminals={2, 3},
            edges=[(2, 3, "H"), (3, 1, "")],
        )
        assert tree_to_sexpr(graph_to_tree(g).tree) == "(ROOT (H a))"

    def test_children_ordered_by_leftmost_terminal(self):
        g = build_graph(
            ["a", "b", "c"],
            root=4,
            nonterminals={4, 5, 6},
            # Edge tuple order lists the right-hand child first.
            edges=[(4, 6, "P"), (4, 5, "A"), (5, 1, ""), (6, 2, ""), (6, 3, "")],
        )
        assert tree_to_sexpr(graph_to_tree(g).tree) == "(ROOT (A a) (P b c))"


class TestWorkedExampleEndToEnd:
    def test_exact_tree(self, german_graph):
        result = graph_to_tree(german_graph)
        assert tree_to_sexpr(result.tree) == GERMAN_TREE_SEXPR
        assert result.dropped_remote_edges == ((10, 12, "A"),)
        assert result.lossy_moves == 0

    def test_restores_primary_structure(self, german_graph):
        result = graph_to_tree(german_graph)
        restored, marked = tree_to_graph(result.tree)
        assert restored.validate() == []
        assert restored.same_structure(primary_only(german_graph))
        assert [restored.yield_of(m) for m in marked] == [(2,)]

    def test_rejects_invalid_graph(self, german_graph):
        bad = UccaGraph(
            tokens=german_graph.tokens,
            root=german_graph.root,
            nonterminals=german_graph.nonterminals,
            edges=german_graph.edges + (Edge(10, 2, "A", remote=True),),
        )
        with pytest.raises(ConversionError, match="invalid graph"):
            graph_to_tree(bad)


class TestTreeToGraph:
    def test_flat_tree(self):
        tree = tree_from_sexpr("(ROOT (A a) (P b c))")
        g, marked = tree_to_graph(tree)
        assert marked == ()
        assert g.validate() == []
        expected = build_graph(
            ["a", "b", "c"],
            root=4,
            nonterminals={4, 5, 6},
            edges=[(4, 5, "A"), (4, 6, "P"), (5, 1, ""), (6, 2, ""), (6, 3, "")],
        )
        assert g.same_structure(expected)

    def test_chain_expansion_assigns_preorder_ids(self):
        g, _ = tree_to_graph(tree_from_sexpr("(ROOT (H+A a b))"))
        # Two tokens, so ids 3, 4, 5 in preorder: ROOT, H, A.
        assert g.root == 3
        assert g.primary_label[4] == "H"
        assert g.primary_label[5] == "A"
        assert g.primary.parent[5] == 4

    def test_nested_chain_reads_in_plus_form(self):
        # A hand-written chain is one labeled span, read as its "+" label;
        # the graph is the same as from the "+" form.
        tree = tree_from_sexpr("(ROOT (H (A a b)))")
        assert tree_to_sexpr(tree) == "(ROOT (H+A a b))"
        g, _ = tree_to_graph(tree)
        assert g == tree_to_graph(tree_from_sexpr("(ROOT (H+A a b))"))[0]

    def test_ancestor_marker_moves_child_up(self):
        g, marked = tree_to_graph(tree_from_sexpr("(ROOT (H (A-ancestor1 a) (P b)))"))
        assert marked == ()
        # The marked node returns to its grandparent: the root.
        expected = build_graph(
            ["a", "b"],
            root=3,
            nonterminals={3, 4, 5, 6},
            edges=[(3, 4, "H"), (3, 5, "A"), (4, 6, "P"), (5, 1, ""), (6, 2, "")],
        )
        assert g.same_structure(expected)

    def test_marker_on_chain_part_reattaches_within_chain(self):
        g, _ = tree_to_graph(tree_from_sexpr("(ROOT (H (E+F (A-ancestor1 a) (P b)) (U c)))"))
        # A-ancestor1 sits under F; its grandparent is E.
        ids = {g.primary_label[v]: v for v in g.nonterminals if v != g.root}
        assert g.primary.parent[ids["A"]] == ids["E"]
        assert g.primary.parent[ids["P"]] == ids["F"]

    def test_marker_under_bare_root_rejected(self):
        with pytest.raises(ConversionError, match="no grandparent"):
            tree_to_graph(tree_from_sexpr("(ROOT (A-ancestor1 a) (P b))"))

    def test_marker_that_would_empty_its_parent_rejected(self):
        # Undoing the only child's marker would leave H without children.
        with pytest.raises(ConversionError, match="without children"):
            tree_to_graph(tree_from_sexpr("(ROOT (H (A-ancestor1 a)) (P b))"))

    def test_remote_marker_collected_not_kept_on_label(self):
        g, marked = tree_to_graph(tree_from_sexpr("(ROOT (H (A-remote a) (P b)))"))
        assert [g.yield_of(m) for m in marked] == [(1,)]
        assert all("-remote" not in lab for lab in g.primary_label.values())

    def test_invalid_tree_rejected(self):
        tree = ConstituentTree(
            tokens=(Token(form="a"),),
            root=TreeNode(label="S", children=(TreeNode(leaf=1),)),
        )
        with pytest.raises(ConversionError, match="invalid tree"):
            tree_to_graph(tree)


def undo_succeeds(tree: ConstituentTree) -> bool:
    """Reference for the move-marker rule: expand the tree's chains, then
    return each marked node to its grandparent one at a time, top-down, and
    say whether every one had a grandparent and left its parent a child."""
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {}  # node 0 is the root; leaves are -position
    marked: list[int] = []
    stack: list[int] = []
    for kind, value in span_preorder(tree.n, tree.spans()):
        if kind == "leaf":
            children[stack[-1]].append(-value)
        elif kind == "close":
            stack.pop()
        else:
            above = stack[-1] if stack else None
            for part in value.split("+"):
                ident = len(children)
                children[ident] = []
                if split_label(part)[2]:
                    marked.append(ident)
                if above is not None:
                    parent[ident] = above
                    children[above].append(ident)
                above = ident
            stack.append(above)
    for ident in marked:  # ids are in preorder
        origin = parent[ident]
        if origin == 0 or len(children[origin]) == 1:
            return False
        children[origin].remove(ident)
        parent[ident] = parent[origin]
        children[parent[ident]].append(ident)
    return True


# Labels that the grammar accepts, with move markers on heads and on tails.
MARKED_LABELS = [
    "A", "P", "H+P", "B-remote",
    "A-ancestor1", "B-remote-ancestor1", "A+B", "A-ancestor1+B", "A+B-ancestor1",
]


def random_children(rnd: random.Random, start: int, end: int, depth: int) -> tuple[TreeNode, ...]:
    """Children covering tokens start+1..end: leaves and labeled nodes,
    a single labeled child (a chain of two nodes) among them."""
    if depth == 0:
        return tuple(TreeNode(leaf=p) for p in range(start + 1, end + 1))
    cuts = sorted(rnd.sample(range(start + 1, end), rnd.randint(0, min(2, end - start - 1))))
    bounds = [start, *cuts, end]
    return tuple(
        TreeNode(leaf=j)
        if j - i == 1 and rnd.random() < 0.4
        else TreeNode(label=rnd.choice(MARKED_LABELS), children=random_children(rnd, i, j, depth - 1))
        for i, j in zip(bounds, bounds[1:])
    )


class TestDecodability:
    def test_validate_agrees_with_sequential_undo(self):
        rnd = random.Random(5)
        valid_trees = marked_valid_trees = 0
        for _ in range(3000):
            n = rnd.randint(1, 7)
            tree = ConstituentTree(
                tokens=tuple(Token(form=f"w{p}") for p in range(1, n + 1)),
                root=TreeNode(label="ROOT", children=random_children(rnd, 0, n, rnd.randint(1, 4))),
            )
            valid = tree.validate() == []
            assert valid == undo_succeeds(tree), tree_to_sexpr(tree)
            if valid:
                restored, _ = tree_to_graph(tree)
                assert restored.validate() == []
                valid_trees += 1
                marked_valid_trees += "-ancestor1" in tree_to_sexpr(tree)
        assert 100 < marked_valid_trees and valid_trees < 2000


class TestSexpr:
    def test_escaping_round_trip(self):
        # Forms that hold an escape's own text come back as written too.
        forms = ["(", ")", "a b", "tab\tsep", "-LRB-ish", "-LRB-", "-SP-SP-", "-LRB ", "a-b"]
        text = tree_to_sexpr(
            ConstituentTree(tokens=tuple(Token(form=f) for f in forms), root=_flat_root(len(forms)))
        )
        assert "(H a-b)" in text  # a hyphen is escaped only before an escape's text
        assert [t.form for t in tree_from_sexpr(text).tokens] == forms

    def test_plain_round_trip(self, german_graph):
        tree = graph_to_tree(german_graph).tree
        back = tree_from_sexpr(tree_to_sexpr(tree), lang=tree.tokens[0].lang)
        assert back == ConstituentTree(
            tokens=tuple(Token(form=t.form, lang=t.lang) for t in tree.tokens),
            root=tree.root,
        )

    def test_unbalanced_rejected(self):
        with pytest.raises(ConversionError):
            tree_from_sexpr("(ROOT (H a)")

    def test_node_without_children_rejected(self):
        with pytest.raises(ConversionError, match="'H' has no children"):
            tree_from_sexpr("(ROOT (H) a)")

    def test_trailing_content_rejected(self):
        with pytest.raises(ConversionError, match="trailing"):
            tree_from_sexpr("(ROOT (H a)) junk")

    def test_label_with_space_rejected(self):
        # The bracketed format cannot hold such a label, so no valid tree has one.
        tree = ConstituentTree(
            tokens=(Token(form="a"),),
            root=TreeNode(label="ROOT", children=(TreeNode(label="H X", children=(TreeNode(leaf=1),)),)),
        )
        assert tree.validate() == [
            "label 'H X' holds white space, '(', ')', '+' or an unpaired surrogate"
        ]


class TestDeepInput:
    """Deep trees convert at the default recursion limit.  Only
    ``ConstituentTree.validate`` (about 990 levels) and the JSONL tree form
    (about 490) still recurse."""

    def test_2000_deep_chain_to_sexpr(self):
        assert sys.getrecursionlimit() <= 1000
        tree = graph_to_tree(right_branching_chain(2000)).tree
        text = tree_to_sexpr(tree)
        assert text.startswith("(ROOT w1 (A w2 (P w3 (H w4 (A w5")
        assert text.endswith("(A w2000 w2001)" + ")" * 1999)
        assert len(tree.spans()) == 2000

    def test_500_deep_round_trip(self):
        # About 1.5 s, nearly all in validate's leaf walk.
        graph = right_branching_chain(500)
        result = graph_to_tree(graph)
        tree = tree_from_sexpr(tree_to_sexpr(result.tree))
        assert tree.spans() == result.tree.spans()
        restored, marked = tree_to_graph(tree)
        assert restored.same_structure(primary_only(graph))
        assert [restored.yield_of(m) for m in marked] == [tuple(range(251, 502))]


def _flat_root(n: int):
    return TreeNode(
        label="ROOT",
        children=tuple(
            TreeNode(label="H", children=(TreeNode(leaf=i),)) for i in range(1, n + 1)
        ),
    )


class TestRoundTripProperty:
    def test_generated_corpus_round_trips(self):
        spec = SyntheticSpec(
            sentences=60,
            min_tokens=2,
            max_tokens=14,
            p_remote=0.3,
            p_discontinuity=0.5,
        )
        graphs = generate(spec, seed=11)
        saw_remote = saw_disc = 0
        for g in graphs:
            result = graph_to_tree(g)
            assert result.lossy_moves == 0
            restored, marked = tree_to_graph(result.tree)
            assert restored.validate() == []
            assert restored.same_structure(primary_only(g))
            # Marked nodes correspond exactly to former remote children.
            want = sorted(g.yield_of(e.child) for e in g.remote_edges)
            assert sorted(restored.yield_of(m) for m in marked) == want
            saw_remote += len(g.remote_edges)
            saw_disc += sum(g.is_discontinuous(v) for v in g.nonterminals)
        assert saw_remote > 0 and saw_disc > 0

    def test_simple_graph_round_trip(self):
        g = simple_graph(["A", "P", "U"])
        result = graph_to_tree(g)
        assert result.lossy_moves == 0 and result.dropped_remote_edges == ()
        restored, marked = tree_to_graph(result.tree)
        assert marked == () and restored.same_structure(g)
