"""Core graph/tree data model: yields, validation, serialization."""

from __future__ import annotations

import json

import pytest

from uccatree.conversion import remove_discontinuities
from uccatree.graph_model import (
    ConstituentTree,
    Edge,
    Token,
    TreeNode,
    UccaGraph,
    dump_corpus,
    load_corpus,
    load_token_lines,
    token_problems,
)

from conftest import german_example, simple_graph


def minimal_graph() -> UccaGraph:
    return UccaGraph(
        tokens=(Token(form="hi"),),
        root=2,
        nonterminals=frozenset({2}),
        edges=(Edge(2, 1, ""),),
    )


class TestYields:
    def test_discontinuous_node_yield(self, german_graph):
        # Node 10 dominates the opening quote, "tastete" and the period.
        assert german_graph.yield_of(10) == (1, 6, 7)

    def test_terminal_yield_is_singleton(self, german_graph):
        assert german_graph.yield_of(4) == (4,)

    def test_root_yield_covers_sentence(self, german_graph):
        assert german_graph.yield_of(german_graph.root) == tuple(range(1, 8))

    def test_unknown_node_rejected(self, german_graph):
        with pytest.raises(ValueError):
            german_graph.yield_of(99)

    def test_primary_cycle_rejected(self):
        # Unvalidated input (a graph built in code) can hold a primary
        # cycle; every walk of the primary tree must stop with an error.
        cyclic = UccaGraph(
            tokens=(Token(form="hi"),),
            root=2,
            nonterminals=frozenset({2, 3, 4}),
            edges=(Edge(2, 3, "A"), Edge(3, 4, "B"), Edge(4, 3, "C"), Edge(4, 1, "")),
        )
        for walk in (lambda g: g.yield_of(2), UccaGraph.canonical_ids, remove_discontinuities):
            with pytest.raises(ValueError, match="do not form a tree"):
                walk(cyclic)

    def test_discontinuity_flags(self, german_graph):
        assert german_graph.is_discontinuous(10) is True
        assert german_graph.is_discontinuous(13) is False  # "ging umher"
        assert german_graph.is_discontinuous(14) is False  # singleton yield

    def test_discontinuity_undefined_for_terminals(self, german_graph):
        with pytest.raises(ValueError):
            german_graph.is_discontinuous(3)

    def test_fencepost_span(self, german_graph):
        assert german_graph.fencepost_span(13) == (2, 4)  # tokens 3..4
        assert german_graph.fencepost_span(10) == (0, 7)  # stretched interval


class TestValidate:
    def test_worked_example_is_valid(self, german_graph):
        assert german_graph.validate() == []

    def test_minimal_graph_is_valid(self):
        assert minimal_graph().validate() == []

    def test_primary_edge_count(self, german_graph):
        # A valid graph's primary edges form a spanning tree.
        assert len(german_graph.primary_edges) == len(german_graph.nonterminals) + german_graph.n - 1

    def test_remote_to_terminal_rejected(self, german_graph):
        bad = UccaGraph(
            tokens=german_graph.tokens,
            root=german_graph.root,
            nonterminals=german_graph.nonterminals,
            edges=german_graph.edges + (Edge(10, 2, "A", remote=True),),
        )
        assert any("terminal" in p for p in bad.validate())

    def test_remote_duplicate_of_primary_rejected(self, german_graph):
        bad = UccaGraph(
            tokens=german_graph.tokens,
            root=german_graph.root,
            nonterminals=german_graph.nonterminals,
            edges=german_graph.edges + (Edge(9, 12, "A", remote=True),),
        )
        assert any("duplicates a primary edge" in p for p in bad.validate())

    def test_two_primary_parents_rejected(self, german_graph):
        bad = UccaGraph(
            tokens=german_graph.tokens,
            root=german_graph.root,
            nonterminals=german_graph.nonterminals,
            edges=german_graph.edges + (Edge(9, 13, "X"),),
        )
        assert any("primary parents" in p for p in bad.validate())

    def test_remote_cycle_rejected(self, german_graph):
        # 9 is an ancestor of 12; a remote edge 12->9 closes a cycle.
        bad = UccaGraph(
            tokens=german_graph.tokens,
            root=german_graph.root,
            nonterminals=german_graph.nonterminals,
            edges=german_graph.edges + (Edge(12, 9, "A", remote=True),),
        )
        assert any("cycle" in p for p in bad.validate())

    def test_orphan_nonterminal_rejected(self):
        g = UccaGraph(
            tokens=(Token(form="a"),),
            root=2,
            nonterminals=frozenset({2, 3}),
            edges=(Edge(2, 1, ""),),
        )
        assert any("primary parents" in p for p in g.validate())

    def test_childless_nonterminal_rejected(self):
        g = UccaGraph(
            tokens=(Token(form="a"),),
            root=2,
            nonterminals=frozenset({2, 3}),
            edges=(Edge(2, 1, ""), Edge(2, 3, "H")),
        )
        assert any("no children" in p for p in g.validate())

    def test_empty_token_form_rejected(self):
        g = UccaGraph(
            tokens=(Token(form=""),),
            root=2,
            nonterminals=frozenset({2}),
            edges=(Edge(2, 1, ""),),
        )
        assert any("empty form" in p for p in g.validate())

    @staticmethod
    def chain_with_remotes(*remotes: tuple[int, int]) -> UccaGraph:
        """Root 3 over H 4 over A 5 over P 6 over token 1, and root 3 over
        U 7 over token 2, plus the given remote edges."""
        return UccaGraph(
            tokens=(Token(form="a"), Token(form="b")),
            root=3,
            nonterminals=frozenset({3, 4, 5, 6, 7}),
            edges=(
                Edge(3, 4, "H"), Edge(4, 5, "A"), Edge(5, 6, "P"), Edge(6, 1, ""),
                Edge(3, 7, "U"), Edge(7, 2, ""),
            )
            + tuple(Edge(p, c, "A", remote=True) for p, c in remotes),
        )

    @pytest.mark.parametrize(
        "remotes",
        [[(5, 4)], [(6, 4)], [(5, 7), (7, 4)], [(6, 7), (7, 5)]],
        ids=["2-edge", "3-edge", "3-edge-two-remotes", "4-edge-two-remotes"],
    )
    def test_cycles_closed_by_remote_edges_rejected(self, remotes):
        assert self.chain_with_remotes(*remotes).validate() == ["full edge set contains a cycle"]

    def test_primary_cycle_apart_from_the_root_rejected(self):
        # 4 and 5 are each other's primary parent: every node has one, and
        # neither is reachable from the root.
        g = UccaGraph(
            tokens=(Token(form="a"), Token(form="b")),
            root=3,
            nonterminals=frozenset({3, 4, 5}),
            edges=(Edge(3, 1, ""), Edge(4, 5, "A"), Edge(5, 4, "B"), Edge(5, 2, "")),
        )
        assert g.validate() == ["full edge set contains a cycle"]

    def test_remote_edges_into_a_chain_without_a_cycle_accepted(self):
        assert self.chain_with_remotes((4, 6), (7, 5), (4, 7)).validate() == []

    @pytest.mark.parametrize(
        "label, problem",
        [
            ("", "empty label"),
            (7, "label 7 is not a string"),
            (None, "label None is not a string"),
            ("A+B", "holds white space, '(', ')', '+' or an unpaired surrogate"),
            ("A B", "holds white space"),
            ("A\u00a0B", "holds white space"),
            ("(A", "holds white space"),
            ("A)", "holds white space"),
            ("A\ud800", "holds white space"),
            ("A-remote", "ends in a conversion marker"),
            ("A-ancestor1", "ends in a conversion marker"),
            ("ROOT", "label 'ROOT' is reserved"),
            ("NOT-PARENT", "label 'NOT-PARENT' is reserved"),
        ],
    )
    def test_label_grammar(self, label, problem):
        [found] = simple_graph([label], n=1).validate()
        assert found.startswith("edge 2->3: ") and problem in found

    @pytest.mark.parametrize("label", ["A-remote1", "A-remoteX", "-", "Ä", "ROOTS", "root", "a-b_c"])
    def test_label_grammar_allows(self, label):
        assert simple_graph([label], n=1).validate() == []

    def test_reserved_remote_label_rejected(self, german_graph):
        bad = UccaGraph(
            tokens=german_graph.tokens,
            root=german_graph.root,
            nonterminals=german_graph.nonterminals,
            edges=german_graph.edges[:-1] + (Edge(10, 12, "NOT-PARENT", remote=True),),
        )
        assert bad.validate() == ["edge 10->12: label 'NOT-PARENT' is reserved"]

    def test_labeled_terminal_edge_rejected(self):
        g = UccaGraph(
            tokens=(Token(form="a"),),
            root=2,
            nonterminals=frozenset({2}),
            edges=(Edge(2, 1, "A"),),
        )
        assert g.validate() == ["edge 2->1 to a terminal has label 'A'"]

    @pytest.mark.parametrize(
        "token, problem",
        [
            (Token(form="a\nb"), "token 1 has a line break or an unpaired surrogate in its form"),
            (Token(form="a\rb"), "token 1 has a line break or an unpaired surrogate in its form"),
            (Token(form="\udc00"), "token 1 has a line break or an unpaired surrogate in its form"),
            (Token(form=7), "token 1 has a feature that is not a string"),
            (Token(form="a", pos=None), "token 1 has a feature that is not a string"),
            (Token(form="a", lang=["en"]), "token 1 has a feature that is not a string"),
        ],
    )
    def test_token_rule(self, token, problem):
        assert token_problems([token]) == [problem]

    def test_token_forms_may_hold_spaces_tabs_and_brackets(self):
        assert token_problems([Token(form=f) for f in ["a b", "a\tb", "(", "\x0b"]]) == []


class TestCanonical:
    def test_renumbering_is_structure_preserving(self, german_graph):
        shifted = UccaGraph(
            tokens=german_graph.tokens,
            root=german_graph.root + 100,
            nonterminals=frozenset(v + 100 for v in german_graph.nonterminals),
            edges=tuple(
                Edge(
                    e.parent + 100,
                    e.child if e.child <= 7 else e.child + 100,
                    e.label,
                    e.remote,
                )
                for e in german_graph.edges
            ),
        )
        assert shifted.validate() == []
        assert german_graph.same_structure(shifted)

    def test_label_change_breaks_equality(self, german_graph):
        edges = tuple(
            Edge(e.parent, e.child, "X" if e.label == "L" else e.label, e.remote)
            for e in german_graph.edges
        )
        other = UccaGraph(
            tokens=german_graph.tokens,
            root=german_graph.root,
            nonterminals=german_graph.nonterminals,
            edges=edges,
        )
        assert not german_graph.same_structure(other)

    def test_canonical_is_idempotent(self, german_graph):
        c = german_graph.canonical()
        assert c.canonical() == c


class TestSerialization:
    def test_graph_round_trip(self, german_graph):
        data = json.loads(json.dumps(german_graph.to_json()))
        back = UccaGraph.from_json(data)
        assert back == german_graph

    def test_corpus_round_trip(self, tmp_path, german_graph):
        path = str(tmp_path / "corpus.jsonl")
        graphs = [german_graph, minimal_graph(), simple_graph(["A", "P", "U"])]
        dump_corpus(graphs, path)
        assert load_corpus(path) == graphs

    def test_malformed_record_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokens": []}\n')
        with pytest.raises(ValueError, match=":1:"):
            load_corpus(str(path))

    def test_token_lines_ignore_graph_part(self, tmp_path, german_graph):
        path = str(tmp_path / "corpus.jsonl")
        dump_corpus([german_graph], path)
        sentences = load_token_lines(path)
        assert sentences == [german_graph.tokens]

    def test_token_lines_accept_tokens_only(self, tmp_path):
        path = tmp_path / "tokens.jsonl"
        path.write_text(json.dumps({"tokens": [{"form": "hey"}], "lang": "en"}) + "\n")
        sentences = load_token_lines(str(path))
        assert sentences == [(Token(form="hey", lang="en"),)]


def small_tree() -> ConstituentTree:
    tokens = (Token(form="a"), Token(form="b"))
    root = TreeNode(
        label="ROOT",
        children=(
            TreeNode(label="H", children=(TreeNode(leaf=1), TreeNode(leaf=2))),
        ),
    )
    return ConstituentTree(tokens=tokens, root=root)


class TestConstituentTree:
    def test_valid_tree(self):
        assert small_tree().validate() == []

    def test_leaf_positions_and_spans(self):
        tree = small_tree()
        h = tree.root.children[0]
        assert h.leaf_positions == (1, 2)
        # The root's one-child chain is one labeled span; leaves have none.
        assert tree.spans() == {(0, 2): "ROOT+H"}

    def test_spans_in_preorder(self):
        tokens = tuple(Token(form=f) for f in "abcd")
        leaf = [TreeNode(leaf=i) for i in range(1, 5)]
        chain = TreeNode(label="C", children=(TreeNode(label="D", children=(leaf[2], leaf[3])),))
        a = TreeNode(label="A", children=(TreeNode(label="B", children=(leaf[0],)), leaf[1]))
        tree = ConstituentTree(tokens, TreeNode(label="ROOT", children=(a, chain)))
        assert list(tree.spans().items()) == [
            ((0, 4), "ROOT"), ((0, 2), "A"), ((0, 1), "B"), ((2, 4), "C+D")
        ]

    def test_from_spans_builds_the_plus_form(self):
        tokens = tuple(Token(form=f) for f in "abc")
        spans = {(1, 2): "P", (0, 3): "ROOT+H+A", (1, 3): "E"}
        tree = ConstituentTree.from_spans(tokens, spans)
        # Only the root's "ROOT" head is a node of its own.
        leaf = [TreeNode(leaf=i) for i in range(1, 4)]
        inner = TreeNode(label="E", children=(TreeNode(label="P", children=(leaf[1],)), leaf[2]))
        chain = TreeNode(label="H+A", children=(leaf[0], inner))
        assert tree == ConstituentTree(tokens, TreeNode(label="ROOT", children=(chain,)))
        assert tree.validate() == []
        assert tree.spans() == spans

    def test_wrong_root_label_rejected(self):
        tree = small_tree()
        bad = ConstituentTree(
            tokens=tree.tokens,
            root=TreeNode(label="S", children=tree.root.children),
        )
        assert any("ROOT" in p for p in bad.validate())

    def test_leaf_order_enforced(self):
        tokens = (Token(form="a"), Token(form="b"))
        root = TreeNode(label="ROOT", children=(TreeNode(leaf=2), TreeNode(leaf=1)))
        assert ConstituentTree(tokens=tokens, root=root).validate() != []

    def test_discontinuous_internal_node_rejected(self):
        tokens = tuple(Token(form=f) for f in "abc")
        gap = TreeNode(label="X", children=(TreeNode(leaf=1), TreeNode(leaf=3)))
        root = TreeNode(label="ROOT", children=(gap, TreeNode(leaf=2)))
        assert any("do not cover" in p for p in ConstituentTree(tokens, root).validate())

    def test_empty_internal_label_rejected(self):
        tokens = (Token(form="a"),)
        root = TreeNode(
            label="ROOT",
            children=(TreeNode(label="", children=(TreeNode(leaf=1),)),),
        )
        assert any("empty label" in p for p in ConstituentTree(tokens, root).validate())

    @pytest.mark.parametrize(
        "label, problem",
        [
            ("E+F", None),
            ("A-remote-ancestor1", None),
            ("E-ancestor1+A-remote", None),
            ("A-ancestor1-remote", "in 'A-ancestor1-remote', label 'A-ancestor1' ends in a conversion marker"),
            ("A-remote-remote", "in 'A-remote-remote', label 'A-remote' ends in a conversion marker"),
            ("A++B", "in 'A++B', empty label"),
            ("-remote", "in '-remote', empty label"),
            ("ROOT", "label 'ROOT' is reserved"),
            ("H+ROOT", "in 'H+ROOT', label 'ROOT' is reserved"),
            ("NOT-PARENT-remote", "in 'NOT-PARENT-remote', label 'NOT-PARENT' is reserved"),
            (5, "label 5 is not a string"),
        ],
    )
    def test_label_grammar_per_part(self, label, problem):
        # The labeled node sits below "H" next to a token, where a move
        # marker on its head can be undone.
        node = TreeNode(label=label, children=(TreeNode(leaf=1),))
        tree = ConstituentTree(
            (Token(form="a"), Token(form="b")),
            TreeNode(label="ROOT", children=(TreeNode(label="H", children=(node, TreeNode(leaf=2))),)),
        )
        assert tree.validate() == ([problem] if problem else [])

    def test_internal_node_over_childless_nodes_reported(self):
        # "A" has a child but no leaf below it: a problem, not an IndexError.
        tree = json.loads(
            '{"label":"ROOT","children":[{"leaf":1},'
            '{"label":"A","children":[{"label":"B","children":[]}]}]}'
        )
        data = {"tokens": [{"form": "a"}], "lang": "en", "tree": tree}
        with pytest.raises(ValueError, match="internal node 'A' covers no token"):
            ConstituentTree.from_json(data)

    def test_tree_json_round_trip(self):
        tree = small_tree()
        back = ConstituentTree.from_json(json.loads(json.dumps(tree.to_json())))
        assert back == tree


def test_worked_example_fixture_helper_matches_fixture(german_graph):
    assert german_example() == german_graph
