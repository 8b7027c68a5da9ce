"""Property tests of the input contract, run in-process through the CLI.

Every command that reads a record either succeeds or exits 1 with the
JSON error naming the file and the record's line (or its 1-based record
number, where a record fails after reading); no other exception escapes.
Records are mutated one field at a time from valid ones.  Where the
contract fixes the outcome of a record, the tests also check what a
successful run wrote: a converted graph decodes back to itself, and
sentences and feature matrices are accepted exactly when the formats
allow them.  Valid graphs with labels and forms drawn from the whole
allowed alphabet round-trip losslessly through the bracketed format.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import re
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uccatree.cli import main  # noqa: E402
from uccatree.conversion import (  # noqa: E402
    escape_token,
    graph_to_tree,
    tree_from_sexpr,
    tree_to_graph,
    unescape_token,
)
from uccatree.generator import SyntheticSpec, generate  # noqa: E402
from uccatree.graph_model import (  # noqa: E402
    ConstituentTree,
    Edge,
    Token,
    UccaGraph,
    dump_corpus,
    load_corpus,
    load_lines,
)
from uccatree.neural_core import ModelParams  # noqa: E402
from uccatree.training import TrainConfig, build_model_config  # noqa: E402

from conftest import german_example, primary_only, simple_graph  # noqa: E402

TINY_TRAIN = {
    "seed": 1,
    "max_epochs": 1,
    "patience": 1,
    "learning_rate": 0.05,
    "word_dim": 4,
    "tag_dim": 2,
    "lang_dim": 2,
    "lstm_hidden": 4,
    "mlp_hidden": 6,
    "remote_mlp_dim": 3,
    "use_pos": False,
    "use_ner": False,
    "use_dep": False,
}

GRAPH = german_example().to_json()
TREE = graph_to_tree(german_example()).tree.to_json()
SEXPR = "(ROOT (H (U a) (H-ancestor1 (A-remote b) (P c d)) (L-ancestor1 e) (P f) (U g)))"
FEATURES = {"vectors": [[0.5, -0.25], [1.0, 2.0]]}  # for a two-token sentence

DELETE = object()  # a mutation that removes the key instead of setting it

# Values that break the label grammar, the token rules or the JSON shapes
# the readers expect, mixed with harmless ones.
ODD_VALUES = st.one_of(
    st.sampled_from(
        [
            "", "X", "A+B", "A-remote", "A-ancestor1", "ROOT", "NOT-PARENT", "A B", "(", "x)",
            "a\nb", "a\rb", "\ud800", "\xa0", "-remote", "+",
        ]
    ),
    st.integers(-2, 20),
    st.sampled_from([None, True, False, 1.5, float("nan"), float("inf"), -float("inf"), 1e300]),
    st.lists(st.integers(0, 3), max_size=2),
    st.just({}),
    st.just(DELETE),
)


def json_paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, its root excluded."""
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def mutated(record: dict, path: tuple, value) -> dict:
    """A deep copy of ``record`` with ``value`` at ``path``."""
    record = json.loads(json.dumps(record))
    *parents, last = path
    target = record
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return record


def mutations(record: dict):
    return st.tuples(st.sampled_from(list(json_paths(record))), ODD_VALUES)


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as path:
        config = f"{path}/train.json"
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(TINY_TRAIN, fh)
        model_config = build_model_config([german_example()], TrainConfig.from_json(TINY_TRAIN))
        ModelParams.initialize(model_config, seed=0).save(f"{path}/model.json")
        wide = dataclasses.replace(model_config, external_dim=2)
        ModelParams.initialize(wide, seed=0).save(f"{path}/model-ext.json")
        yield path


def run(*argv: str) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def assert_contract(outcome: tuple[int, str], path: str) -> bool:
    """Whether the run succeeded; a failure must be the JSON error naming
    the second record of ``path``, the one every test mutates."""
    code, err = outcome
    if code == 0:
        return True
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] in ("ValueError", "CliError"), error
    assert error["message"].startswith((f"{path}:2: ", f"{path}: record 2: ")), error
    return False


def write_lines(path: str, *lines: str) -> str:
    # Unpaired surrogates go out as the bytes of no UTF-8 text.
    with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return path


def write_graphs(workdir: str, record: dict) -> str:
    """A corpus of the German graph and then ``record``."""
    return write_lines(f"{workdir}/graphs.jsonl", json.dumps(GRAPH), json.dumps(record))


def assert_converts_back(corpus: str, trees: str) -> None:
    """Each line of ``trees`` decodes to the graph on the same line of
    ``corpus``, remote edges aside, unless its conversion was lossy."""
    graphs = load_corpus(corpus)
    with open(trees, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]  # not splitlines: forms may hold "\x85"
    assert len(lines) == len(graphs)
    for graph, line in zip(graphs, lines):
        if graph_to_tree(graph).lossy_moves:
            continue
        lang = graph.tokens[0].lang
        restored, marked = tree_to_graph(tree_from_sexpr(line, lang=lang))
        tokens = tuple(Token(form=t.form, lang=lang) for t in graph.tokens)
        expected = primary_only(graph)
        expected = UccaGraph(tokens, expected.root, expected.nonterminals, expected.edges)
        assert restored.same_structure(expected)
        remote_yields = sorted(graph.yield_of(c) for c in {e.child for e in graph.remote_edges})
        assert sorted(restored.yield_of(m) for m in marked) == remote_yields


# German edge 0 is 8 -> 9 ("H"), the last edge is the remote 10 -> 12.
@example(mutation=(("edges", 0, "label"), 7))
@example(mutation=(("edges", 0, "label"), "A+B"))
@example(mutation=(("edges", 0, "label"), "A-remote"))
@example(mutation=(("edges", 0, "label"), "A B"))
@example(mutation=(("tokens", 1, "form"), 7))
@example(mutation=(("tokens", 1, "form"), "a\nb"))
@settings(max_examples=60)
@given(mutation=mutations(GRAPH))
def test_graph_records_through_stats_convert_eval_and_parse(workdir, mutation):
    corpus = write_graphs(workdir, mutated(GRAPH, *mutation))
    assert_contract(run("stats", "--in", corpus), corpus)
    trees = f"{workdir}/trees.txt"
    if assert_contract(run("convert", "--in", corpus, "--out", trees), corpus):
        assert_converts_back(corpus, trees)
    assert_contract(run("eval", "--gold", corpus, "--pred", corpus), corpus)
    model = f"{workdir}/model.json"
    parsed = f"{workdir}/parsed.jsonl"
    if assert_contract(run("parse", "--model", model, "--in", corpus, "--out", parsed), corpus):
        assert len(load_corpus(parsed)) == 2


@example(mutation=(("edges", 0, "label"), "ROOT"))
@example(mutation=(("edges", 15, "label"), "NOT-PARENT"))
@settings(max_examples=20)
@given(mutation=mutations(GRAPH))
def test_graph_records_through_train(workdir, mutation):
    corpus = write_graphs(workdir, mutated(GRAPH, *mutation))
    argv = ["--train", corpus, "--dev", corpus, "--config", f"{workdir}/train.json"]
    assert_contract(run("train", *argv, "--out", f"{workdir}/trained.json"), corpus)


def acceptable_sentence(record: dict) -> bool:
    """The token rules, restated: a non-empty token list of objects with
    string features, each form non-empty and free of line breaks and
    unpaired surrogates, and a string language."""
    tokens = record.get("tokens")
    if not isinstance(tokens, list) or not tokens or not isinstance(record.get("lang", ""), str):
        return False
    for token in tokens:
        if not isinstance(token, dict) or "form" not in token:
            return False
        if not all(isinstance(token.get(k, ""), str) for k in ("form", "pos", "ner", "dep")):
            return False
        if not token["form"] or re.search("[\n\r\ud800-\udfff]", token["form"]):
            return False
    return True


SENTENCE = {"tokens": GRAPH["tokens"][:3], "lang": "de"}


@example(mutation=(("tokens", 0, "form"), 7))
@example(mutation=(("tokens", 2, "form"), "a\nb"))
@settings(max_examples=40)
@given(mutation=mutations(SENTENCE))
def test_token_records_through_parse(workdir, mutation):
    record = mutated(SENTENCE, *mutation)
    sentences = write_lines(f"{workdir}/sentences.jsonl", json.dumps(SENTENCE), json.dumps(record))
    parsed = f"{workdir}/parsed.jsonl"
    argv = ["--model", f"{workdir}/model.json", "--in", sentences, "--out", parsed]
    ok = assert_contract(run("parse", *argv), sentences)
    assert ok == acceptable_sentence(record)
    if ok:
        assert [len(g.tokens) for g in load_corpus(parsed)] == [3, len(record["tokens"])]


SEXPR_PIECES = st.sampled_from(
    ["(", ")", " ", "\t", "+", "-remote", "-ancestor1", "ROOT", "NOT-PARENT", "z", "\x0b", "\xa0", "\ud800"]
)


@st.composite
def mutated_sexprs(draw) -> str:
    """The German tree's bracketing with a few pieces inserted or cut out."""
    text = SEXPR
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.one_of(st.just(""), SEXPR_PIECES)) + text[j:]
    return text


@example(tree=("jsonl", (("tree", "children", 0, "label"), 7)))
@example(tree=("jsonl", (("tree", "children", 0, "children", 0, "label"), "ROOT")))
@example(tree=("sexpr", SEXPR.replace("A-remote", "A-remote-remote")))
@settings(max_examples=60)
@given(
    tree=st.one_of(
        st.tuples(st.just("jsonl"), mutations(TREE)), st.tuples(st.just("sexpr"), mutated_sexprs())
    )
)
def test_tree_records_through_restore(workdir, tree):
    fmt, change = tree
    if fmt == "jsonl":
        lines = json.dumps(TREE), json.dumps(mutated(TREE, *change))
    else:
        lines = SEXPR, change
    trees = write_lines(f"{workdir}/trees.{fmt}", *lines)
    restored = f"{workdir}/restored.jsonl"
    argv = ["--in", trees, "--remotes-model", f"{workdir}/model.json", "--format", fmt]
    if assert_contract(run("restore", *argv, "--out", restored), trees):
        assert all(g.validate() == [] for g in load_corpus(restored))


def acceptable_features(record: dict, tokens: int) -> bool:
    """Whether ``record`` holds one finite vector of width 2 per token."""
    try:
        matrix = np.asarray(record["vectors"], dtype=np.float64)
    except (KeyError, TypeError, ValueError):
        return False
    return matrix.shape == (tokens, 2) and bool(np.isfinite(matrix).all())


# Finite but huge features saturate the LSTM gates, which numpy reports.
@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@example(mutation=(("vectors", 0, 1), float("nan")))
@example(mutation=(("vectors", 1, 0), float("inf")))
@settings(max_examples=30)
@given(mutation=mutations(FEATURES))
def test_feature_records_through_parse_and_train(workdir, mutation):
    record = mutated(FEATURES, *mutation)
    corpus = f"{workdir}/pairs.jsonl"
    dump_corpus([simple_graph(["A", "P"], n=2), simple_graph(["P", "A"], n=2)], corpus)
    features = write_lines(f"{workdir}/features.jsonl", json.dumps(FEATURES), json.dumps(record))
    expected = acceptable_features(record, 2)
    argv = ["--model", f"{workdir}/model-ext.json", "--in", corpus, "--external-features", features]
    assert assert_contract(run("parse", *argv, "--out", f"{workdir}/parsed.jsonl"), features) == expected
    argv = ["--train", corpus, "--dev", corpus, "--config", f"{workdir}/train.json"]
    argv += ["--external-features", features, "--dev-external-features", features]
    assert assert_contract(run("train", *argv, "--out", f"{workdir}/trained.json"), features) == expected


# --- valid graphs over the whole allowed alphabet --------------------------

# Labels over the whole allowed alphabet, with some that look like the
# reserved syntax without being it.
LABELS = st.one_of(
    st.sampled_from(["A-remote1", "remote", "-", "A-ancestor", "ancestor1", "ROOTS", "not-parent"]),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="()+"), max_size=6),
).filter(
    lambda s: s
    and not any(c.isspace() for c in s)
    and not s.endswith(("-remote", "-ancestor1"))
    and s not in ("ROOT", "NOT-PARENT")
)
# Forms may hold anything but line breaks and unpaired surrogates, but the
# escape sequences of the bracketed format ("-LRB-", ...) do not survive it.
FORMS = st.one_of(
    st.sampled_from(["(", ")", "a b", "\t", "(x y)", "A+B", "ROOT", "-remote", "\x0b", "\x85", "\u2028"]),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\r"), max_size=5),
).filter(lambda f: f and unescape_token(escape_token(f)) == f)


def spine_graph(rnd: random.Random, depth: int) -> UccaGraph:
    """A spine of ``depth`` nonterminals, each with a token on its left,
    on its right or none (a unary link, written as a "+" chain), some
    tokens under preterminals, and remote edges from spine nodes to nodes
    further down.  Every label is "A"."""
    sides = [rnd.choice(["left", "right", "unary"]) for _ in range(depth)]
    left = [level for level, side in enumerate(sides) if side == "left"]
    right = [level for level, side in reversed(list(enumerate(sides))) if side == "right"]
    n = len(left) + len(right) + 1
    spine = list(range(n + 1, n + 1 + depth))
    edges = [Edge(spine[k], spine[k + 1], "A") for k in range(depth - 1)]
    below = [(k + 1, spine[k + 1]) for k in range(depth - 1)]  # (level, node); spine[k] is at level k
    next_id = spine[-1] + 1
    for position, level in enumerate(left + [depth - 1] + right, start=1):
        if rnd.random() < 0.5:
            edges += [Edge(spine[level], next_id, "A"), Edge(next_id, position, "")]
            below.append((level + 1, next_id))
            next_id += 1
        else:
            edges.append(Edge(spine[level], position, ""))
    primary = {(e.parent, e.child) for e in edges}
    chosen = rnd.sample(below, min(3, len(below)))
    remotes = {(spine[rnd.randrange(level)], child) for level, child in chosen}
    edges += [Edge(p, c, "A", remote=True) for p, c in sorted(remotes - primary)]
    return UccaGraph(
        tokens=tuple(Token(form="w") for _ in range(n)),
        root=spine[0],
        nonterminals=frozenset(range(n + 1, next_id)),
        edges=tuple(edges),
    )


def dressed(shape: UccaGraph, labels: list, forms: list, lang: str, rnd: random.Random) -> UccaGraph:
    """``shape`` with its labels and forms picked from ``labels`` and ``forms``."""
    return UccaGraph(
        tokens=tuple(Token(form=rnd.choice(forms), lang=lang) for _ in shape.tokens),
        root=shape.root,
        nonterminals=shape.nonterminals,
        edges=tuple(
            dataclasses.replace(e, label=rnd.choice(labels)) if e.label else e for e in shape.edges
        ),
    )


@st.composite
def valid_graphs(draw) -> UccaGraph:
    """A spine graph up to 200 levels deep, or a generated graph with
    discontinuities, with labels and forms drawn from small pools."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=6))
    forms = draw(st.lists(FORMS, min_size=1, max_size=6))
    lang = draw(st.sampled_from(["", "de"]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["shallow", "deep", "generated"]))
    if kind == "generated":
        spec = SyntheticSpec(sentences=1, max_tokens=12, p_discontinuity=0.7)
        [shape] = generate(spec, seed=rnd.randrange(2**32))
    else:
        depth = draw(st.integers(1, 12) if kind == "shallow" else st.integers(150, 200))
        shape = spine_graph(rnd, depth)
    return dressed(shape, labels, forms, lang, rnd)


@example(
    graph=dressed(
        spine_graph(random.Random(1), 200),
        ["A-remote1", "\x01", "ÄÖ"], ["(", "a b", "\x85"], "de", random.Random(2),
    )
)
@example(
    graph=dressed(
        spine_graph(random.Random(3), 199), ["-", "ROOTS", "H"], ["\t", ")", "\u2028"], "", random.Random(4)
    )
)
@settings(max_examples=25)
@given(graph=valid_graphs())
def test_valid_graphs_round_trip_through_sexpr(workdir, graph):
    assert graph.validate() == []
    corpus, trees = f"{workdir}/valid.jsonl", f"{workdir}/valid.txt"
    dump_corpus([graph], corpus)
    assert run("convert", "--in", corpus, "--out", trees) == (0, "")
    assert_converts_back(corpus, trees)
    [tree] = load_lines(trees, lambda line: tree_from_sexpr(line, graph.tokens[0].lang), "tree")
    assert isinstance(tree, ConstituentTree) and tree.validate() == []
    # One step outside the alphabet, the same graph is refused: the label
    # syntax of trees would not decode back to it.
    for k in [k for k, e in enumerate(graph.edges) if e.label][:1]:
        edge = graph.edges[k]
        for label in (edge.label + "-remote", edge.label + "-ancestor1", f"{edge.label}+A", "ROOT"):
            edges = graph.edges[:k] + (dataclasses.replace(edge, label=label),) + graph.edges[k + 1 :]
            assert dataclasses.replace(graph, edges=edges).validate() != [], label
