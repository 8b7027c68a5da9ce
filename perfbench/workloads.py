"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup``, runs one
operation per call of ``op`` and, for the traced run, ``traced_op``
repeats the same public call sequence with a span around each call into
a module.  ``check`` verifies one op's output after its clock stopped;
``final_checks`` runs once after the loop.

Every ``SyntheticSpec`` field is passed explicitly, so a change of the
generator's defaults cannot change the inputs.  The input fingerprint
still changes when the generator's algorithm does.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from uccatree.autodiff import gradcheck
from uccatree.conversion import (
    graph_to_tree,
    remove_discontinuities,
    strip_remotes,
    tree_from_sexpr,
    tree_to_graph,
    tree_to_sexpr,
)
from uccatree.evaluation import score
from uccatree.generator import SyntheticSpec, generate
from uccatree.graph_model import ConstituentTree, Edge, Token, UccaGraph
from uccatree.neural_core import (
    NOT_PARENT,
    AdamState,
    BoundParams,
    ModelConfig,
    ModelParams,
    adam_step,
    embed,
    encode,
)
from uccatree.remote_recovery import enumerate_pairs, loss_remote, predict_remotes
from uccatree.span_parser import gold_trace, loss_topdown, parse_topdown
from uccatree.training import (
    DECOMPOSITION_TOLERANCE,
    TrainConfig,
    build_model_config,
    parse_pipeline,
    prepare_example,
    sentence_loss,
)

from harness import OP_SPAN, Fingerprint, Tracer

LABELS = ("A", "P", "H", "L", "U", "E", "C")

# The paper's model dimensions, spelled out with the flat train.json keys
# so that a change of TrainConfig's defaults cannot change the model.
PAPER_DIMS = {
    "word_dim": 100,
    "tag_dim": 50,
    "lang_dim": 50,
    "lstm_hidden": 250,
    "mlp_hidden": 250,
    "remote_mlp_dim": 100,
    "use_pos": True,
    "use_ner": True,
    "use_dep": True,
}

# Spans on methods that the package calls internally (tree_to_graph and
# tree_from_sexpr validate their tree, graph_to_tree its graph).  Every
# other span sits around a call the benchmark makes itself.
VALIDATE_METHODS = (
    (ConstituentTree, "validate", "graph_model.validate"),
    (UccaGraph, "validate", "graph_model.validate"),
)


def _graph_line(graph: UccaGraph) -> str:
    return json.dumps(graph.to_json(), sort_keys=True)


def spread_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order: every prefix samples the range evenly.

    Inputs are laid out in passes over sizes in this order, so a run that
    stops anywhere has seen small and large inputs in proportion.
    """
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def by_length(spec_for, lengths, passes: int, seed: int) -> list[UccaGraph]:
    """``passes`` passes over ``lengths`` in spread order, one new graph per entry.

    A length may occur more than once in a pass.  Each length has its own
    generator stream, seeded from the workload seed and the length.
    """
    counts = Counter(lengths)
    streams = {
        n: iter(generate(spec_for(n, passes * c), seed=100 * seed + n)) for n, c in counts.items()
    }
    order = [lengths[i] for i in spread_order(len(lengths))]
    return [next(streams[n]) for _ in range(passes) for n in order]


class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""
    setup_repeats = 3  # set-ups per run; setup_s is their median
    count_ops = 1  # count metrics are per-op means over this many traced ops

    def setup(self, seed: int):
        raise NotImplementedError

    def pass_ops(self, state) -> int:
        """Ops in one pass over the inputs' sizes; runs end on a pass boundary."""
        return 1

    def fingerprint(self, state, fp: Fingerprint) -> None:
        raise NotImplementedError

    def op(self, state, k: int):
        raise NotImplementedError

    def traced_op(self, state, k: int, tracer: Tracer, counts: dict | None):
        raise NotImplementedError

    def signature(self, output) -> object:
        """Comparable digest of an op's output, for replay checks."""
        raise NotImplementedError

    def check(self, state, k: int, output) -> list[str]:
        return []

    def final_checks(self, state, signatures: dict[int, object]) -> list[str]:
        return []

    def snapshot(self, state):
        """State to restore before the traced half replays the same ops."""
        return None

    def restore(self, state, snap) -> None:
        pass

    def setup_metrics(self, state) -> dict[str, float]:
        """Per-layer times measured during one set-up, in milliseconds."""
        return {}


# ---------------------------------------------------------------------------
# train-n30


@dataclass
class TrainState:
    examples: list
    params: ModelParams
    adam: AdamState
    graphs: list[UccaGraph]
    problems: list[str] = field(default_factory=list)


class TrainN30(Workload):
    """One joint training step per op: sentence_loss, then adam_step."""

    name = "train-n30"
    count_ops = 4
    learning_rate = 1e-3
    sentences = 40  # more than a run of the default length consumes

    def spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            sentences=self.sentences,
            min_tokens=30,
            max_tokens=30,
            vocab_size=50,
            max_depth=4,
            min_branch=2,
            max_branch=4,
            p_remote=0.3,
            p_discontinuity=1.0,
            labels=LABELS,
        )

    def setup(self, seed: int) -> TrainState:
        graphs = generate(self.spec(), seed=seed)
        config = TrainConfig.from_json({"seed": seed, **PAPER_DIMS})
        model_config = build_model_config(graphs, config)
        params = ModelParams.initialize(model_config, seed=seed)
        examples = [prepare_example(g) for g in graphs]
        return TrainState(examples=examples, params=params, adam=AdamState(), graphs=graphs)

    def fingerprint(self, state: TrainState, fp: Fingerprint) -> None:
        fp.add(repr(self.spec()))
        fp.add(json.dumps(PAPER_DIMS, sort_keys=True))
        for g in state.graphs:
            fp.add(_graph_line(g))

    def op(self, state: TrainState, k: int):
        example = state.examples[k % len(state.examples)]
        joint, lt, lr, grads = sentence_loss(example, state.params)
        adam_step(state.params.tensors, grads, state.adam, lr=self.learning_rate)
        return joint, lt, lr

    def traced_op(self, state: TrainState, k: int, tracer: Tracer, counts: dict | None):
        # The call sequence of training.sentence_loss, then the optimizer step.
        example = state.examples[k % len(state.examples)]
        params = state.params
        with tracer.span(OP_SPAN):
            bound = BoundParams(params)
            with tracer.span("neural_core.embed"):
                inputs = embed(example.tokens, example.lang, bound, external=example.external)
            with tracer.span("neural_core.encode"):
                enc = encode(inputs, bound)
            with tracer.span("span_parser.loss_topdown"):
                lt = loss_topdown(enc, example.trace, bound)
            with tracer.span("remote_recovery.loss_remote"):
                lr = loss_remote(example.pairs, example.gold_remotes, enc, bound)
            joint = lt + lr
            drift = abs((float(lt.value) + float(lr.value)) - float(joint.value))
            if drift > DECOMPOSITION_TOLERANCE:
                raise AssertionError(f"joint loss decomposition violated by {drift}")
            with tracer.span("autodiff.backward"):
                joint.backward()
            grads = bound.grads()
            with tracer.span("neural_core.adam_step"):
                adam_step(params.tensors, grads, state.adam, lr=self.learning_rate)
        if counts is not None:
            counts["autodiff.tape_nodes"] = _tape_nodes(joint)
            counts["remote_recovery.pairs"] = len(example.pairs)
        return float(joint.value), float(lt.value), float(lr.value)

    def signature(self, output) -> object:
        return output

    def check(self, state: TrainState, k: int, output) -> list[str]:
        if not all(np.isfinite(v) for v in output):
            return [f"non-finite loss {output}"]
        return []

    def final_checks(self, state: TrainState, signatures: dict[int, object]) -> list[str]:
        err = tiny_gradcheck()
        if not err < 1e-4:
            return [f"gradcheck relative error {err:.3e} on the tiny configuration"]
        return []

    def snapshot(self, state: TrainState):
        return state.params.copy_tensors(), copy.deepcopy(state.adam)

    def restore(self, state: TrainState, snap) -> None:
        tensors, adam = snap
        state.params.tensors = {name: arr.copy() for name, arr in tensors.items()}
        state.adam = copy.deepcopy(adam)


def _tape_nodes(root) -> int:
    """Distinct nodes reachable from a loss through the autodiff tape."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def tiny_gradcheck() -> float:
    """Finite-difference check of the joint loss on a two-unit model."""
    config = ModelConfig(
        word_dim=3,
        tag_dim=2,
        lang_dim=2,
        lstm_hidden=2,
        mlp_hidden=3,
        remote_mlp_dim=2,
        use_pos=True,
        use_ner=False,
        use_dep=False,
        multilingual=False,
        share_span_hidden=False,
        words=["<unk>", "t1", "t2", "t3"],
        languages=["<unk>", "en"],
        labels=["", "A", "P", "ROOT"],
        remote_labels=[NOT_PARENT, "A"],
    )
    params = ModelParams.initialize(config, seed=3)
    rng = np.random.default_rng(3)
    for name, tensor in params.tensors.items():
        tensor += rng.uniform(-0.3, 0.3, size=tensor.shape)
        if name.endswith("_b"):  # keep relu and hinge terms off their kinks
            tensor += rng.uniform(-0.5, 0.5, size=tensor.shape)
    tree = tree_from_sexpr("(ROOT (A t1 t2) (P t3))", lang="en")
    graph, _ = tree_to_graph(tree)
    trace = gold_trace(tree)
    a_id = next(v for v in graph.nonterminals if graph.primary_label.get(v) == "A")
    pairs = enumerate_pairs(graph, [a_id])
    gold_remotes = [(graph.root, a_id, "A")]

    def build(leaves):
        bound = BoundParams(params)
        bound.vars = leaves
        enc = encode(embed(graph.tokens, "en", bound), bound)
        return loss_topdown(enc, trace, bound) + loss_remote(pairs, gold_remotes, enc, bound)

    return gradcheck(build, params.tensors, eps=1e-5)


# ---------------------------------------------------------------------------
# parse-mixed


@dataclass
class ParseState:
    params: ModelParams
    sentences: list[tuple[Token, ...]]
    train_graphs: list[UccaGraph]
    save_s: float
    load_s: float
    problems: list[str] = field(default_factory=list)


class ParseMixed(Workload):
    """One sentence through training.parse_pipeline per op."""

    name = "parse-mixed"
    setup_repeats = 2
    count_ops = 24
    # One pass: 19 sentences of 5 to 60 tokens, a right-skewed distribution
    # with its mode at 27 tokens, as natural sentence lengths have.  Seven
    # sentences are shorter than the five of 27 tokens and seven longer,
    # so op_ms_p50 falls among many ops of one length.  A flat
    # distribution puts it where few ops of two lengths overlap, and the
    # time of those few decides it.
    lengths = (5, 10, 16, 16, 21, 21, 21, 27, 27, 27, 27, 27, 32, 32, 38, 43, 49, 54, 60)
    passes = 12  # more sentences than a run of the default length parses
    reparse_ops = 5  # ops parsed a second time to check determinism

    # The model comes from a short, fixed training run on short sentences.
    # Its recipe and seed do not depend on the workload seed: the parsed
    # sentences vary with the seed, the model does not.  A randomly
    # initialised model is no realistic input (it marks most nodes for
    # remote recovery).  Short runs are chaotic; this one gives a model
    # that marks about four times as many nodes as the gold graphs have
    # and accepts some remote edges, so every part of predict_remotes runs.
    train_seed = 1
    train_epochs = 4
    learning_rate = 2e-3

    def train_spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            sentences=10,
            min_tokens=3,
            max_tokens=6,
            vocab_size=50,
            max_depth=4,
            min_branch=2,
            max_branch=4,
            p_remote=0.6,
            p_discontinuity=0.5,
            labels=LABELS,
        )

    def parse_spec(self, length: int, sentences: int) -> SyntheticSpec:
        return SyntheticSpec(
            sentences=sentences,
            min_tokens=length,
            max_tokens=length,
            vocab_size=50,
            max_depth=4,
            min_branch=2,
            max_branch=4,
            p_remote=0.3,
            p_discontinuity=0.5,
            labels=LABELS,
        )

    def setup(self, seed: int) -> ParseState:
        train_graphs = generate(self.train_spec(), seed=self.train_seed)
        config = TrainConfig.from_json({"seed": self.train_seed, **PAPER_DIMS})
        model_config = build_model_config(train_graphs, config)
        trained = ModelParams.initialize(model_config, seed=self.train_seed)
        examples = [prepare_example(g) for g in train_graphs]
        adam = AdamState()
        for _ in range(self.train_epochs):
            for example in examples:
                _, _, _, grads = sentence_loss(example, trained)
                adam_step(trained.tensors, grads, adam, lr=self.learning_rate)
        sentences = [g.tokens for g in by_length(self.parse_spec, self.lengths, self.passes, seed)]

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
            path = os.path.join(tmp, "model.json")
            start = time.perf_counter()
            trained.save(path)
            save_s = time.perf_counter() - start
            start = time.perf_counter()
            params = ModelParams.load(path)
            load_s = time.perf_counter() - start
        state = ParseState(params, sentences, train_graphs, save_s, load_s)
        state.problems.extend(_tensor_mismatches(trained, params))
        return state

    def setup_metrics(self, state: ParseState) -> dict[str, float]:
        return {"neural_core.save.ms": 1e3 * state.save_s, "neural_core.load.ms": 1e3 * state.load_s}

    def fingerprint(self, state: ParseState, fp: Fingerprint) -> None:
        fp.add(repr(self.train_spec()))
        fp.add(repr((self.train_seed, self.train_epochs, self.learning_rate)))
        fp.add(json.dumps(PAPER_DIMS, sort_keys=True))
        for g in state.train_graphs:
            fp.add(_graph_line(g))
        fp.add(repr(self.lengths))
        fp.add(repr([self.parse_spec(n, self.passes * c) for n, c in sorted(Counter(self.lengths).items())]))
        for tokens in state.sentences:
            fp.add(json.dumps([[t.form, t.pos, t.ner, t.dep, t.lang] for t in tokens]))

    def pass_ops(self, state: ParseState) -> int:
        return len(self.lengths)

    def op(self, state: ParseState, k: int) -> UccaGraph:
        return parse_pipeline(state.sentences[k % len(state.sentences)], state.params)

    def traced_op(self, state: ParseState, k: int, tracer: Tracer, counts: dict | None):
        # The call sequence of training.parse_pipeline.
        tokens = tuple(state.sentences[k % len(state.sentences)])
        with tracer.span(OP_SPAN):
            bound = BoundParams(state.params)
            with tracer.span("neural_core.embed"):
                inputs = embed(tokens, tokens[0].lang, bound)
            with tracer.span("neural_core.encode"):
                enc = encode(inputs, bound)
            with tracer.span("span_parser.parse_topdown"):
                tree = parse_topdown(enc, tokens, bound)
            with tracer.span("conversion.tree_to_graph"):
                primary, marked = tree_to_graph(tree)
            with tracer.span("remote_recovery.predict_remotes"):
                remotes = predict_remotes(primary, marked, enc, bound)
            graph = primary
            if remotes:
                graph = UccaGraph(
                    tokens=primary.tokens,
                    root=primary.root,
                    nonterminals=primary.nonterminals,
                    edges=primary.edges
                    + tuple(Edge(p, c, label, remote=True) for p, c, label in remotes),
                )
            with tracer.span("graph_model.validate"):
                problems = graph.validate()
            if problems:
                raise AssertionError(f"parse produced an invalid graph: {problems}")
        if counts is not None:
            n = len(tokens)
            # parse_topdown scores every span of the sentence.
            counts["span_parser.spans_scored"] = n * (n + 1) // 2
            counts["remote_recovery.pairs"] = len(enumerate_pairs(primary, marked))
            counts["remote_recovery.accepted"] = len(remotes)
        return graph

    def signature(self, output: UccaGraph) -> object:
        return _graph_line(output)

    def check(self, state: ParseState, k: int, output: UccaGraph) -> list[str]:
        return output.validate()

    def final_checks(self, state: ParseState, signatures: dict[int, object]) -> list[str]:
        problems = []
        for k in sorted(signatures)[: self.reparse_ops]:
            again = self.signature(self.op(state, k))
            if again != signatures[k]:
                problems.append(f"re-parse of op {k} differs from its first parse")
        return problems


def _tensor_mismatches(saved: ModelParams, loaded: ModelParams) -> list[str]:
    problems = []
    if saved.config != loaded.config:
        problems.append("checkpoint load changed the model config")
    if sorted(saved.tensors) != sorted(loaded.tensors):
        problems.append("checkpoint load changed the tensor names")
        return problems
    for name, arr in saved.tensors.items():
        other = loaded.tensors[name]
        if arr.dtype != other.dtype or arr.shape != other.shape or arr.tobytes() != other.tobytes():
            problems.append(f"checkpoint load changed tensor {name!r}")
    return problems


# ---------------------------------------------------------------------------
# convert-corpus


@dataclass
class ConvertOutput:
    gold: UccaGraph
    restored: UccaGraph
    dropped: tuple
    marked: tuple
    f1: tuple[float, float, float]
    line: str


@dataclass
class ConvertState:
    lines: list[str]
    problems: list[str] = field(default_factory=list)


class ConvertCorpus(Workload):
    """One corpus line per op through the convert, restore and eval path."""

    name = "convert-corpus"
    count_ops = 100
    lengths = tuple(range(3, 61))
    passes = 4
    # Depths of the deep right-branching stratum, from 100 to 300.
    # tree_to_sexpr recurses twice per level and raises RecursionError from
    # a depth of about 340 under the default recursion limit (depth 800
    # fails in conversion as well), so the stratum stops at 300 and no op
    # fails today.  The depths are denser towards 300: op_ms_tail falls
    # among the deepest graphs, and close depths there keep it steady when
    # the number of passes in a run changes.
    deep_depths = tuple(100 + round(200 * (i / 23) ** 0.5) for i in range(24))

    def spec(self, length: int, sentences: int) -> SyntheticSpec:
        return SyntheticSpec(
            sentences=sentences,
            min_tokens=length,
            max_tokens=length,
            vocab_size=200,
            max_depth=6,
            min_branch=2,
            max_branch=4,
            p_remote=0.3,
            p_discontinuity=0.5,
            labels=LABELS,
        )

    def setup(self, seed: int) -> ConvertState:
        shallow = by_length(self.spec, self.lengths, self.passes, seed)
        rng = np.random.default_rng(seed)
        deep = [right_branching(self.deep_depths[i], rng) for i in spread_order(len(self.deep_depths))]
        # Interleave the deep graphs evenly, so that any prefix of the op
        # sequence holds both strata in proportion.
        total = len(shallow) + len(deep)
        deep_positions = {((2 * j + 1) * total) // (2 * len(deep)) for j in range(len(deep))}
        shallow_iter = iter(shallow)
        deep_iter = iter(deep)
        graphs = [
            next(deep_iter) if position in deep_positions else next(shallow_iter)
            for position in range(total)
        ]
        return ConvertState(lines=[_graph_line(g) for g in graphs])

    def fingerprint(self, state: ConvertState, fp: Fingerprint) -> None:
        fp.add(repr([self.spec(n, self.passes) for n in self.lengths]))
        for line in state.lines:
            fp.add(line)

    def pass_ops(self, state: ConvertState) -> int:
        return len(state.lines)

    def op(self, state: ConvertState, k: int) -> ConvertOutput:
        gold = UccaGraph.from_json(json.loads(state.lines[k % len(state.lines)]))
        result = graph_to_tree(gold)
        text = tree_to_sexpr(result.tree)
        tree = tree_from_sexpr(text, lang=gold.tokens[0].lang)
        primary, marked = tree_to_graph(tree)
        restored = attach_gold_remotes(gold, primary, result.dropped_remote_edges)
        report = score(gold, restored)
        line = json.dumps(restored.to_json(), sort_keys=True)
        return _convert_output(gold, restored, result, marked, report, line)

    def traced_op(self, state: ConvertState, k: int, tracer: Tracer, counts: dict | None):
        with tracer.span(OP_SPAN):
            data = json.loads(state.lines[k % len(state.lines)])
            with tracer.span("graph_model.from_json"):
                gold = UccaGraph.from_json(data)
            with tracer.span("conversion.graph_to_tree"):
                result = graph_to_tree(gold)
            with tracer.span("conversion.tree_to_sexpr"):
                text = tree_to_sexpr(result.tree)
            with tracer.span("conversion.tree_from_sexpr"):
                tree = tree_from_sexpr(text, lang=gold.tokens[0].lang)
            with tracer.span("conversion.tree_to_graph"):
                primary, marked = tree_to_graph(tree)
            restored = attach_gold_remotes(gold, primary, result.dropped_remote_edges)
            with tracer.span("evaluation.score"):
                report = score(gold, restored)
            with tracer.span("graph_model.to_json"):
                data = restored.to_json()
            line = json.dumps(data, sort_keys=True)
        if counts is not None:
            _, moves = remove_discontinuities(strip_remotes(gold)[0])
            counts["conversion.moves"] = len(moves)
            counts["conversion.lossy_moves"] = result.lossy_moves
            counts["conversion.remote_dropped"] = len(result.dropped_remote_edges)
        return _convert_output(gold, restored, result, marked, report, line)

    def signature(self, output: ConvertOutput) -> object:
        return output.line

    def check(self, state: ConvertState, k: int, output: ConvertOutput) -> list[str]:
        problems = []
        if not output.restored.same_structure(output.gold):
            problems.append("round trip changed the graph")
        if UccaGraph.from_json(json.loads(output.line)) != output.restored:
            problems.append("to_json/from_json changed the restored graph")
        if output.f1 != (1.0, 1.0, 1.0):
            problems.append(f"F1 against gold is {output.f1}, expected 1.0")
        gold_ids = output.gold.canonical_ids()
        restored_ids = output.restored.canonical_ids()
        dropped_children = sorted({gold_ids[c] for _, c, _ in output.dropped})
        marked = sorted(restored_ids[v] for v in output.marked)
        if dropped_children != marked:
            problems.append("remote-marked nodes differ from the children of dropped remote edges")
        return problems


def _convert_output(gold, restored, result, marked, report, line) -> ConvertOutput:
    f1 = (report.primary.f1, report.remote.f1, report.averaged.f1)
    return ConvertOutput(gold, restored, result.dropped_remote_edges, marked, f1, line)


def attach_gold_remotes(
    gold: UccaGraph, primary: UccaGraph, dropped: tuple[tuple[int, int, str], ...]
) -> UccaGraph:
    """Restore the dropped remote edges onto the tree's graph.

    This is the restore step with the gold remote edges in place of the
    classifier's predictions; node ids are matched through the canonical
    (preorder) numbering of both primary trees.  The tokens come from the
    gold graph, because the bracketed format keeps only their forms.
    """
    gold_ids = gold.canonical_ids()
    by_canonical = {c: v for v, c in primary.canonical_ids().items()}
    remotes = tuple(
        Edge(by_canonical[gold_ids[p]], by_canonical[gold_ids[c]], label, remote=True)
        for p, c, label in dropped
    )
    return UccaGraph(
        tokens=gold.tokens,
        root=primary.root,
        nonterminals=primary.nonterminals,
        edges=primary.edges + remotes,
    )


def right_branching(depth: int, rng: np.random.Generator) -> UccaGraph:
    """A chain of ``depth`` nonterminals, each with one token on its left.

    The deepest nonterminal holds the last two tokens.  Two remote edges
    point from nodes near the root to nodes halfway and three quarters
    down, so remote stripping and recovery take part as well.
    """
    n = depth + 1
    tokens = tuple(
        Token(
            form=f"w{int(rng.integers(0, 200))}",
            pos=str(rng.choice(("NOUN", "VERB", "ADJ", "DET"))),
            ner="O",
            dep=str(rng.choice(("s", "o", "m", "d"))),
            lang="en",
        )
        for _ in range(n)
    )
    chain = list(range(n + 1, n + 1 + depth))
    edges: list[Edge] = []
    for level, node in enumerate(chain):
        edges.append(Edge(node, level + 1, ""))
        if level + 1 < depth:
            edges.append(Edge(node, chain[level + 1], str(rng.choice(LABELS))))
        else:
            edges.append(Edge(node, n, ""))
    edges.append(Edge(chain[0], chain[depth // 2], str(rng.choice(LABELS)), remote=True))
    edges.append(Edge(chain[1], chain[3 * depth // 4], str(rng.choice(LABELS)), remote=True))
    return UccaGraph(tokens=tokens, root=chain[0], nonterminals=frozenset(chain), edges=tuple(edges))


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (TrainN30(), ParseMixed(), ConvertCorpus())
}
