"""Joint training of the span parser and the remote-edge classifier.

Both objectives share the encoder: each sentence contributes
``loss = loss_topdown + loss_remote`` (the decomposition is asserted at
every step), gradients flow through one backward pass, and one Adam step
is taken per sentence.  Model selection tracks the pooled F1 of the
full parse pipeline on the dev set; training stops after ``patience``
epochs without improvement or at the epoch cap.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .conversion import graph_to_tree, tree_to_graph
from .evaluation import F1Report, score_corpus
from .graph_model import ConstituentTree, Edge, Span, Token, UccaGraph, checked
from .neural_core import (
    NOT_PARENT,
    AdamState,
    BoundParams,
    Encoding,
    ModelConfig,
    ModelHyperparams,
    ModelParams,
    OptimizationError,
    Vocab,
    adam_step,
    check_external,
    embed,
    encode,
)
from .remote_recovery import RemoteGrid, enumerate_pairs, loss_remote, predict_remotes
from .span_parser import gold_trace, loss_topdown, parse_topdown

DECOMPOSITION_TOLERANCE = 1e-12


@dataclass
class TrainConfig(ModelHyperparams):
    """Training settings plus the hyperparameters of the model to train."""

    seed: int = 1
    max_epochs: int = 100
    patience: int = 10
    learning_rate: float = 1e-3
    pretrained_path: str | None = None


@dataclass
class Example:
    """A training sentence with its precomputed supervision."""

    tokens: tuple[Token, ...]
    trace: dict[Span, str]  # the gold labeled spans, see gold_trace
    pairs: RemoteGrid  # the remote candidate cells, see enumerate_pairs
    gold_remotes: list[tuple[int, int, str]]
    external: np.ndarray | None = None

    @property
    def lang(self) -> str:
        return self.tokens[0].lang


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_f1: float


@dataclass
class TrainResult:
    params: ModelParams
    best_f1: float
    best_epoch: int
    epochs_run: int
    history: list[EpochStats] = field(default_factory=list)


def prepare_example(graph: UccaGraph, external: np.ndarray | None = None) -> Example:
    """Convert one gold graph into parser and remote supervision."""
    result = graph_to_tree(graph)
    trace = gold_trace(result.tree)
    gold_remotes = list(result.dropped_remote_edges)
    marked = sorted({child for _, child, _ in gold_remotes})
    pairs = enumerate_pairs(graph, marked)
    return Example(
        tokens=graph.tokens,
        trace=trace,
        pairs=pairs,
        gold_remotes=gold_remotes,
        external=external,
    )


def build_model_config(
    train_graphs: Sequence[UccaGraph],
    config: TrainConfig,
    pretrained_words: list[str] | None = None,
    pretrained_dim: int = 0,
) -> ModelConfig:
    """Collect vocabularies and label inventories from the training set."""
    examples = [prepare_example(g) for g in train_graphs]
    return _model_config_from_examples(examples, config, pretrained_words, pretrained_dim)


def _model_config_from_examples(
    examples: Sequence[Example],
    config: TrainConfig,
    pretrained_words: list[str] | None = None,
    pretrained_dim: int = 0,
) -> ModelConfig:
    words: set[str] = set()
    pos: set[str] = set()
    ner: set[str] = set()
    dep: set[str] = set()
    langs: set[str] = set()
    labels: set[str] = set()
    remote_labels: set[str] = set()
    for ex in examples:
        for t in ex.tokens:
            words.add(t.form)
            pos.add(t.pos)
            ner.add(t.ner)
            dep.add(t.dep)
        langs.add(ex.lang)
        labels.update(ex.trace.values())
        for _, _, label in ex.gold_remotes:
            remote_labels.add(label)
    return ModelConfig(
        **config.hyperparams(),
        pretrained_dim=pretrained_dim,
        external_dim=next((ex.external.shape[1] for ex in examples if ex.external is not None), 0),
        words=Vocab.build(words).items,
        pos_tags=Vocab.build(pos).items,
        ner_tags=Vocab.build(ner).items,
        dep_labels=Vocab.build(dep).items,
        languages=Vocab.build(langs).items,
        pretrained_words=pretrained_words or [],
        labels=[""] + sorted(labels),
        remote_labels=[NOT_PARENT] + sorted(remote_labels),
    )


def load_pretrained(path: str) -> tuple[list[str], np.ndarray]:
    """Read text-format word vectors: one whitespace-separated ``word v1 .. vk``
    line per word.

    A leading ``count dim`` header line is accepted and skipped, and every
    value must be a finite number.  Returns the word list and a matrix with
    a zero row 0 reserved for unknowns.
    """
    words: list[str] = []
    vectors: list[list[float]] = []
    dim: int | None = None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if re.search(r"[\ud800-\udfff]", line):  # where a byte was not UTF-8
                raise ValueError(f"{path}:{lineno}: bytes that are not UTF-8")
            # ASCII whitespace only: str.split() would also cut words that
            # contain a no-break space (U+00A0).
            parts = re.findall(r"[^ \t\n\r\f\v]+", line)
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            if len(parts) < 2:
                continue
            word, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise ValueError(
                    f"{path}:{lineno}: vector of width {len(values)}, expected {dim}"
                )
            try:
                vector = [float(v) for v in values]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not all(map(math.isfinite, vector)):
                raise ValueError(f"{path}:{lineno}: vector holds NaN or infinite values")
            vectors.append(vector)
            words.append(word)
    if dim is None:
        raise ValueError(f"{path}: no vectors found")
    matrix = np.vstack([np.zeros((1, dim)), np.asarray(vectors, dtype=np.float64)])
    return words, matrix


def sentence_loss(
    example: Example, params: ModelParams
) -> tuple[float, float, float, dict[str, np.ndarray]]:
    """Forward/backward for one sentence.

    Returns (joint, topdown, remote) loss values and the gradients of the
    tensors the loss reaches.  The gradients are the model's buffers, valid
    until the next backward pass through the same model.  Raises if the
    joint loss stops being the exact sum of its parts.
    """
    bound, enc = encode_sentence(example.tokens, params, external=example.external)
    lt = loss_topdown(enc, example.trace, bound)
    lr = loss_remote(example.pairs, example.gold_remotes, enc, bound)
    joint = lt + lr
    drift = abs((float(lt.value) + float(lr.value)) - float(joint.value))
    if drift > DECOMPOSITION_TOLERANCE:
        raise AssertionError(
            f"joint loss decomposition violated: |{lt.value} + {lr.value} - {joint.value}| = {drift}"
        )
    joint.backward()
    return float(joint.value), float(lt.value), float(lr.value), bound.grads()


def encode_sentence(
    tokens: Sequence[Token],
    params: ModelParams,
    external: np.ndarray | None = None,
) -> tuple[BoundParams, Encoding]:
    """Fresh tape leaves and the BiLSTM encoding of one sentence, embedded
    in the language its tokens carry."""
    if not tokens:
        raise ValueError("cannot encode an empty sentence")
    bound = BoundParams(params)
    inputs = embed(tokens, tokens[0].lang, bound, external=external)
    return bound, encode(inputs, bound)


def restore_graph(tree: ConstituentTree, enc: Encoding, bound: BoundParams) -> UccaGraph:
    """Tree -> primary graph -> graph with predicted remote edges.

    The remote edges follow the primary edges in the order
    :func:`predict_remotes` accepted them.
    """
    graph, marked = tree_to_graph(tree)
    remotes = predict_remotes(graph, marked, enc, bound)
    if remotes:
        edges = tuple(Edge(p, c, label, remote=True) for p, c, label in remotes)
        graph = replace(graph, edges=graph.edges + edges)
    return checked(graph, "restored graph", AssertionError)  # the pipeline emits only valid graphs


def parse_pipeline(
    tokens: Sequence[Token],
    params: ModelParams,
    external: np.ndarray | None = None,
) -> UccaGraph:
    """Tokens -> tree -> restored graph -> graph with predicted remotes."""
    tokens = tuple(tokens)
    bound, enc = encode_sentence(tokens, params, external=external)
    return restore_graph(parse_topdown(enc, tokens, bound), enc, bound)


def evaluate_model(
    params: ModelParams,
    graphs: Sequence[UccaGraph],
    external: Sequence[np.ndarray] | None = None,
) -> F1Report:
    """Parse every sentence and score the result against its gold graph."""
    externals = [None] * len(graphs) if external is None else external
    predictions = [
        parse_pipeline(gold.tokens, params, external=ext) for gold, ext in zip(graphs, externals, strict=True)
    ]
    return score_corpus(list(graphs), predictions)


def train(
    train_graphs: Sequence[UccaGraph],
    dev_graphs: Sequence[UccaGraph],
    config: TrainConfig,
    external_train: Sequence[np.ndarray] | None = None,
    external_dev: Sequence[np.ndarray] | None = None,
) -> TrainResult:
    """Run joint training and return the best-on-dev model."""
    for graphs, name in ((train_graphs, "training"), (dev_graphs, "dev")):
        if not graphs:
            raise ValueError(f"the {name} set holds no graphs")
    if (external_train is None) != (external_dev is None):
        given, missing = ("training", "dev") if external_dev is None else ("dev", "training")
        raise ValueError(f"external features given for the {given} set but not for the {missing} set")
    pretrained_matrix = None
    pretrained_words: list[str] | None = None
    pretrained_dim = 0
    if config.pretrained_path:
        pretrained_words, pretrained_matrix = load_pretrained(config.pretrained_path)
        pretrained_dim = pretrained_matrix.shape[1]
    if external_train is not None:
        width = check_external(external_train, [g.tokens for g in train_graphs], "training set")
        check_external(external_dev, [g.tokens for g in dev_graphs], "dev set", width)

    examples = []
    for k, g in enumerate(train_graphs):
        ext = external_train[k] if external_train is not None else None
        examples.append(prepare_example(g, external=ext))
    model_config = _model_config_from_examples(
        examples, config, pretrained_words, pretrained_dim
    )
    params = ModelParams.initialize(model_config, seed=config.seed, pretrained=pretrained_matrix)

    adam = AdamState()
    rng = np.random.default_rng(config.seed)

    best_f1 = -1.0
    best_epoch = 0
    best_tensors = params.copy_tensors()
    stale = 0
    history: list[EpochStats] = []
    epochs_run = 0

    for epoch in range(1, config.max_epochs + 1):
        epochs_run = epoch
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        for idx in order:
            joint, _, _, grads = sentence_loss(examples[int(idx)], params)
            epoch_loss += joint
            if config.freeze_pretrained:
                grads.pop("emb_pre", None)
            try:
                adam_step(params.tensors, grads, adam, lr=config.learning_rate)
            except OptimizationError as exc:
                raise OptimizationError(f"epoch {epoch}, training sentence {int(idx) + 1}: {exc}") from exc
        report = evaluate_model(params, dev_graphs, external=external_dev)
        dev_f1 = report.averaged.f1
        history.append(EpochStats(epoch=epoch, train_loss=epoch_loss, dev_f1=dev_f1))
        if dev_f1 > best_f1:
            best_f1 = dev_f1
            best_epoch = epoch
            best_tensors = params.copy_tensors()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    params.tensors = best_tensors
    return TrainResult(
        params=params,
        best_f1=best_f1,
        best_epoch=best_epoch,
        epochs_run=epochs_run,
        history=history,
    )
