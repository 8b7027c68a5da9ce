"""Self-contained neural components: embeddings, BiLSTM encoder, span
layers on projected fenceposts, MLP scoring heads and a biaffine pair
scorer.

Everything runs on numpy through the :mod:`uccatree.autodiff` tape, in
64-bit floats, with fully seeded initialization so that two runs from the
same seed produce bit-identical parameters.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .graph_model import Token, atomic_output

UNK = "<unk>"
NOT_PARENT = "NOT-PARENT"


class OptimizationError(Exception):
    """Raised when training produces non-finite gradients."""


@dataclass
class ModelHyperparams:
    """Dimensions and feature toggles: set by a training config, stored
    with the model."""

    word_dim: int = 100
    tag_dim: int = 50
    lang_dim: int = 50
    lstm_hidden: int = 250
    mlp_hidden: int = 250
    remote_mlp_dim: int = 100
    use_pos: bool = True
    use_ner: bool = True
    use_dep: bool = True
    multilingual: bool = False
    freeze_pretrained: bool = False
    share_span_hidden: bool = False

    def hyperparams(self) -> dict:
        """The :class:`ModelHyperparams` fields of this object."""
        return {f.name: getattr(self, f.name) for f in fields(ModelHyperparams)}


@dataclass
class ModelConfig(ModelHyperparams):
    """Hyperparameters and vocabularies of one model.

    ``pretrained_dim`` and ``external_dim`` are the widths of the pretrained
    vectors and of the external features, read from the data, 0 without
    them.  Vocabulary lists carry their reserved first entry explicitly:
    index 0 is ``<unk>`` for token-feature vocabularies, the empty label
    for span labels, and ``NOT-PARENT`` for remote labels.
    """

    pretrained_dim: int = 0
    external_dim: int = 0
    words: list[str] = field(default_factory=lambda: [UNK])
    pos_tags: list[str] = field(default_factory=lambda: [UNK])
    ner_tags: list[str] = field(default_factory=lambda: [UNK])
    dep_labels: list[str] = field(default_factory=lambda: [UNK])
    languages: list[str] = field(default_factory=lambda: [UNK])
    pretrained_words: list[str] = field(default_factory=list)
    labels: list[str] = field(default_factory=lambda: [""])
    remote_labels: list[str] = field(default_factory=lambda: [NOT_PARENT])

    @property
    def input_dim(self) -> int:
        dim = self.word_dim
        dim += self.tag_dim * (int(self.use_pos) + int(self.use_ner) + int(self.use_dep))
        if self.multilingual:
            dim += self.lang_dim
        dim += self.pretrained_dim
        dim += self.external_dim
        return dim

    @property
    def span_dim(self) -> int:
        return 2 * self.lstm_hidden

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> ModelConfig:
        # Checkpoints written while the tensor type was an option name it;
        # their tensors are float64 like every checkpoint's.
        data = dict(data)
        dtype = data.pop("dtype", "float64")
        if dtype != "float64":
            raise ValueError(f"unsupported checkpoint dtype {dtype!r}: tensors are float64")
        return cls(**data)


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in, fan_out = shape[-1], shape[0]
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape)


def _embedding(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    return rng.uniform(-0.01, 0.01, size=(rows, dim))


class Vocab:
    """String-to-index mapping with a reserved fallback at index 0."""

    def __init__(self, items: Sequence[str]):
        self.items = list(items)
        self.index = {item: i for i, item in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def lookup(self, item: str) -> int:
        return self.index.get(item, 0)

    @classmethod
    def build(cls, seen: Iterable[str], reserved: str = UNK) -> Vocab:
        uniq = sorted({s for s in seen if s != reserved})
        return cls([reserved] + uniq)


class ModelParams:
    """All trainable tensors plus the configuration that shapes them."""

    def __init__(self, config: ModelConfig, tensors: dict[str, np.ndarray]):
        self.config = config
        self.tensors = tensors
        self.words = Vocab(config.words)
        self.pos_tags = Vocab(config.pos_tags)
        self.ner_tags = Vocab(config.ner_tags)
        self.dep_labels = Vocab(config.dep_labels)
        self.languages = Vocab(config.languages)
        self.pretrained_words = Vocab(config.pretrained_words) if config.pretrained_words else None
        self.labels = Vocab(config.labels)
        self.remote_labels = Vocab(config.remote_labels)

    @classmethod
    def initialize(
        cls,
        config: ModelConfig,
        seed: int = 0,
        pretrained: np.ndarray | None = None,
    ) -> ModelParams:
        rng = np.random.default_rng(seed)
        h = config.lstm_hidden
        tensors: dict[str, np.ndarray] = {}

        tensors["emb_word"] = _embedding(rng, len(config.words), config.word_dim)
        if config.use_pos:
            tensors["emb_pos"] = _embedding(rng, len(config.pos_tags), config.tag_dim)
        if config.use_ner:
            tensors["emb_ner"] = _embedding(rng, len(config.ner_tags), config.tag_dim)
        if config.use_dep:
            tensors["emb_dep"] = _embedding(rng, len(config.dep_labels), config.tag_dim)
        if config.multilingual:
            tensors["emb_lang"] = _embedding(rng, len(config.languages), config.lang_dim)
        if config.pretrained_dim:
            if pretrained is not None:
                if pretrained.shape != (len(config.pretrained_words) + 1, config.pretrained_dim):
                    raise ValueError(
                        f"pretrained matrix shape {pretrained.shape} does not match "
                        f"{len(config.pretrained_words) + 1} words x {config.pretrained_dim}"
                    )
                # A C-ordered copy: Adam updates tensors in place.
                tensors["emb_pre"] = np.array(pretrained, dtype=np.float64, order="C")
            else:
                tensors["emb_pre"] = _embedding(
                    rng, len(config.pretrained_words) + 1, config.pretrained_dim
                )

        in_dims = [config.input_dim, 2 * h]
        for layer, d_in in enumerate(in_dims, start=1):
            for direction in ("f", "b"):
                prefix = f"lstm{layer}{direction}"
                tensors[prefix + "_wx"] = _glorot(rng, (4 * h, d_in))
                tensors[prefix + "_wh"] = _glorot(rng, (4 * h, h))
                bias = np.zeros(4 * h)
                bias[h : 2 * h] = 1.0  # encourage remembering at the start
                tensors[prefix + "_b"] = bias

        span_dim = config.span_dim
        if config.share_span_hidden:
            tensors["head_hidden_w"] = _glorot(rng, (config.mlp_hidden, span_dim))
            tensors["head_hidden_b"] = np.zeros(config.mlp_hidden)
        else:
            tensors["label_hidden_w"] = _glorot(rng, (config.mlp_hidden, span_dim))
            tensors["label_hidden_b"] = np.zeros(config.mlp_hidden)
            tensors["span_hidden_w"] = _glorot(rng, (config.mlp_hidden, span_dim))
            tensors["span_hidden_b"] = np.zeros(config.mlp_hidden)
        tensors["label_out_w"] = _glorot(rng, (len(config.labels), config.mlp_hidden))
        tensors["label_out_b"] = np.zeros(len(config.labels))
        tensors["span_out_w"] = _glorot(rng, (1, config.mlp_hidden))
        tensors["span_out_b"] = np.zeros(1)

        dc = dp = config.remote_mlp_dim
        tensors["remote_child_w"] = _glorot(rng, (dc, span_dim))
        tensors["remote_child_b"] = np.zeros(dc)
        tensors["remote_parent_w"] = _glorot(rng, (dp, span_dim))
        tensors["remote_parent_b"] = np.zeros(dp)
        tensors["biaffine_w"] = _glorot(rng, (dc + 1, len(config.remote_labels), dp))
        return cls(config, tensors)

    # -- checkpointing --------------------------------------------------

    CHECKPOINT_VERSION = 1

    def save(self, path: str) -> None:
        payload = {
            "version": self.CHECKPOINT_VERSION,
            "config": self.config.to_json(),
            "tensors": {
                name: {
                    "shape": list(arr.shape),
                    "data": base64.b64encode(
                        np.ascontiguousarray(arr, dtype="<f8").tobytes()
                    ).decode("ascii"),
                }
                for name, arr in sorted(self.tensors.items())
            },
        }
        with atomic_output(path) as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> ModelParams:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        version = payload.get("version")
        if version != cls.CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        config = ModelConfig.from_json(payload["config"])
        tensors = {}
        for name, spec in payload["tensors"].items():
            raw = np.frombuffer(base64.b64decode(spec["data"]), dtype="<f8")
            tensors[name] = raw.reshape(spec["shape"]).astype(np.float64)
        return cls(config, tensors)

    def copy_tensors(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.tensors.items()}


class BoundParams:
    """Per-forward-pass tape leaves for every parameter tensor."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.config = params.config
        self.vars = {name: Var(arr) for name, arr in params.tensors.items()}

    def __getitem__(self, name: str) -> Var:
        return self.vars[name]

    def grads(self) -> dict[str, np.ndarray]:
        return {
            name: v.grad for name, v in self.vars.items() if v.grad is not None
        }


# ---------------------------------------------------------------------------
# Embedding


def check_external(
    matrices: Sequence[np.ndarray], sentences: Sequence[Sequence[Token]], source: str, width: int = 0
) -> int:
    """The width of per-token external feature matrices, one per sentence:
    ``width`` if nonzero, else the first matrix's.  A matrix without one row
    per token of that width raises, naming ``source`` and its 1-based record."""
    for k, (matrix, tokens) in enumerate(zip(matrices, sentences), start=1):
        shape = np.shape(matrix)
        width = width or (shape[1] if len(shape) == 2 else 0)
        if shape != (len(tokens), width):
            raise ValueError(
                f"{source}: record {k}: external features of shape {shape}, "
                f"expected ({len(tokens)}, {width})"
            )
    return width


def embed(
    tokens: Sequence[Token],
    lang: str,
    bound: BoundParams,
    external: np.ndarray | None = None,
) -> Var:
    """Concatenate per-token feature embeddings into an (n, input_dim) matrix.

    Lookups of unseen strings fall back to the reserved row 0.  When the
    model was built with external features, ``external`` must supply one
    vector per token of the configured width; otherwise it must be None.
    """
    cfg = bound.config
    p = bound.params
    n = len(tokens)
    parts: list[Var] = []
    word_ids = [p.words.lookup(t.form) for t in tokens]
    parts.append(ad.index(bound["emb_word"], word_ids))
    if cfg.use_pos:
        parts.append(ad.index(bound["emb_pos"], [p.pos_tags.lookup(t.pos) for t in tokens]))
    if cfg.use_ner:
        parts.append(ad.index(bound["emb_ner"], [p.ner_tags.lookup(t.ner) for t in tokens]))
    if cfg.use_dep:
        parts.append(ad.index(bound["emb_dep"], [p.dep_labels.lookup(t.dep) for t in tokens]))
    if cfg.multilingual:
        parts.append(ad.index(bound["emb_lang"], [p.languages.lookup(lang)] * n))
    if cfg.pretrained_dim:
        assert p.pretrained_words is not None
        parts.append(
            ad.index(bound["emb_pre"], [p.pretrained_words.lookup(t.form) for t in tokens])
        )
    if cfg.external_dim:
        if external is None:
            raise ValueError("model expects external feature vectors but none were given")
        check_external([external], [tokens], "sentence", cfg.external_dim)
        parts.append(Var(np.asarray(external, dtype=np.float64)))
    elif external is not None:
        raise ValueError("model takes no external feature vectors but some were given")
    return ad.concat(parts, axis=1) if len(parts) > 1 else parts[0]


# ---------------------------------------------------------------------------
# BiLSTM encoder


@dataclass
class Encoding:
    """Fencepost matrix of the top BiLSTM layer.

    ``fenceposts`` is (n+1, 2 * hidden): row i is [f_i ; -b_i], where f_i
    is the forward output after consuming tokens 1..i (f_0 is zero) and
    b_i the backward output after consuming tokens n..i+1 (b_n is zero).
    The feature of span (i, j), [f_j - f_i ; b_i - b_j], is row j minus
    row i.  ``projections`` maps a weight leaf to the fenceposts projected
    through it, so heads that share a layer project them once.
    """

    fenceposts: Var
    n: int
    projections: dict[Var, Var] = field(default_factory=dict, repr=False, compare=False)


def _lstm_direction(inputs: Var, bound: BoundParams, prefix: str, reverse: bool) -> Var:
    """(n, hidden) outputs of one LSTM direction over an (n, d) input
    matrix: one ``linear`` projects every token, one op runs the recurrence."""
    projected = ad.linear(inputs, bound[prefix + "_wx"], bound[prefix + "_b"])
    return ad.lstm(projected, bound[prefix + "_wh"], reverse=reverse)


def encode(inputs: Var, bound: BoundParams) -> Encoding:
    """Run the two-layer BiLSTM over an (n, input_dim) matrix."""
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("cannot encode an empty sentence")
    f1 = _lstm_direction(inputs, bound, "lstm1f", reverse=False)
    b1 = _lstm_direction(inputs, bound, "lstm1b", reverse=True)
    layer2 = ad.concat([f1, b1], axis=1)
    f2 = _lstm_direction(layer2, bound, "lstm2f", reverse=False)
    b2 = _lstm_direction(layer2, bound, "lstm2b", reverse=True)
    zeros = Var(np.zeros((1, bound.config.lstm_hidden)))
    forward = ad.concat([zeros, f2], axis=0)
    backward = ad.concat([b2, zeros], axis=0)
    return Encoding(fenceposts=ad.concat([forward, 0.0 - backward], axis=1), n=n)


# ---------------------------------------------------------------------------
# Scoring heads


def affine(reprs: Var, bound: BoundParams, name: str) -> Var:
    """``reprs @ W.T + b`` with the tensors ``<name>_w`` and ``<name>_b``."""
    return ad.linear(reprs, bound[name + "_w"], bound[name + "_b"])


def span_affine(
    enc: Encoding, spans: Sequence[tuple[int, int]] | np.ndarray, bound: BoundParams, name: str
) -> Var:
    """(m, out) rows ``W·r(i, j) + b`` of the layer ``name`` for every span
    (i, j), given as pairs or as the rows of an (m, 2) integer array.  The
    layer is linear in the span feature r(i, j), the fencepost row j minus
    row i, so it projects the n + 1 fenceposts once per encoding and weight
    leaf and subtracts projected rows: q_j - q_i + b."""
    lo, hi = np.asarray(spans, dtype=np.intp).reshape(-1, 2).T
    bad = np.flatnonzero((lo < 0) | (lo >= hi) | (hi > enc.n))
    if bad.size:
        i, j = lo[bad[0]], hi[bad[0]]
        raise ValueError(f"degenerate or out-of-range span ({i}, {j}) for n={enc.n}")
    w = bound[name + "_w"]
    if w not in enc.projections:
        enc.projections[w] = ad.linear(enc.fenceposts, w)
    q = enc.projections[w]
    return ad.index(q, hi) - ad.index(q, lo) + bound[name + "_b"]


def _hidden(enc: Encoding, spans: Sequence[tuple[int, int]], bound: BoundParams, head: str) -> Var:
    shared = bound.config.share_span_hidden
    return ad.relu(span_affine(enc, spans, bound, "head_hidden" if shared else f"{head}_hidden"))


def label_scores(enc: Encoding, spans: Sequence[tuple[int, int]], bound: BoundParams) -> Var:
    """(m, num_labels) span-label scores for a batch of spans."""
    return affine(_hidden(enc, spans, bound, "label"), bound, "label_out")


def split_scores(enc: Encoding, spans: Sequence[tuple[int, int]], bound: BoundParams) -> Var:
    """(m,) scalar span scores used for split decisions."""
    return ad.index(affine(_hidden(enc, spans, bound, "span"), bound, "span_out"), (slice(None), 0))


def biaffine(children: Var, parents: Var, w: Var) -> Var:
    """(c, labels, m) remote-label scores of every (child, parent) cell for
    (c, dc) child rows, (m, dp) parent rows and a (dc + 1, labels, dp) ``w``.

    The child rows are extended with a constant-1 column so the last row
    of each label slice acts as a parent-only bias term.
    """
    c, (rows, labels, dp), m = children.shape[0], w.shape, parents.shape[0]
    extended = ad.concat([children, Var(np.ones((c, 1)))], axis=1)
    left = ad.reshape(ad.matmul(extended, ad.reshape(w, (rows, labels * dp))), (c * labels, dp))
    return ad.reshape(ad.linear(left, parents), (c, labels, m))


# ---------------------------------------------------------------------------
# Optimizer


def _check_finite(name: str, grad: np.ndarray) -> None:
    # A sum of finite values is finite unless it overflows, so the
    # elementwise test runs only when the one-pass sum is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        total = grad.sum()
    if not np.isfinite(total) and not np.isfinite(grad).all():
        raise OptimizationError(f"non-finite gradient for tensor {name!r}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


# Elements per block of the Adam update.  The block's slices of the tensor,
# m, v and the gradient and the scratch block are 640 KiB in all, so they
# stay in a core's L2 cache across the update's passes.
ADAM_BLOCK = 16384


def adam_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Adam with bias correction, updating tensors, ``m`` and ``v`` in place.

    The bias correction is folded into the step size and epsilon (Kingma
    & Ba, arXiv 1412.6980, end of section 2), so no corrected moment is
    ever stored.  The flattened arrays are updated block by block through
    one scratch block.  Only the tensors named in ``grads`` change.  A
    non-finite gradient raises before any tensor or any optimizer state
    changes.
    """
    for name, grad in grads.items():  # before anything changes
        _check_finite(name, grad)
        if not tensors[name].flags.c_contiguous:
            raise ValueError(f"tensor {name!r} is not C-contiguous; Adam updates it in place")
    # Flat views of the tensors, and of the gradients (copied if not contiguous).
    flat = [(name, tensors[name].reshape(-1), grad.reshape(-1)) for name, grad in grads.items()]
    state.t += 1
    t = state.t
    correction = (1.0 - beta2**t) ** 0.5
    step = lr * correction / (1.0 - beta1**t)
    eps_hat = eps * correction
    scratch = np.empty(ADAM_BLOCK)
    for name, theta, g in flat:
        if name not in state.m:
            state.m[name] = np.zeros(tensors[name].shape)
            state.v[name] = np.zeros(tensors[name].shape)
        m, v = state.m[name].reshape(-1), state.v[name].reshape(-1)  # C order: views
        for lo in range(0, theta.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, theta.size)
            gb, mb, vb, buf = g[lo:hi], m[lo:hi], v[lo:hi], scratch[: hi - lo]
            mb *= beta1
            np.multiply(gb, 1.0 - beta1, out=buf)
            mb += buf
            vb *= beta2
            np.multiply(gb, 1.0 - beta2, out=buf)
            buf *= gb
            vb += buf
            np.sqrt(vb, out=buf)
            buf += eps_hat
            np.divide(mb, buf, out=buf)
            buf *= step
            theta[lo:hi] -= buf
