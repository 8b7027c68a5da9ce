"""Self-contained neural components: embeddings, BiLSTM encoder, span
layers on projected fenceposts, MLP scoring heads and a biaffine pair
scorer.

Everything runs on numpy through the :mod:`uccatree.autodiff` tape, in
the model's ``dtype`` (float64 unless its config names float32), with fully
seeded initialization so that two runs from the same seed produce
bit-identical parameters.  :func:`tensor_shapes` is the one inventory of a
model's tensors (its lookup tables come from :func:`lookup_tables`):
initialization draws them in its order, and :func:`tensor_views` lays them
out in a model's flat arrays and checkpoints.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .graph_model import NOT_PARENT, Token, atomic_output, json_typed

UNK = "<unk>"


class OptimizationError(Exception):
    """Raised when training produces non-finite gradients."""


# The dtypes a model computes in: float32 trains and parses, float64 also
# serves the finite-difference checks.
DTYPES = ("float32", "float64")


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

    @classmethod
    def from_json(cls, data: dict):
        """An instance from a JSON object of field values, each optional and of its
        default's JSON type (a float takes any finite number, a path null).  The
        widths and ``max_epochs`` are at least 1, other integers at least 0, and
        a :class:`ModelConfig`'s ``dtype`` is one of :data:`DTYPES`."""
        widths = {"word_dim", "tag_dim", "lang_dim", "lstm_hidden", "mlp_hidden", "remote_mlp_dim"}
        defaults = vars(cls())
        unknown = set(json_typed(data, dict, f"the {cls.__name__}")) - set(defaults)
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        for key, value in data.items():
            what, default = f"config key {key!r}", defaults[key]
            least = int(key in widths or key == "max_epochs")
            if isinstance(default, float):
                if type(value) not in (int, float) or not math.isfinite(value):
                    raise ValueError(f"{what} must be a finite number, got {value!r}")
            elif value is not None or default is not None:  # a path may be null
                json_typed(value, str if default is None else type(default), what)
            if isinstance(default, list):
                for item in value:
                    json_typed(item, str, f"each item of {what}")
            elif type(default) is int and value < least:
                raise ValueError(f"{what} must be at least {least}, got {value}")
            elif key == "dtype" and value not in DTYPES:
                raise ValueError(f"{what} must be one of {list(DTYPES)}, got {value!r}")
        return cls(**data)


@dataclass
class ModelConfig(ModelHyperparams):
    """Hyperparameters and vocabularies of one model.

    ``pretrained_dim`` and ``external_dim`` are the widths of the pretrained
    vectors and of the external features, read from the data, 0 without
    them.  Vocabulary lists carry their reserved first entry explicitly:
    index 0 is ``<unk>`` for token-feature vocabularies, the empty label
    for span labels, and ``NOT-PARENT`` for remote labels.  Only
    ``pretrained_words`` omits it: its words name the pretrained rows 1, 2, ...
    ``dtype`` is that of every array the model computes with: training
    builds float32 models, and a config built by hand is float64.
    """

    dtype: str = "float64"
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
        return sum(width for _, _, width in lookup_tables(self).values()) + self.external_dim

    @property
    def span_dim(self) -> int:
        return 2 * self.lstm_hidden

    def to_json(self) -> dict:
        return asdict(self)


def lookup_tables(config: ModelConfig) -> dict[str, tuple[list[str], str, int]]:
    """Each lookup table ``config`` turns on, by tensor name in input order:
    its row strings, the token field it reads and its width.  Row 0 is the
    table's reserved row, which every unseen string reads: the pretrained
    words follow its zero row."""
    c = config
    tables = (
        (True, "emb_word", c.words, "form", c.word_dim),
        (c.use_pos, "emb_pos", c.pos_tags, "pos", c.tag_dim),
        (c.use_ner, "emb_ner", c.ner_tags, "ner", c.tag_dim),
        (c.use_dep, "emb_dep", c.dep_labels, "dep", c.tag_dim),
        (c.multilingual, "emb_lang", c.languages, "lang", c.lang_dim),
        (c.pretrained_dim, "emb_pre", [UNK, *c.pretrained_words], "form", c.pretrained_dim),
    )
    return {name: (rows, key, width) for used, name, rows, key, width in tables if used}


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every tensor of a model with ``config``, in the
    order :meth:`ModelParams.initialize` draws them."""
    c, h = config, config.lstm_hidden
    shapes = {name: (len(rows), width) for name, (rows, _, width) in lookup_tables(c).items()}
    for layer, d_in in ((1, c.input_dim), (2, 2 * h)):
        for direction in "fb":
            prefix = f"lstm{layer}{direction}"
            shapes.update({prefix + "_wx": (4 * h, d_in), prefix + "_wh": (4 * h, h), prefix + "_b": (4 * h,)})
    hidden = ["head_hidden"] if c.share_span_hidden else ["label_hidden", "span_hidden"]
    layers = [(name, c.mlp_hidden, c.span_dim) for name in hidden] + [
        ("label_out", len(c.labels), c.mlp_hidden),
        ("span_out", 1, c.mlp_hidden),
        ("remote_child", c.remote_mlp_dim, c.span_dim),
        ("remote_parent", c.remote_mlp_dim, c.span_dim),
    ]
    for name, d_out, d_in in layers:
        shapes.update({name + "_w": (d_out, d_in), name + "_b": (d_out,)})
    shapes["biaffine_w"] = (c.remote_mlp_dim + 1, len(c.remote_labels), c.remote_mlp_dim)
    return shapes


def tensor_views(flat: np.ndarray, shapes: Mapping[str, tuple], what: str = "array") -> dict[str, np.ndarray]:
    """Each tensor's view of ``flat``, a model's array of values, gradients or
    Adam moments, where the tensors lie one after another in sorted-name order
    (a checkpoint payload's).  A ``flat`` of another length raises, as ``what``."""
    names = sorted(shapes)
    bounds = np.cumsum([0, *(math.prod(shapes[name]) for name in names)]).tolist()
    if flat.shape != (bounds[-1],):
        raise ValueError(f"{what} has shape {flat.shape}, not the tensors' ({bounds[-1]},)")
    ranges = {name: slice(lo, hi) for name, lo, hi in zip(names, bounds, bounds[1:])}
    return {name: flat[ranges[name]].reshape(shape) for name, shape in shapes.items()}


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
    """All trainable tensors plus the configuration that shapes them.  The
    C-contiguous array ``values``, of the config's ``dtype``, holds the
    tensors in the layout of :func:`tensor_views`, and ``tensors[name]`` is a
    view of it; assigning a mapping to ``tensors`` copies into these views.  Backward writes each
    tensor's gradient into ``buffers[name]``, the same view of ``gradients``:
    kept from step to step, so a step maps no fresh memory."""

    def __init__(self, config: ModelConfig, values: np.ndarray):
        if config.dtype not in DTYPES:  # a checkpoint could not hold it
            raise ValueError(f"model dtype {config.dtype!r} is not one of {list(DTYPES)}")
        self.config = config
        shapes = tensor_shapes(config)
        self.values = np.ascontiguousarray(values, dtype=config.dtype)
        self._tensors = tensor_views(self.values, shapes, "the value array")
        self.gradients = np.empty_like(self.values)
        self.buffers = tensor_views(self.gradients, shapes)
        # Each lookup table's vocabulary and the token field it reads.
        self.lookups = {name: (Vocab(rows), key) for name, (rows, key, _) in lookup_tables(config).items()}
        self.labels = Vocab(config.labels)
        self.remote_labels = Vocab(config.remote_labels)

    @property
    def tensors(self) -> dict[str, np.ndarray]:
        return self._tensors

    @tensors.setter
    def tensors(self, arrays: Mapping[str, np.ndarray]) -> None:
        # Other names or shapes than the model's raise before any tensor changes.
        want = {name: arr.shape for name, arr in self._tensors.items()}
        got = {name: np.shape(arr) for name, arr in arrays.items()}
        if got != want:
            bad = sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))
            raise ValueError(f"tensors {bad} are missing, extra or of another shape than the model's")
        for name, arr in arrays.items():
            self._tensors[name][...] = arr

    @classmethod
    def initialize(
        cls,
        config: ModelConfig,
        seed: int = 0,
        pretrained: np.ndarray | None = None,
    ) -> ModelParams:
        """Seeded tensors of :func:`tensor_shapes`: embeddings uniform in
        ±0.01 (or the given pretrained matrix), biases zero but for the LSTM
        forget gates' 1, and every weight Glorot-uniform."""
        rng = np.random.default_rng(seed)
        shapes = tensor_shapes(config)
        params = cls(config, np.zeros(sum(map(math.prod, shapes.values())), config.dtype))
        for name, tensor in params.tensors.items():
            shape = tensor.shape
            if name == "emb_pre" and pretrained is not None:
                if pretrained.shape != shape:
                    raise ValueError(f"pretrained matrix shape {pretrained.shape} does not match {shape}")
                tensor[...] = pretrained
            elif name.startswith("emb_"):
                tensor[...] = rng.uniform(-0.01, 0.01, size=shape)
            elif name.startswith("lstm") and name.endswith("_b"):
                tensor[shape[0] // 4 : shape[0] // 2] = 1.0  # forget gate: remember at first
            elif not name.endswith("_b"):
                limit = float(np.sqrt(6.0 / (shape[-1] + shape[0])))
                tensor[...] = rng.uniform(-limit, limit, size=shape)
        return params

    # -- checkpointing --------------------------------------------------

    CHECKPOINT_VERSION = 2

    def save(self, path: str) -> None:
        """A JSON header line naming the config and the sorted tensor names,
        then ``values`` little-endian in the config's dtype, each tensor's in
        that order.  A header without ``dtype`` (written before it was a key)
        reads as float64."""
        names = sorted(self.tensors)
        header = {"config": self.config.to_json(), "tensors": names, "version": self.CHECKPOINT_VERSION}
        with atomic_output(path, binary=True) as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            fh.write(np.ascontiguousarray(self.values, dtype=self.values.dtype.newbyteorder("<")))

    @classmethod
    def load(cls, path: str) -> ModelParams:
        """The model :meth:`save` wrote to ``path``.  A header or payload of
        any other form raises ``ValueError`` naming ``path``."""
        with open(path, "rb") as fh:
            try:
                header = json_typed(json.loads(fh.readline()), dict, "the header line")
                if header.get("version") != cls.CHECKPOINT_VERSION:
                    raise ValueError(f"version {header.get('version')!r}, not {cls.CHECKPOINT_VERSION}")
                config = ModelConfig.from_json(header.get("config"))
                shapes = tensor_shapes(config)
                names = sorted(shapes)
                if header.get("tensors") != names:
                    raise ValueError(f"tensors {header.get('tensors')!r} are not the config's {names}")
                dtype = np.dtype(config.dtype).newbyteorder("<")
                flat = np.empty(sum(map(math.prod, shapes.values())), dtype)  # a huge config fails here
            except (TypeError, ValueError, MemoryError) as exc:
                raise ValueError(f"{path}: checkpoint header: {exc}") from None
            if fh.readinto(flat) != flat.nbytes or fh.read(1):
                raise ValueError(f"{path}: checkpoint payload is not the {flat.nbytes} bytes its header implies")
        return cls(config, flat)

    def copy_tensors(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.tensors.items()}


class BoundParams:
    """Per-forward-pass tape leaves for every parameter tensor, each writing
    its gradient into the model's buffer for that tensor."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.config = params.config
        self.vars = {name: ad.Leaf(arr, params.buffers[name]) for name, arr in params.tensors.items()}

    def __getitem__(self, name: str) -> Var:
        return self.vars[name]

    def grads(self) -> dict[str, np.ndarray]:
        """The gradient of each tensor that the backward pass reached, and of
        no other.  The arrays are the model's buffers: they hold these values
        until the next backward pass through the same model."""
        return {name: v.grad for name, v in self.vars.items() if v.grad is not None}


# ---------------------------------------------------------------------------
# Embedding


def check_external(
    matrices: Sequence[np.ndarray], sentences: Sequence[Sequence[Token]], source: str, dtype: str, width: int = 0
) -> int:
    """The width of per-token external feature matrices, one per sentence:
    ``width`` if nonzero, else the first matrix's.  Another number of matrices
    than of sentences raises naming ``source``, and a matrix without one row per
    token of that width, of width 0, or with a NaN or a value that is infinite
    in ``dtype`` (the model's), naming its 1-based record too."""
    if len(matrices) != len(sentences):
        raise ValueError(f"{source}: {len(matrices)} external feature matrices for {len(sentences)} sentences")
    for k, (matrix, tokens) in enumerate(zip(matrices, sentences), start=1):
        shape = np.shape(matrix)
        width = width or (shape[1] if len(shape) == 2 else 0)
        if shape != (len(tokens), width):
            raise ValueError(
                f"{source}: record {k}: external features of shape {shape}, "
                f"expected ({len(tokens)}, {width})"
            )
        if not width:
            raise ValueError(f"{source}: record {k}: external features of width 0")
        if not finite_in(matrix, dtype):
            raise ValueError(f"{source}: record {k}: external features hold NaN or infinite values")
    return width


def embed(
    tokens: Sequence[Token],
    lang: str,
    bound: BoundParams,
    external: np.ndarray | None = None,
) -> Var:
    """Concatenate per-token feature embeddings into an (n, input_dim) matrix:
    a row of each lookup table the model has, in :attr:`ModelParams.lookups`
    order, then the external features.  The language table reads ``lang``.

    Lookups of unseen strings fall back to the reserved row 0.  When the
    model was built with external features, ``external`` must supply one
    vector per token of the configured width; otherwise it must be None.
    """
    cfg = bound.config
    parts = [
        ad.index(bound[name], [vocab.lookup(lang if key == "lang" else getattr(t, key)) for t in tokens])
        for name, (vocab, key) in bound.params.lookups.items()
    ]
    if cfg.external_dim:
        if external is None:
            raise ValueError("model expects external feature vectors but none were given")
        with np.errstate(over="ignore"):  # 1e300 is infinite in float32: refused next
            external = np.asarray(external, dtype=cfg.dtype)
        check_external([external], [tokens], "sentence", cfg.dtype, cfg.external_dim)
        parts.append(Var(external))
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


def _directions(bound: BoundParams, layer: int) -> tuple[tuple[Var, Var, Var], ...]:
    """The forward and reverse ``(wx, b, wh)`` tensors of one BiLSTM layer."""
    return tuple(
        tuple(bound[f"lstm{layer}{d}_{part}"] for part in ("wx", "b", "wh")) for d in "fb"
    )


def encode(inputs: Var, bound: BoundParams) -> Encoding:
    """Run the two-layer BiLSTM over an (n, input_dim) matrix."""
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("cannot encode an empty sentence")
    top = ad.bilstm(ad.bilstm(inputs, *_directions(bound, 1)), *_directions(bound, 2))
    h = bound.config.lstm_hidden
    zeros = Var(np.zeros((1, h), top.value.dtype))
    forward = ad.concat([zeros, ad.index(top, (slice(None), slice(None, h)))], axis=0)
    backward = ad.concat([ad.index(top, (slice(None), slice(h, None))), zeros], axis=0)
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
    extended = ad.concat([children, Var(np.ones((c, 1), children.value.dtype))], axis=1)
    left = ad.reshape(ad.matmul(extended, ad.reshape(w, (rows, labels * dp))), (c * labels, dp))
    return ad.reshape(ad.linear(left, parents), (c, labels, m))


# ---------------------------------------------------------------------------
# Optimizer


def _finite(values: np.ndarray) -> bool:
    # A sum of finite values is finite unless it overflows, so the
    # elementwise test runs only when the one-pass sum is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    return bool(np.isfinite(total) or np.isfinite(values).all())


def finite_in(values, dtype: str) -> bool:
    """Whether ``values`` are finite once cast to ``dtype``: 1e300 is not
    in float32."""
    with np.errstate(over="ignore"):
        return _finite(np.asarray(values, dtype=dtype))


@dataclass
class AdamState:
    """Adam's step count and moments: ``m`` and ``v`` are None until the first
    step, then each a zeroed array in the layout of :func:`tensor_views`."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


# Elements per block of the Adam update.  A block costs 12 NumPy calls, and
# each call releases and retakes the GIL that the other half's thread also
# wants, so small blocks lose to the handoffs: at 2 Ki elements the two
# threads took 67 ms over the 29 paper-size tensors, one thread 30 ms.
# Large blocks lose the L2: a block's slices of the tensor, m, v and the
# gradient and the scratch block are 40 bytes an element in float64, 2.5 MiB
# at 64 Ki, against 2 MiB of L2 per core.  On a 2-core Xeon with one BLAS
# thread the two threads took 16.3, 13.6, 13.4, 14.3 and 14.9 ms at 16, 32,
# 64, 128 and 256 Ki (medians of 30 interleaved rounds).  In float32 (20
# bytes an element) 32 to 256 Ki took 6.2 to 9.5 ms, with no size ahead of
# 64 Ki by more than the spread between runs.
ADAM_BLOCK = 65536


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
    a scratch block.  Only the tensors named in ``grads`` change.  A
    non-finite gradient raises before any tensor or any optimizer state
    changes, and so does a gradient for a name that ``tensors`` lacks or of
    another shape or dtype than its tensor's, a tensor that is not
    C-contiguous, and a moment of another length or dtype than all of
    ``tensors`` (from another model).  The moments and the scratch blocks
    are of the tensors' dtype.

    Each tensor is split at its midpoint: the caller checks, then updates,
    flat elements ``[0, size // 2)`` and ``autodiff``'s worker thread
    ``[size // 2, size)``.  Both halves are checked before either changes;
    each reports its first non-finite tensor, and the error names the
    earlier of the two in ``grads``.  Each thread updates through a scratch
    block of its own, and each element's update reads only its own cells,
    so the result is one thread's, bit for bit.
    """
    shapes = {name: arr.shape for name, arr in tensors.items()}
    size = sum(map(math.prod, shapes.values()))
    dtype = np.result_type(*tensors.values()) if tensors else np.float64
    moments = (np.zeros(size, dtype), np.zeros(size, dtype)) if state.m is None else (state.m, state.v)
    ms, vs = (tensor_views(flat, shapes, f"state.{what}") for flat, what in zip(moments, "mv"))
    for flat, what in zip(moments, "mv"):  # before anything changes
        if flat.dtype != dtype:
            raise ValueError(f"state.{what} is {flat.dtype}, not the tensors' {dtype}")
    for name, grad in grads.items():
        if name not in tensors:
            raise ValueError(f"gradient for {name!r}, which is not a tensor")
        if grad.shape != shapes[name]:
            raise ValueError(f"gradient for tensor {name!r} has shape {grad.shape}, not {shapes[name]}")
        if grad.dtype != tensors[name].dtype:
            raise ValueError(f"gradient for tensor {name!r} is {grad.dtype}, not {tensors[name].dtype}")
        if not tensors[name].flags.c_contiguous:
            raise ValueError(f"tensor {name!r} is not C-contiguous; Adam updates it in place")

    def first_bad(half: int) -> int:
        """Position in ``grads`` of the first gradient whose half is not finite."""
        for position, grad in enumerate(grads.values()):
            g = grad.reshape(-1)
            start, stop = (0, g.size // 2, g.size)[half : half + 2]
            if not _finite(g[start:stop]):
                return position
        return len(grads)

    bad = min(ad.paired(lambda: first_bad(0), lambda: first_bad(1)))
    if bad < len(grads):
        raise OptimizationError(f"non-finite gradient for tensor {list(grads)[bad]!r}")
    state.m, state.v = moments
    state.t += 1
    t = state.t
    correction = (1.0 - beta2**t) ** 0.5
    step = lr * correction / (1.0 - beta1**t)
    eps_hat = eps * correction

    def update(half: int) -> None:
        scratch = np.empty(ADAM_BLOCK, dtype)
        for name, grad in grads.items():
            # Flat views (C order); a gradient that is not contiguous is copied.
            theta, g = tensors[name].reshape(-1), grad.reshape(-1)
            m, v = ms[name].reshape(-1), vs[name].reshape(-1)
            start, stop = (0, theta.size // 2, theta.size)[half : half + 2]
            for lo in range(start, stop, ADAM_BLOCK):
                hi = min(lo + ADAM_BLOCK, stop)
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

    ad.paired(lambda: update(0), lambda: update(1))
