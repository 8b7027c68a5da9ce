"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Var` wraps a numpy array and remembers how it was computed;
calling :meth:`Var.backward` on a scalar result accumulates gradients
into every reachable input.  The op set is exactly what the encoder,
span scorer and biaffine classifier need — nothing more: ``add``, ``sub``,
``matmul``, ``linear``, ``concat``, ``index``, ``reshape``, ``relu``,
``vsum``, ``lstm``, ``bilstm`` and ``cross_entropy_rows``.  An op's freshly
allocated gradient product becomes a node's first gradient uncopied.
``bilstm`` runs a layer's reverse direction on one worker thread, started
on its first call, while the caller runs the forward direction.

Gradients are checked against central finite differences by
:func:`gradcheck`; that numeric route is kept strictly independent of
the analytic rules here.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Var:
    """A node in the computation graph."""

    __slots__ = ("value", "grad", "_parents", "_bw")

    def __init__(
        self,
        value,
        _parents: tuple["Var", ...] = (),
        _bw: Callable[[np.ndarray], None] | None = None,
    ):
        self.value = np.asarray(value, dtype=np.float64 if not isinstance(value, np.ndarray) else value.dtype)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._bw = _bw

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` to the gradient.  ``fresh``: the caller allocated
        ``grad`` and keeps no reference, so a first write adopts it uncopied."""
        if self.grad is not None:
            self.grad += grad
        elif fresh:
            self.grad = grad
        else:  # a copy in the value's memory layout, no zero fill
            self.grad = np.empty_like(self.value)
            self.grad[...] = grad

    def backward(self) -> None:
        """Backpropagate from this scalar through the whole graph."""
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar root")
        order: list[Var] = []
        seen: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.value))
        for node in reversed(order):
            if node._bw is not None and node.grad is not None:
                node._bw(node.grad)

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)


def _wrap(x) -> Var:
    return x if isinstance(x, Var) else Var(np.asarray(x, dtype=np.float64))


# -- arithmetic ---------------------------------------------------------


def add(a: Var, b: Var) -> Var:
    out = Var(a.value + b.value, (a, b))

    def bw(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g, a.value.shape))
        b._accumulate(_unbroadcast(g, b.value.shape))

    out._bw = bw
    return out


def sub(a: Var, b: Var) -> Var:
    out = Var(a.value - b.value, (a, b))

    def bw(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g, a.value.shape))
        b._accumulate(-_unbroadcast(g, b.value.shape), fresh=True)

    out._bw = bw
    return out


def matmul(a: Var, b: Var) -> Var:
    """Matrix product of two 2-D arrays."""
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError(f"matmul takes 2-D operands, got {a.shape} @ {b.shape}")
    out = Var(a.value @ b.value, (a, b))

    def bw(g: np.ndarray) -> None:
        a._accumulate(g @ b.value.T, fresh=True)
        b._accumulate(a.value.T @ g, fresh=True)

    out._bw = bw
    return out


def linear(x: Var, w: Var, b: Var | None = None) -> Var:
    """``x @ w.T (+ b)`` for (m, in) rows ``x``, an (out, in) ``w`` and an
    (out,) ``b``.  Backward writes ``w``'s gradient as ``g.T @ x``, in
    ``w``'s own layout, so no transposed product is ever copied."""
    if x.value.ndim != 2 or w.value.ndim != 2:
        raise ValueError(f"linear takes 2-D operands, got {x.shape} and {w.shape}")
    value = x.value @ w.value.T
    if b is not None:
        value += b.value
    out = Var(value, (x, w) if b is None else (x, w, b))

    def bw(g: np.ndarray) -> None:
        x._accumulate(g @ w.value, fresh=True)
        w._accumulate(g.T @ x.value, fresh=True)
        if b is not None:
            b._accumulate(g.sum(axis=0), fresh=True)

    out._bw = bw
    return out


# -- shape ops ----------------------------------------------------------


def concat(vars_: Sequence[Var], axis: int = -1) -> Var:
    out = Var(np.concatenate([v.value for v in vars_], axis=axis), tuple(vars_))
    sizes = [v.value.shape[axis] for v in vars_]

    def bw(g: np.ndarray) -> None:
        offset = 0
        for v, size in zip(vars_, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            v._accumulate(g[tuple(index)])
            offset += size

    out._bw = bw
    return out


def _row_gather(key) -> np.ndarray | None:
    """The first-axis integer indices of a key that takes whole rows (an
    int, an integer list or array, or such a key followed by whole slices),
    else None."""
    if isinstance(key, tuple):
        if not key or not all(isinstance(k, slice) and k == slice(None) for k in key[1:]):
            return None
        key = key[0]
    rows = np.asarray(key)  # a slice, None or Ellipsis gives an object array
    return rows.astype(np.intp, copy=False) if rows.dtype.kind in "iu" else None


def index(a: Var, key) -> Var:
    """``a.value[key]`` for any numpy index: an int, a slice, a list or
    array of indices, or a tuple of them such as ``(rows, slice(None), cols)``.

    The backward pass scatters into ``a``'s gradient, so duplicate indices
    accumulate: one ``bincount`` over the gathered cells' flat positions,
    not an ``a.size``-long table.  A gather of whole rows reads them from
    its row offsets, any other key from broadcast per-axis offsets.
    """
    out = Var(a.value[key], (a,))

    def bw(g: np.ndarray) -> None:
        shape = a.value.shape
        rows = _row_gather(key)
        if rows is not None:
            width = math.prod(shape[1:])
            cells = (rows % shape[0])[..., None] * width + np.arange(width)
        else:
            cells = sum(
                np.broadcast_to(offsets * math.prod(shape[axis + 1 :]), shape)[key]
                for axis, offsets in enumerate(np.indices(shape, sparse=True))
            )
        grad = np.bincount(np.ravel(cells), weights=np.ravel(g), minlength=a.value.size)
        a._accumulate(grad.reshape(shape), fresh=True)

    out._bw = bw
    return out


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    out = Var(a.value.reshape(shape), (a,))

    def bw(g: np.ndarray) -> None:
        a._accumulate(g.reshape(a.value.shape))

    out._bw = bw
    return out


# -- nonlinearities -----------------------------------------------------


def relu(a: Var) -> Var:
    value = np.maximum(a.value, 0.0)
    out = Var(value, (a,))

    def bw(g: np.ndarray) -> None:
        a._accumulate(g * (a.value > 0.0), fresh=True)

    out._bw = bw
    return out


def vsum(a: Var) -> Var:
    """Sum of all elements."""
    out = Var(a.value.sum(), (a,))

    def bw(g: np.ndarray) -> None:
        a._accumulate(np.full_like(a.value, float(g)), fresh=True)

    out._bw = bw
    return out


# -- recurrence ---------------------------------------------------------


def lstm(projected: Var, w_h: Var, reverse: bool = False) -> Var:
    """(n, h) states of an LSTM from a zero state over ``projected``, the
    (n, 4h) input projection of its steps (gate blocks i, f, o, g), with
    (4h, h) recurrent weights ``w_h``.  ``reverse`` runs from the last row;
    row t of the result is always the state after reading row t.  Gates and
    cells are arrays, not tape nodes: backward fills one (n, 4h) gate-gradient
    array, then takes each input's gradient in one product (arXiv 1604.01946).
    Each step writes into rows of those arrays, allocating nothing."""
    x, wh = projected.value[::-1] if reverse else projected.value, w_h.value
    n, h_dim = x.shape[0], wh.shape[1]
    acts = np.empty(x.shape)  # sigmoid of the i, f, o blocks, tanh of g
    cells = np.zeros((n + 1, h_dim))  # row k + 1 after step k, row 0 the zero state
    states = np.zeros((n + 1, h_dim))
    for k in range(n):
        pre, c, s = acts[k], cells[k + 1], states[k + 1]
        np.dot(wh, states[k], out=pre)
        pre += x[k]
        sig = pre[: 3 * h_dim]
        np.negative(sig, out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.divide(1.0, sig, out=sig)
        np.tanh(pre[3 * h_dim :], out=pre[3 * h_dim :])
        i, f, o, g = pre.reshape(4, h_dim)
        np.multiply(f, cells[k], out=c)
        np.multiply(i, g, out=s)  # s as scratch until the state is written
        c += s
        np.tanh(c, out=s)
        s *= o
    out = Var(states[:0:-1] if reverse else states[1:], (projected, w_h))

    def bw(grad: np.ndarray) -> None:
        d_states = grad[::-1] if reverse else grad
        tanh_cells = np.tanh(cells[1:])
        d_tanh_cells = 1.0 - tanh_cells**2
        slopes = acts * (1.0 - acts)
        slopes[:, 3 * h_dim :] = 1.0 - acts[:, 3 * h_dim :] ** 2
        d_projected = np.empty(x.shape)  # C order: each row's four gate blocks are views
        d_gates = d_projected[::-1] if reverse else d_projected  # in step order
        dh, dc, scratch = np.zeros(h_dim), np.zeros(h_dim), np.empty(h_dim)
        for k in range(n - 1, -1, -1):
            i, f, o, g = acts[k].reshape(4, h_dim)
            dh += d_states[k]
            np.multiply(dh, o, out=scratch)
            scratch *= d_tanh_cells[k]
            dc += scratch
            d_i, d_f, d_o, d_g = d_gates[k].reshape(4, h_dim)
            np.multiply(dc, g, out=d_i)
            np.multiply(dc, cells[k], out=d_f)
            np.multiply(dh, tanh_cells[k], out=d_o)
            np.multiply(dc, i, out=d_g)
            d_gates[k] *= slopes[k]
            dc *= f
            np.dot(wh.T, d_gates[k], out=dh)
        projected._accumulate(d_projected, fresh=True)
        w_h._accumulate(d_gates.T @ states[:-1], fresh=True)

    out._bw = bw
    return out


def _new_worker() -> None:
    """Make the executor of the one thread that runs reverse directions.  Its
    thread starts on the first submit; a forked child, which has no such
    thread, gets an executor of its own."""
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="uccatree-bilstm")


_new_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_worker)


def _paired(here: Callable[[], object], there: Callable[[], object]) -> tuple:
    """Run ``there`` on the worker while the caller runs ``here``; both results."""
    pending = _worker.submit(there)
    try:
        mine = here()
    finally:
        theirs = pending.result()  # raises the worker's error, and waits for it
    return mine, theirs


def _direction(x: np.ndarray, weights: tuple[Var, Var, Var], reverse: bool) -> Var:
    """(n, h) states of one LSTM direction ``(wx, b, wh)`` over rows ``x``,
    read through a leaf of its own."""
    wx, b, wh = weights
    return lstm(linear(Var(x), wx, b), wh, reverse=reverse)


def _direction_backward(states: Var, grad: np.ndarray) -> np.ndarray:
    """Backpropagate ``grad`` through a :func:`_direction` subgraph into its
    weights; return its input leaf's gradient."""
    projected = states._parents[0]
    states._bw(grad)
    projected._bw(projected.grad)
    return projected._parents[0].grad


def bilstm(x: Var, forward: tuple[Var, Var, Var], reverse: tuple[Var, Var, Var]) -> Var:
    """(n, 2h) outputs of one BiLSTM layer over (n, d) rows ``x``: the
    forward direction's states, then the reverse one's.  Each direction is a
    ``(wx, b, wh)`` triple run as ``lstm(linear(x, wx, b), wh)``.

    The directions are independent recurrences, so in both passes the
    reverse one runs on the worker thread while the caller runs the forward
    one (arXiv 1604.01946).  Each writes only its own tensors' gradients;
    ``x`` gets their two input gradients after the join.  A sum of two terms
    is the same in either order, so results equal one thread's bit for bit.
    """
    if {id(v) for v in forward} & {id(v) for v in reverse}:
        raise ValueError("the two directions of a bilstm share a tensor")
    ahead, behind = _paired(
        lambda: _direction(x.value, forward, False), lambda: _direction(x.value, reverse, True)
    )
    h = ahead.shape[1]
    out = Var(np.concatenate([ahead.value, behind.value], axis=1), (x, *forward, *reverse))

    def bw(g: np.ndarray) -> None:
        grads = _paired(
            lambda: _direction_backward(ahead, g[:, :h]),
            lambda: _direction_backward(behind, g[:, h:]),
        )
        for grad in grads:
            x._accumulate(grad, fresh=True)

    out._bw = bw
    return out


# -- losses -------------------------------------------------------------


def cross_entropy_rows(scores: Var, gold: Sequence[int]) -> Var:
    """Summed negative log softmax probability of ``gold[r]`` in row ``r``
    of an (m, labels) score matrix, numerically stable."""
    s = scores.value
    rows = np.arange(s.shape[0])
    gold = np.asarray(gold, dtype=np.intp)
    m = s.max(axis=1, keepdims=True)
    exp = np.exp(s - m)
    z = exp.sum(axis=1, keepdims=True)
    softmax = exp / z
    out = Var(((np.log(z) + m)[:, 0] - s[rows, gold]).sum(), (scores,))

    def bw(g: np.ndarray) -> None:
        grad = softmax * float(g)
        grad[rows, gold] -= float(g)
        scores._accumulate(grad, fresh=True)

    out._bw = bw
    return out


# -- finite differences -------------------------------------------------


def analytic_grads(
    build_loss: Callable[[dict[str, Var]], Var], tensors: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    leaves = {name: Var(arr) for name, arr in tensors.items()}
    loss = build_loss(leaves)
    loss.backward()
    return {
        name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value))
        for name, leaf in leaves.items()
    }


def numeric_grads(
    build_loss: Callable[[dict[str, Var]], Var],
    tensors: dict[str, np.ndarray],
    eps: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central finite differences of the loss w.r.t. every coordinate."""

    def loss_value(arrays: dict[str, np.ndarray]) -> float:
        return float(build_loss({k: Var(v) for k, v in arrays.items()}).value)

    grads: dict[str, np.ndarray] = {}
    for name, arr in tensors.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_value(tensors)
            flat[i] = orig - eps
            down = loss_value(tensors)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        grads[name] = grad
    return grads


def max_relative_error(
    analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]
) -> float:
    """Worst-case per-coordinate error, relative above unit magnitude."""
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
        err = np.abs(a - n) / denom
        if err.size:
            worst = max(worst, float(err.max()))
    return worst


def gradcheck(
    build_loss: Callable[[dict[str, Var]], Var],
    tensors: dict[str, np.ndarray],
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference grads."""
    return max_relative_error(
        analytic_grads(build_loss, tensors), numeric_grads(build_loss, tensors, eps=eps)
    )
