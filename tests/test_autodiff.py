"""Reverse-mode tape: hand-derived gradients and finite-difference checks.

Two independent oracles are used side by side: tiny cases whose gradients
are worked out by hand (or by explicit loops written differently from the
library's vectorized rules), and central finite differences at random
points kept away from the relu kink.
"""

from __future__ import annotations

import json
import math
import sys
import threading

import numpy as np
import pytest

from uccatree import autodiff as ad
from uccatree.autodiff import Var, _unbroadcast
from uccatree.generator import SyntheticSpec, generate
from uccatree.neural_core import ModelParams
from uccatree.training import TrainConfig, build_model_config, parse_pipeline


def weighted(out: Var, weights: np.ndarray) -> Var:
    """Scalarize a tensor with distinct weights so FD sees each coordinate."""
    return ad.vsum(ad.matmul(ad.reshape(out, (1, -1)), Var(weights.reshape(-1, 1))))


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestHandDerived:
    def test_matmul_matrix_vector(self):
        a = Var(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Var(np.array([[2.0], [1.0]]))
        out = ad.matmul(a, b)
        assert out.value.tolist() == [[4.0], [10.0]]
        ad.vsum(out).backward()
        assert a.grad.tolist() == [[2.0, 1.0], [2.0, 1.0]]
        assert b.grad.tolist() == [[4.0], [6.0]]

    def test_matmul_rejects_1d_operands(self):
        with pytest.raises(ValueError, match="2-D"):
            ad.matmul(Var(np.ones((2, 3))), Var(np.ones(3)))

    def test_weighted_sum_and_broadcast_add(self):
        a = Var(np.array([[1.0, 2.0], [3.0, 4.0]]))
        bias = Var(np.array([10.0, 20.0]))
        out = ad.add(a, bias)
        weighted(out, np.array([[1.0, 2.0], [3.0, 4.0]])).backward()
        assert a.grad.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        # Broadcast bias gradient sums over the rows it fed.
        assert bias.grad.tolist() == [4.0, 6.0]

    def test_take_rows_accumulates_duplicates(self):
        a = Var(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        out = ad.index(a, [0, 0, 2])
        weighted(out, np.array([[1.0, 2.0], [4.0, 8.0], [16.0, 32.0]])).backward()
        assert a.grad.tolist() == [[5.0, 10.0], [0.0, 0.0], [16.0, 32.0]]

    def test_cross_entropy_against_logsumexp(self):
        scores = [[1.0, 2.0, 0.5], [0.0, -1.0, 3.0], [1.0, 2.0, 0.5]]
        gold = [1, 2, 1]
        v = Var(np.array(scores))
        loss = ad.cross_entropy_rows(v, gold)
        expected_loss = 0.0
        expected_grad = []
        for row, g in zip(scores, gold):
            z = sum(math.exp(s) for s in row)
            expected_loss += math.log(z) - row[g]
            expected_grad.append(
                [math.exp(s) / z - (1.0 if i == g else 0.0) for i, s in enumerate(row)]
            )
        assert loss.value.shape == ()
        assert loss.value == pytest.approx(expected_loss, abs=1e-12)
        loss.backward()
        assert v.grad == pytest.approx(np.array(expected_grad), abs=1e-12)

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Var(np.array([-1.0, 0.0, 2.0]))
        ad.vsum(ad.relu(x)).backward()
        assert x.grad.tolist() == [0.0, 0.0, 1.0]

    def test_shared_node_gets_both_contributions(self):
        x = Var(np.array([1.0, 2.0, 3.0]))
        s = ad.reshape(ad.vsum(x), (1, 1))
        loss = ad.vsum(ad.matmul(s, s))
        loss.backward()
        assert loss.value == 36.0
        assert x.grad.tolist() == [12.0, 12.0, 12.0]

    def test_deep_reuse_chain(self):
        # f(x) = (x + x) . (x + x) = 4 |x|^2, df/dx = 8x.
        x = Var(np.array([1.0, -2.0]))
        y = ad.add(x, x)
        ad.vsum(ad.matmul(ad.reshape(y, (1, 2)), ad.reshape(y, (2, 1)))).backward()
        assert x.grad.tolist() == [8.0, -16.0]

    def test_vsum_of_empty_is_zero_scalar(self):
        x = Var(np.zeros(0))
        z = ad.vsum(ad.relu(x + 1.0))
        assert z.value.shape == () and float(z.value) == 0.0
        z.backward()
        assert x.grad.shape == (0,)

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            Var(np.zeros(3)).backward()

    def test_operator_sugar_matches_functions(self):
        a = Var(np.array(2.0))
        b = Var(np.array(3.0))
        assert float((a + b + 1.0 - b).value) == 3.0
        assert float((1.0 + a - 5.0).value) == -2.0
        assert float((5.0 - a).value) == 3.0


class TestLinear:
    def test_matches_matmul_of_transpose_plus_bias(self):
        r = rng(30)
        x, w, b = r.standard_normal((3, 4)), r.standard_normal((5, 4)), r.standard_normal(5)
        assert np.array_equal(ad.linear(Var(x), Var(w), Var(b)).value, x @ w.T + b)
        assert np.array_equal(ad.linear(Var(x), Var(w)).value, x @ w.T)

    def test_gradients_are_adopted_in_the_operands_layout(self):
        r = rng(31)
        x, w, b = Var(r.standard_normal((3, 4))), Var(r.standard_normal((5, 4))), Var(np.zeros(5))
        ad.vsum(ad.linear(x, w, b)).backward()
        for leaf in (x, w, b):
            assert leaf.grad.shape == leaf.shape and leaf.grad.flags.c_contiguous
        assert np.array_equal(w.grad, np.ones((5, 3)) @ x.value)
        assert b.grad.tolist() == [3.0] * 5

    def test_rejects_1d_operands(self):
        with pytest.raises(ValueError, match="2-D"):
            ad.linear(Var(np.ones(4)), Var(np.ones((2, 4))))


class TestIndexScatter:
    """``index``'s backward is bit-equal to ``np.add.at`` into zeros."""

    @pytest.mark.parametrize(
        "shape, key",
        [
            ((5, 3), [4, 0, 4, 2, 4, 4]),  # duplicate rows
            ((3, 2, 4), ([0, 2, 0, 1, 0], slice(None), [1, 3, 1, 0, 1])),
            ((4, 3), (np.array([3, 1, 3]), np.array([2, 0, 2]))),
            ((4, 3), (slice(None), 1)),
            ((4, 3), []),  # empty key
            ((5, 2, 3), ([1, 4, 1, 1], slice(None), slice(None))),  # whole rows, repeated
            ((5, 3), (np.array([[0, 3], [3, 3]]),)),  # a 2-D row key
            ((5, 3), np.array([-1, 4, -5, 0], dtype=np.int32)),  # negative rows
            ((5, 3), 2),
            ((6,), [5, 1, 5]),  # rows of a vector
            ((31, 500), (slice(None), slice(250, None))),  # slices and ints only
            ((465, 1), (slice(None), 0)),
            ((4, 5, 3), (2, slice(None, None, -1), np.int64(-1))),
        ],
    )
    def test_backward_matches_add_at_bitwise(self, shape, key):
        r = rng(40)
        a = Var(r.standard_normal(shape))
        out = ad.index(a, key)
        # Magnitudes spread over 16 decades, so the summation order of the
        # duplicates shows in the low bits.
        g = r.standard_normal(out.shape) * 10.0 ** r.uniform(-8, 8, out.shape)
        weighted(out, g).backward()
        want = np.zeros(shape)
        np.add.at(want, key, g)
        assert a.grad.shape == shape
        assert a.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "shape, key",
        [
            ((5, 3), [4, 0, 4, 2, 4, 4]),
            ((30, 250), np.array([7, 3, 7, 29, 0, 7] * 5)),
            ((5, 2, 3), (np.array([[1, 4], [1, 1]]), slice(None))),
            ((5, 3), [-2, 3, 3]),
        ],
    )
    def test_row_gather_matches_the_general_positions_bitwise(self, shape, key):
        """Whole-row gathers get the gradient that the per-axis position rule
        gives, repeated rows included."""
        r = rng(41)
        a = Var(r.standard_normal(shape))
        out = ad.index(a, key)
        g = r.standard_normal(out.shape) * 10.0 ** r.uniform(-8, 8, out.shape)
        weighted(out, g).backward()
        cells = sum(
            np.broadcast_to(offsets * math.prod(shape[axis + 1 :]), shape)[key]
            for axis, offsets in enumerate(np.indices(shape, sparse=True))
        )
        want = np.bincount(np.ravel(cells), weights=np.ravel(g), minlength=a.value.size)
        assert a.grad.tobytes() == want.reshape(shape).tobytes()

    def test_second_gather_adds_to_the_first(self):
        a = Var(np.zeros((3, 2)))
        loss = ad.vsum(ad.index(a, [2, 2])) + ad.vsum(ad.index(a, (slice(None), 0)))
        loss.backward()
        assert a.grad.tolist() == [[1.0, 0.0], [1.0, 0.0], [3.0, 2.0]]


def reference_lstm(x, wh, d_states, reverse):
    """States and input gradients of an LSTM written step by step with a
    fresh array per operation, in the operand order ``ad.lstm`` uses."""
    if reverse:
        x, d_states = x[::-1], d_states[::-1]
    n, h = x.shape[0], wh.shape[1]
    acts = np.empty(x.shape)
    cells, states = np.zeros((n + 1, h)), np.zeros((n + 1, h))
    for k in range(n):
        pre = x[k] + wh @ states[k]
        acts[k, : 3 * h] = 1.0 / (1.0 + np.exp(-pre[: 3 * h]))
        acts[k, 3 * h :] = np.tanh(pre[3 * h :])
        i, f, o, g = acts[k].reshape(4, h)
        cells[k + 1] = f * cells[k] + i * g
        states[k + 1] = o * np.tanh(cells[k + 1])
    tanh_cells = np.tanh(cells[1:])
    slopes = acts * (1.0 - acts)
    slopes[:, 3 * h :] = 1.0 - acts[:, 3 * h :] ** 2
    d_gates = np.empty(x.shape)
    dh, dc = np.zeros(h), np.zeros(h)
    for k in range(n - 1, -1, -1):
        i, f, o, g = acts[k].reshape(4, h)
        dh = dh + d_states[k]
        dc = dc + dh * o * (1.0 - tanh_cells[k] ** 2)
        d_gates[k] = np.concatenate([dc * g, dc * cells[k], dh * tanh_cells[k], dc * i])
        d_gates[k] *= slopes[k]
        dc, dh = dc * f, wh.T @ d_gates[k]
    d_wh = d_gates.T @ states[:-1]
    if reverse:
        return states[:0:-1], d_gates[::-1], d_wh
    return states[1:], d_gates, d_wh


class TestLstmSteps:
    """The in-place recurrence is bit-equal to the step-by-step reference."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_matches_the_reference_bitwise(self, n, reverse):
        r = rng(50 + n)
        h = 7
        x = r.standard_normal((n, 4 * h))
        wh = r.standard_normal((4 * h, h)) * 0.6
        d_states = r.standard_normal((n, h))
        p, w = Var(x.copy()), Var(wh.copy())
        out = ad.lstm(p, w, reverse=reverse)
        out._bw(d_states)
        states, d_x, d_wh = reference_lstm(x, wh, d_states, reverse)
        assert out.value.tobytes() == np.ascontiguousarray(states).tobytes()
        assert p.grad.tobytes() == np.ascontiguousarray(d_x).tobytes()
        assert w.grad.tobytes() == d_wh.tobytes()


def bilstm_case(n: int, d: int = 6, h: int = 5, seed: int = 0) -> dict[str, np.ndarray]:
    """Rows ``x``, the two directions' ``(wx, b, wh)`` and an output gradient ``g``."""
    r = rng(seed + n)
    case = {"x": r.standard_normal((n, d)), "g": r.standard_normal((n, 2 * h))}
    for side in "fr":
        case["wx" + side] = r.standard_normal((4 * h, d)) * 0.5
        case["b" + side] = r.standard_normal(4 * h) * 0.5
        case["wh" + side] = r.standard_normal((4 * h, h)) * 0.6
    return case


def run_bilstm(case: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The paired op's output and the gradients of ``case['g']``."""
    leaves = {name: Var(arr.copy()) for name, arr in case.items() if name != "g"}
    directions = [tuple(leaves[part + side] for part in ("wx", "b", "wh")) for side in "fr"]
    out = ad.bilstm(leaves["x"], *directions)
    out._bw(case["g"])
    return out.value, {name: leaf.grad for name, leaf in leaves.items()}


class TestBilstm:
    """The paired op equals its two directions run one after the other."""

    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_matches_two_one_direction_lstms_bitwise(self, n):
        case = bilstm_case(n)
        value, grads = run_bilstm(case)
        h = case["whf"].shape[1]
        x = Var(case["x"].copy())
        states, want = [], {}
        for side, g in zip("fr", (case["g"][:, :h], case["g"][:, h:])):
            wx, b, wh = (Var(case[part + side].copy()) for part in ("wx", "b", "wh"))
            projected = ad.linear(x, wx, b)
            out = ad.lstm(projected, wh, reverse=side == "r")
            out._bw(g)
            projected._bw(projected.grad)
            states.append(out.value)
            want.update({"wx" + side: wx.grad, "b" + side: b.grad, "wh" + side: wh.grad})
        want["x"] = x.grad
        assert np.array_equal(value, np.concatenate(states, axis=1))
        for name, grad in want.items():
            assert np.array_equal(grads[name], grad), name

    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_matches_the_step_by_step_reference_bitwise(self, n):
        case = bilstm_case(n)
        value, grads = run_bilstm(case)
        x, h = case["x"], case["whf"].shape[1]
        states, d_x = [], 0.0
        for side, g in zip("fr", (case["g"][:, :h], case["g"][:, h:])):
            wx, b, wh = case["wx" + side], case["b" + side], case["wh" + side]
            projected = x @ wx.T
            projected += b
            s, d_projected, d_wh = reference_lstm(projected, wh, g, side == "r")
            d_projected = np.ascontiguousarray(d_projected)
            states.append(s)
            d_x = d_x + d_projected @ wx
            assert np.array_equal(grads["wx" + side], d_projected.T @ x)
            assert np.array_equal(grads["b" + side], d_projected.sum(axis=0))
            assert np.array_equal(grads["wh" + side], d_wh)
        assert np.array_equal(value, np.concatenate(states, axis=1))
        assert np.array_equal(grads["x"], d_x)

    def test_repeated_runs_give_identical_bytes(self):
        case = bilstm_case(30, d=40, h=50)
        first_value, first_grads = run_bilstm(case)
        for _ in range(50):
            value, grads = run_bilstm(case)
            assert value.tobytes() == first_value.tobytes()
            for name, grad in grads.items():
                assert grad.tobytes() == first_grads[name].tobytes(), name

    def test_each_gradient_is_written_by_one_thread(self, monkeypatch):
        writers: dict[int, set[str]] = {}
        accumulate = Var._accumulate

        def recording(var, grad, fresh=False):
            writers.setdefault(id(var), set()).add(threading.current_thread().name)
            accumulate(var, grad, fresh)

        monkeypatch.setattr(Var, "_accumulate", recording)
        case = bilstm_case(4)
        x = Var(case["x"])
        directions = [tuple(Var(case[part + side]) for part in ("wx", "b", "wh")) for side in "fr"]
        ad.bilstm(x, *directions)._bw(case["g"])
        assert writers[id(x)] == {threading.current_thread().name}
        assert all(len(names) == 1 for names in writers.values())
        assert all(writers[id(v)] != writers[id(x)] for v in directions[1])  # on the worker

    def test_directions_may_not_share_a_tensor(self):
        case = bilstm_case(2)
        x, wx, b, wh = (Var(case[name]) for name in ("x", "wxf", "bf", "whf"))
        with pytest.raises(ValueError, match="share"):
            ad.bilstm(x, (wx, b, wh), (Var(case["wxr"]), Var(case["br"]), wh))

    def test_weights_must_be_leaves(self):
        # Each direction's backward walk would run a computed weight's rule,
        # and the outer walk would run it again.
        case = bilstm_case(2)
        x, wx, b, wh = (Var(case[name]) for name in ("x", "wxf", "bf", "whf"))
        reverse = (Var(case["wxr"]), Var(case["br"]), Var(case["whr"]) + 0.0)
        with pytest.raises(ValueError, match="leaves"):
            ad.bilstm(x, (wx, b, wh), reverse)


class TestBilstmCallers:
    """Caller threads share the one worker without changing any result."""

    @pytest.fixture(scope="class")
    def model_and_sentences(self):
        graphs = generate(SyntheticSpec(sentences=12, min_tokens=4, max_tokens=25), seed=4)
        config = TrainConfig(seed=2, lstm_hidden=32, mlp_hidden=24, remote_mlp_dim=8,
                             word_dim=16, tag_dim=4)
        params = ModelParams.initialize(build_model_config(graphs, config), seed=2)
        return params, [g.tokens for g in graphs]

    @staticmethod
    def parse_all(params, sentences) -> list[str]:
        return [json.dumps(parse_pipeline(t, params).to_json(), sort_keys=True) for t in sentences]

    def test_three_callers_at_once_match_sequential_runs(self, model_and_sentences):
        # Three callers and the worker: more threads than this host's two
        # cores, switching often, so that a shared write would show.
        params, sentences = model_and_sentences
        want = self.parse_all(params, sentences)
        start = threading.Barrier(3)
        results: dict[int, list[str]] = {}

        def caller(k: int) -> None:
            start.wait()
            order = sentences[k:] + sentences[:k]
            got = self.parse_all(params, order)
            results[k] = got[len(got) - k :] + got[: len(got) - k]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {k: want for k in range(3)}


class TestPaired:
    def test_runs_the_second_job_on_the_worker(self):
        def name() -> str:
            return threading.current_thread().name

        here, there = ad.paired(name, name)
        assert here == threading.current_thread().name and there.startswith("uccatree-bilstm")

    def test_a_call_on_the_worker_raises_instead_of_waiting_for_itself(self):
        with pytest.raises(RuntimeError, match="worker thread"):
            ad.paired(lambda: None, lambda: ad.paired(lambda: 1, lambda: 2))
        assert ad.paired(lambda: 1, lambda: 2) == (1, 2)  # the worker is free again


class TestUnbroadcast:
    def test_extra_leading_axis_summed(self):
        g = np.ones((3, 2))
        assert _unbroadcast(g, (2,)).tolist() == [3.0, 3.0]

    def test_keepdim_axis_summed(self):
        g = np.arange(6.0).reshape(3, 2)
        assert _unbroadcast(g, (3, 1)).tolist() == [[1.0], [5.0], [9.0]]

    def test_matching_shape_untouched(self):
        g = np.arange(4.0).reshape(2, 2)
        assert _unbroadcast(g, (2, 2)) is g


def fd_check(build, tensors, tol=1e-7):
    err = ad.gradcheck(build, tensors, eps=1e-5)
    assert err < tol, f"finite differences disagree: {err:.3e}"


class TestFiniteDifferences:
    """Each op at a random smooth point against central differences."""

    def test_add_sub_broadcast_reuse(self):
        r = rng(0)
        tensors = {"a": r.standard_normal((3, 4)), "b": r.standard_normal(4)}
        w = r.standard_normal((3, 3))

        def build(v):
            # ``a`` reaches the loss along two paths, so its gradients add.
            diff = ad.sub(ad.add(v["a"], v["b"]), v["b"])
            return weighted(ad.linear(diff, v["a"]), w)

        fd_check(build, tensors)

    def test_matmul_all_shape_cases(self):
        r = rng(1)
        tensors = {
            "m1": r.standard_normal((2, 3)),
            "m2": r.standard_normal((3, 2)),
            "v1": r.standard_normal((3, 1)),
        }
        w = r.standard_normal((2, 2))

        def build(v):
            mm = weighted(ad.matmul(v["m1"], v["m2"]), w)  # 2D @ 2D
            mv = weighted(ad.matmul(v["m1"], v["v1"]), np.array([[2.0], [-1.0]]))  # 2D @ column
            return mm + mv

        fd_check(build, tensors)

    def test_shape_ops(self):
        r = rng(2)
        tensors = {"a": r.standard_normal((4, 3)), "b": r.standard_normal((4, 2))}
        w = r.standard_normal((4, 5))
        w2 = r.standard_normal((3, 3))
        w3 = r.standard_normal((2, 4))

        def build(v):
            cat = weighted(ad.concat([v["a"], v["b"]], axis=-1), w)
            rows = weighted(ad.index(v["a"], [1, 1, 3]), w2)
            sl = weighted(ad.index(v["b"], slice(1, 3)), np.array([[1.0, 2.0], [3.0, 4.0]]))
            st = weighted(
                ad.concat([ad.index(v["a"], [0]), ad.index(v["a"], [2])], axis=0),
                np.array([[1.0, -1.0, 2.0], [0.5, 1.5, -2.5]]),
            )
            elem = ad.add(ad.index(ad.index(v["a"], 1), 2), ad.index(v["b"], (0, 1)))
            tr = weighted(ad.linear(Var(np.eye(2)), v["b"]), w3)  # b transposed
            return cat + rows + sl + st + elem + tr

        fd_check(build, tensors)

    @pytest.mark.parametrize("rows, bias", [(3, True), (3, False), (1, True)])
    def test_linear(self, rows, bias):
        r = rng(20 + rows)
        tensors = {"x": r.standard_normal((rows, 4)), "w": r.standard_normal((5, 4))}
        if bias:
            tensors["b"] = r.standard_normal(5)
        c = r.standard_normal((rows, 5))

        def build(v):
            # ``x`` also feeds ``w``'s place, so both of its gradients add.
            square = ad.linear(v["x"], v["x"])
            return weighted(ad.linear(v["x"], v["w"], v.get("b")), c) + weighted(
                square, np.ones((rows, rows))
            )

        fd_check(build, tensors)

    def test_nonlinearities(self):
        r = rng(4)
        x = r.standard_normal(6)
        x[np.abs(x) < 0.2] += 0.5  # keep relu inputs away from its kink
        tensors = {"x": x}
        w = r.standard_normal(6)

        def build(v):
            negated = 0.0 - v["x"]
            return weighted(ad.relu(v["x"]), w) + weighted(ad.relu(negated), np.arange(1.0, 7.0))

        fd_check(build, tensors)

    @pytest.mark.parametrize("n", [1, 4])
    def test_lstm_forward_and_reverse(self, n):
        r = rng(10 + n)
        tensors = {
            "p": r.standard_normal((n, 12)),
            "wh": r.standard_normal((12, 3)) * 0.7,
        }
        c1, c2 = r.standard_normal((n, 3)), r.standard_normal((n, 3))

        def build(v):
            # Both directions read the same leaves, so their gradients add.
            return weighted(ad.lstm(v["p"], v["wh"]), c1) + weighted(
                ad.lstm(v["p"], v["wh"], reverse=True), c2
            )

        fd_check(build, tensors)

    @pytest.mark.parametrize("n", [1, 3])
    def test_bilstm(self, n):
        case = bilstm_case(n, d=3, h=2, seed=20)
        tensors = {name: arr for name, arr in case.items() if name != "g"}

        def build(v):
            directions = [tuple(v[part + side] for part in ("wx", "b", "wh")) for side in "fr"]
            return weighted(ad.bilstm(v["x"], *directions), case["g"])

        fd_check(build, tensors)

    def test_cross_entropy(self):
        r = rng(5)
        tensors = {"s": r.standard_normal((3, 7))}

        def build(v):
            # Repeated gold ids, and a second call on the same matrix.
            return ad.cross_entropy_rows(v["s"], [0, 4, 0]) + ad.cross_entropy_rows(
                v["s"], [4, 4, 6]
            )

        fd_check(build, tensors)

    def test_cross_entropy_rows_single_row(self):
        r = rng(8)
        tensors = {"s": r.standard_normal((1, 5))}
        fd_check(lambda v: ad.cross_entropy_rows(v["s"], [3]), tensors)

    def test_reshape(self):
        r = rng(6)
        tensors = {"a": r.standard_normal((2, 6))}
        c1, c2 = r.standard_normal((3, 4)), r.standard_normal((2, 3, 2))

        def build(v):
            # Two reshapes of one leaf: their gradients add in its shape.
            return weighted(ad.reshape(v["a"], (3, 4)), c1) + weighted(
                ad.reshape(v["a"], (2, 3, 2)), c2
            )

        fd_check(build, tensors)

    def test_index_mixed_key_repeats_a_cell(self):
        r = rng(9)
        tensors = {"a": r.standard_normal((3, 2, 4))}
        c = r.standard_normal((4, 2))
        # Cell (0, :, 1) is gathered twice, so its gradient accumulates.
        key = ([0, 2, 0, 1], slice(None), [1, 3, 1, 0])
        fd_check(lambda v: weighted(ad.index(v["a"], key), c), tensors)

    def test_composite_mlp(self):
        r = rng(7)
        tensors = {
            "x": r.standard_normal((2, 5)),
            "w1": r.standard_normal((5, 4)) * 0.7,
            "b1": r.standard_normal(4),
            "w2": r.standard_normal((4, 3)) * 0.7,
        }

        def build(v):
            h = ad.relu(ad.add(ad.matmul(v["x"], v["w1"]), v["b1"]))
            return ad.cross_entropy_rows(ad.matmul(h, v["w2"]), [1, 0])

        fd_check(build, tensors)


class TestErrorMetric:
    def test_large_values_relative(self):
        a = {"t": np.array([2.0e5])}
        n = {"t": np.array([1.0e5])}
        assert ad.max_relative_error(a, n) == pytest.approx(0.5)

    def test_small_values_absolute(self):
        a = {"t": np.array([0.5])}
        n = {"t": np.array([0.0])}
        assert ad.max_relative_error(a, n) == pytest.approx(0.5)

    def test_exact_match_is_zero(self):
        a = {"t": np.arange(3.0)}
        assert ad.max_relative_error(a, {"t": np.arange(3.0)}) == 0.0

    def test_worst_tensor_wins(self):
        a = {"x": np.array([1.0]), "y": np.array([1.0])}
        n = {"x": np.array([1.0]), "y": np.array([0.2])}
        assert ad.max_relative_error(a, n) == pytest.approx(0.8)


def test_numeric_grads_restore_inputs():
    tensors = {"x": np.array([1.0, 2.0])}
    before = tensors["x"].copy()
    ad.numeric_grads(lambda v: ad.vsum(ad.relu(v["x"])), tensors)
    assert tensors["x"].tolist() == before.tolist()


def test_var_preserves_float64():
    v = Var(np.array([1.0, 2.0]))
    assert v.value.dtype == np.float64
    assert ad.relu(v).value.dtype == np.float64
