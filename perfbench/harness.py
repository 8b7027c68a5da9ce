"""Timing loop, tracing and reporting shared by the three workloads.

A workload is a closed loop: one operation runs at a time, and the next
starts only when the previous one has returned.  The untraced run
measures the end-to-end metrics.  The traced run runs every operation
twice, untraced and then with a span around every call into a module,
so that each pair gives the tracing overhead on that operation.

Spans (name, start, end, parent, op id) are kept in memory and written
out, if asked, only after the run has finished.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

OP_SPAN = "op"


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent_index, op_id]`` lists;
    ``parent_index`` is -1 for a span with no enclosing span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, 0.0, 0.0, parent, self.op_id]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Seconds of self time per op id and span name.

        A span's self time is its duration minus the durations of the
        spans directly inside it.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for k, (name, start, end, _, op_id) in enumerate(self.spans):
            per_op = out.setdefault(op_id, {})
            per_op[name] = per_op.get(name, 0.0) + (end - start) - child_time[k]
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                    )
                    + "\n"
                )


@contextmanager
def traced_methods(tracer: Tracer, targets: Iterable[tuple[type, str, str]]) -> Iterator[None]:
    """Swap class methods for span-recording wrappers, restoring them after.

    Used only for methods that the package's own functions call
    internally, where the benchmark cannot place a span around the call.
    """
    saved = []
    for cls, attr, span_name in targets:
        original = cls.__dict__[attr]
        saved.append((cls, attr, original))

        def wrapper(*args, _original=original, _name=span_name, **kwargs):
            with tracer.span(_name):
                return _original(*args, **kwargs)

        setattr(cls, attr, wrapper)
    try:
        yield
    finally:
        for cls, attr, original in saved:
            setattr(cls, attr, original)


# ---------------------------------------------------------------------------
# Statistics


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  The value is an actual
    sample (nearest rank).  With ten samples or fewer no such percentile
    exists, and the maximum is returned with the samples beyond it (0).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Inputs and metadata


class Fingerprint:
    """SHA-256 over a workload's generated inputs, fed piece by piece."""

    def __init__(self, workload: str) -> None:
        self._hash = hashlib.sha256(workload.encode())

    def add(self, piece: str) -> None:
        data = piece.encode("utf-8")
        self._hash.update(len(data).to_bytes(8, "little"))
        self._hash.update(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _git_commit(root: str) -> str:
    """Commit of a git checkout read from .git, without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src_dir: str) -> str:
    """SHA-256 of the package sources, to identify a checkout without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def run_metadata(root: str, thread_vars: dict[str, str]) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "commit": _git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": thread_vars,
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "recursion_limit": sys.getrecursionlimit(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Host speed


class HostGauge:
    """Times a fixed reference computation, to scale op times to one host speed.

    The host is shared, and its speed drifts by 20 to 30 % over seconds
    to minutes; the CPU time of a process drifts with it, so neither wall
    nor CPU time is steady from one run to the next.  The reference runs
    between ops, and an op's time is scaled by ``NOMINAL_S`` over the
    mean of the reference times measured just before and just after it.  A scaled
    time reads as the op's time on a host where the reference takes
    ``NOMINAL_S``.

    The reference does not import the package, so no change to the
    program changes it.  It mixes the two kinds of work the program does:
    Python objects (building, walking and sorting a tree of small nodes)
    and NumPy matrix-vector products with a few megabytes of weights, the
    shape of one LSTM direction at the paper's dimensions.  The garbage
    collector is off while it runs, so that the program's live objects do
    not change its time.
    """

    NOMINAL_S = 0.005
    # Ops shorter than this share the reference runs around them, so that
    # the reference adds at most about a fifth to the time of a run.
    INTERVAL_S = 0.025

    def __init__(self, warmup: int = 5) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._weights = 0.05 * rng.standard_normal((1000, 350))
        self._inputs = rng.standard_normal((20, 100))
        self.samples: list[float] = []
        for _ in range(warmup):
            self._reference()

    def _reference(self) -> float:
        import numpy as np

        labels = sorted(_walk(_tree(6, 1)))
        index = {label: len(label) for label in labels}
        h = np.zeros(250)
        for x in self._inputs:
            g = self._weights @ np.concatenate([x, h])
            h = np.tanh(g[:250]) / (1.0 + np.exp(-g[250:500]))
        return len(index) + float(h.sum())

    def sample(self) -> float:
        """Run the reference once; return and record its time in seconds."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._reference()
            elapsed = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def around(self, work: Callable[[], object], repeats: int = 3) -> tuple[object, float, float]:
        """Run ``work`` between reference samples.

        Returns its result, its time in seconds, and that time scaled to
        the nominal host speed by the median reference time of
        ``repeats`` samples before and ``repeats`` after.
        """
        before = sorted(self.sample() for _ in range(repeats))[repeats // 2]
        start = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - start
        after = sorted(self.sample() for _ in range(repeats))[repeats // 2]
        return result, elapsed, elapsed * self.NOMINAL_S / ((before + after) / 2)


class _Node:
    __slots__ = ("label", "children")

    def __init__(self, label: str, children: tuple) -> None:
        self.label = label
        self.children = children


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(f"t{i}", ())
    return _Node(f"n{i}", tuple(_tree(depth - 1, 3 * i + j) for j in range(3)))


def _walk(node: _Node) -> Iterator[str]:
    yield node.label
    for child in node.children:
        yield from _walk(child)


# ---------------------------------------------------------------------------
# The closed loop


@dataclass
class LoopResult:
    durations: dict[int, float] = field(default_factory=dict)  # op id -> seconds, ops that succeeded
    # op id -> seconds at the gauge's nominal host speed, when a gauge is given
    scaled: dict[int, float] = field(default_factory=dict)
    scaled_seconds: float = 0.0
    busy_seconds: float = 0.0  # time inside all ops, failed ones included
    attempted: int = 0
    failed_ops: int = 0
    failed_checks: int = 0
    problems: list[str] = field(default_factory=list)
    cpu_seconds: float = 0.0  # process CPU time spent inside ops

    @property
    def failed(self) -> int:
        return self.failed_ops + self.failed_checks

    def record_problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def closed_loop(
    run_op: Callable[[int], object],
    check_op: Callable[[int, object], list[str]],
    first_op: int,
    more: Callable[[LoopResult], bool],
    gauge: HostGauge | None = None,
) -> LoopResult:
    """Run ops ``first_op, first_op + 1, ...`` one at a time while ``more``.

    Only the op itself is timed; its check runs after the clock stops.
    A failed op is counted, and the loop goes on.  With a ``gauge``, the
    reference runs before the first op, and again once the ops since its
    last run took ``gauge.INTERVAL_S`` or more, and after the last op;
    always outside the ops' time.  Each op's time is scaled by the mean
    of the two reference times around it (see HostGauge).
    """
    result = LoopResult()
    k = first_op
    last_reference = gauge.sample() if gauge else 0.0
    pending: list[int] = []  # ops since the last reference run
    pending_seconds = 0.0  # their time, failed ops included

    def flush() -> None:
        nonlocal last_reference, pending_seconds
        reference = gauge.sample()
        scale = gauge.NOMINAL_S / ((last_reference + reference) / 2)
        for j in pending:
            result.scaled[j] = result.durations[j] * scale
        result.scaled_seconds += pending_seconds * scale
        pending.clear()
        pending_seconds = 0.0
        last_reference = reference

    while more(result):
        result.attempted += 1
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            output = run_op(k)
        except Exception as exc:  # counted as a failed op
            elapsed = time.perf_counter() - start
            result.busy_seconds += elapsed
            result.cpu_seconds += time.process_time() - cpu
            result.failed_ops += 1
            result.record_problem(f"op {k}: {type(exc).__name__}: {exc}")
            pending_seconds += elapsed
            if gauge and pending_seconds >= gauge.INTERVAL_S:
                flush()
            k += 1
            continue
        elapsed = time.perf_counter() - start
        result.cpu_seconds += time.process_time() - cpu
        result.busy_seconds += elapsed
        result.durations[k] = elapsed
        pending.append(k)
        pending_seconds += elapsed
        if gauge and pending_seconds >= gauge.INTERVAL_S:
            flush()
        problems = check_op(k, output)
        if problems:
            result.failed_checks += 1
            result.record_problem(f"op {k}: " + "; ".join(problems))
        k += 1
    if gauge and (pending or pending_seconds):
        flush()
    return result
