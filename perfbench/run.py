"""Run one benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload train-n30 --seed 1 --seconds 20 --trace 0

Without arguments every workload runs untraced, one after another, each
in its own process.  The last line of the output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Set before anything imports NumPy; child processes inherit them.
THREAD_PINS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("train-n30", "parse-mixed", "convert-corpus")

# name -> unit, for the untraced run.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Self time per op of each layer (median over ops), in the unit its name
# ends with.  Each also gets a ".share" metric: its self time as a
# percentage of the traced op time.
LAYER_TIMES = (
    "autodiff.backward.ms",
    "neural_core.adam_step.ms",
    "neural_core.embed.ms",
    "neural_core.encode.ms",
    "span_parser.loss_topdown.ms",
    "remote_recovery.loss_remote.ms",
    "span_parser.parse_topdown.ms",
    "remote_recovery.predict_remotes.ms",
    "conversion.tree_to_graph.ms",
    "graph_model.validate.ms",
    "conversion.graph_to_tree.us",
    "conversion.tree_to_sexpr.us",
    "conversion.tree_from_sexpr.us",
    "evaluation.score.us",
    "graph_model.from_json.us",
    "graph_model.to_json.us",
    "op.ms",  # the op span's self time: work outside every layer span
)
# Measured in set-up (median over the set-ups of one run), not per op.
SETUP_LAYER_TIMES = ("neural_core.save.ms", "neural_core.load.ms")
# Per-op means over the first count_ops ops of the traced half.
COUNTS = (
    "autodiff.tape_nodes",
    "remote_recovery.pairs",
    "span_parser.spans_scored",
    "remote_recovery.accepted",
    "conversion.moves",
    "conversion.lossy_moves",
    "conversion.remote_dropped",
)
UNIT_SCALE = {"ms": 1e3, "us": 1e6}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in LAYER_TIMES:
        units[name] = name.rsplit(".", 1)[1]
        units[name.rsplit(".", 1)[0] + ".share"] = "%"
    for name in SETUP_LAYER_TIMES:
        units[name] = "ms"
    for name in COUNTS:
        units[name] = "count/op"
    units["remote_recovery.accept_ratio"] = "ratio"
    units["trace.overhead.ms"] = "ms"
    units["trace.overhead.share"] = "%"
    return units


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured op time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full run record (JSON) to this file")
    parser.add_argument("--spans", help="traced run: write every span (JSONL) to this file")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)  # BLAS runs on one thread
    if args.workload == "all":
        return run_all(args)
    # Measure the checkout's own sources, never an installed copy.
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "uccatree", "__init__.py")):
        print(f"error: no uccatree package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    record = run_workload(args)
    for line in report_lines(record):
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(record["result"]))
    return 0


def run_workload(args: argparse.Namespace) -> dict:
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    meta = harness.run_metadata(ROOT, THREAD_PINS)
    wall_start = time.perf_counter()
    gauge = harness.HostGauge()

    # Set-up, repeated; the last state is the one measured.
    setup_times: list[float] = []  # seconds, as measured
    setup_scaled: list[float] = []  # seconds at the gauge's nominal host speed
    setup_layers: list[dict[str, float]] = []
    fingerprints = set()
    state = None
    for _ in range(workload.setup_repeats):
        state = None  # let the previous state go before building the next
        state, elapsed, scaled = gauge.around(lambda: workload.setup(args.seed))
        setup_times.append(elapsed)
        setup_scaled.append(scaled)
        setup_layers.append(workload.setup_metrics(state))
        fp = harness.Fingerprint(workload.name)
        workload.fingerprint(state, fp)
        fingerprints.add(fp.hexdigest())
    problems = list(state.problems)
    if len(fingerprints) != 1:
        problems.append("set-up is not deterministic: the input fingerprints differ")

    # One untimed op first, so lazy allocation and caches settle.
    signatures: dict[int, object] = {}

    def check(k: int, output) -> list[str]:
        signatures[k] = workload.signature(output)
        return workload.check(state, k, output)

    def run_op(k: int):
        return workload.op(state, k)

    warm = harness.closed_loop(run_op, check, first_op=0, more=lambda r: r.attempted < 1)
    record: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprints.pop(),
        "meta": meta,
    }
    if args.trace:
        loop, metrics = traced_run(args, workload, state, signatures)
        for name in SETUP_LAYER_TIMES:
            values = [layers[name] for layers in setup_layers if name in layers]
            metrics[name] = statistics.median(values) if values else 0.0
        units = per_layer_units()
    else:
        # Whole passes only, so that every run holds each input size
        # equally often, however far into a pass the time ran out.  The
        # time is counted at the nominal host speed, so that the number
        # of passes, and with it the ops that op_ms_tail falls on, does
        # not change with the host's speed.
        pass_ops = workload.pass_ops(state)
        loop = harness.closed_loop(
            run_op, check, first_op=1,
            more=lambda r: r.scaled_seconds < args.seconds or r.attempted % pass_ops,
            gauge=gauge,
        )
        metrics = time_metrics(loop.scaled, setup_scaled)
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
        ms = sorted(1e3 * d for d in loop.scaled.values())
        _, tail_pct, beyond = harness.tail(ms)
        record["tail"] = {"percentile": tail_pct, "samples": len(ms), "beyond": beyond}
        record["unscaled"] = time_metrics(loop.durations, setup_times)
        units = END_TO_END

    final = workload.final_checks(state, signatures)
    attempted = warm.attempted + loop.attempted
    failed = warm.failed + loop.failed + len(final)
    problems += warm.problems + loop.problems + final
    meta["loadavg_end"] = list(os.getloadavg())
    meta["cpu_over_wall_in_ops"] = loop.cpu_seconds / loop.busy_seconds
    meta["wall_s"] = time.perf_counter() - wall_start
    meta["reference_ms"] = {
        "nominal": 1e3 * gauge.NOMINAL_S,
        "median": 1e3 * statistics.median(gauge.samples),
        "min": 1e3 * min(gauge.samples),
        "max": 1e3 * max(gauge.samples),
        "samples": len(gauge.samples),
    }
    record["setup_runs_s"] = setup_times
    record["fail_frac"] = failed / attempted
    record["problems"] = problems
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return record


def time_metrics(durations: dict[int, float], setup_seconds: list[float]) -> dict[str, float]:
    """The end-to-end time metrics from op and set-up times in seconds."""
    import harness

    ms = sorted(1e3 * d for d in durations.values())
    return {
        "ops_per_s": len(ms) / (1e-3 * sum(ms)),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": harness.tail(ms)[0],
        "setup_s": statistics.median(setup_seconds),
    }


def traced_run(args, workload, state, signatures):
    """Per-layer metrics from ops run twice: untraced, then traced.

    Each op runs untraced first and is then replayed with spans from the
    same state, so the difference of the two times is the tracing
    overhead on that op, and the two outputs must be equal.  The loop
    stops once the untraced ops reach half of ``--seconds`` and the
    count window is complete.
    """
    import harness
    from workloads import VALIDATE_METHODS

    tracer = harness.Tracer()
    counts: dict[int, dict[str, float]] = {}
    untraced = harness.LoopResult()
    window_end = 1 + workload.count_ops

    def run_pair(k: int):
        snap = workload.snapshot(state)
        start = time.perf_counter()
        try:
            plain = workload.op(state, k)
        finally:
            elapsed = time.perf_counter() - start
            untraced.busy_seconds += elapsed
        untraced.durations[k] = elapsed
        workload.restore(state, snap)
        tracer.op_id = k
        slot = counts.setdefault(k, {}) if k < window_end else None
        with harness.traced_methods(tracer, VALIDATE_METHODS):
            output = workload.traced_op(state, k, tracer, slot)
        signatures[k] = workload.signature(plain)
        return output

    def check(k: int, output) -> list[str]:
        problems = workload.check(state, k, output)
        if workload.signature(output) != signatures[k]:
            problems.append("traced replay gave another output than the untraced op")
        return problems

    loop = harness.closed_loop(
        run_pair, check, first_op=1,
        more=lambda r: r.attempted < workload.count_ops
        or untraced.busy_seconds < args.seconds / 2,
    )
    loop.attempted *= 2  # each op ran untraced and traced
    if args.spans:
        tracer.write_jsonl(args.spans)

    per_op = {k: v for k, v in tracer.self_times().items() if k in loop.durations}
    op_seconds = {k: sum(v.values()) for k, v in per_op.items()}
    total = sum(op_seconds.values())
    metrics: dict[str, float] = {}
    for name in LAYER_TIMES:
        span_name, unit = name.rsplit(".", 1)
        values = [v.get(span_name, 0.0) for v in per_op.values()]
        metrics[name] = UNIT_SCALE[unit] * statistics.median(values) if values else 0.0
        metrics[span_name + ".share"] = 100.0 * sum(values) / total if total else 0.0

    window = [counts[k] for k in sorted(counts)]
    for name in COUNTS:
        metrics[name] = sum(c.get(name, 0) for c in window) / len(window) if window else 0.0
    pairs = sum(c.get("remote_recovery.pairs", 0) for c in window)
    accepted = sum(c.get("remote_recovery.accepted", 0) for c in window)
    metrics["remote_recovery.accept_ratio"] = accepted / pairs if pairs else 0.0

    diffs = [op_seconds[k] - untraced.durations[k] for k in op_seconds]
    base = sum(untraced.durations[k] for k in op_seconds)
    metrics["trace.overhead.ms"] = 1e3 * statistics.median(diffs) if diffs else 0.0
    metrics["trace.overhead.share"] = 100.0 * sum(diffs) / base if base else 0.0
    return loop, metrics


def report_lines(record: dict) -> list[str]:
    result = record["result"]
    lines = [
        f"# workload {record['workload']} seed {record['seed']} trace {record['trace']} "
        f"fingerprint sha256:{record['fingerprint']}",
        "# meta " + json.dumps(record["meta"], sort_keys=True),
    ]
    for name, metric in result["metrics"].items():
        note = ""
        if name in record.get("unscaled", {}):
            note = f"  (as measured: {record['unscaled'][name]:.6g})"
        if name == "op_ms_tail":
            t = record["tail"]
            note += f"  (p{t['percentile']:.1f} of {t['samples']} ops, {t['beyond']} beyond)"
        lines.append(f"{record['workload']:<15} {name:<36} {metric['value']:>14.6g} {metric['unit']}{note}")
    lines.append(
        f"{record['workload']:<15} {'fail_frac':<36} {record['fail_frac']:>14.6g} "
        f"({result['failed']} failed of {result['attempted']} attempted)"
    )
    for problem in record["problems"]:
        lines.append(f"# problem: {problem}")
    return lines


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
