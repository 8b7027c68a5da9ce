"""Compare two sets of benchmark runs, refusing runs over different inputs.

    python3 perfbench/run.py --workload parse-mixed --seed 3 --out base-3.json
    ...
    python3 perfbench/compare.py --base base-*.json --change change-*.json

Each file is a run record written by ``run.py --out``.  All runs of one
workload and seed, on either side, must have the same input fingerprint;
otherwise the comparison is refused (exit code 2), because the numbers
would measure different inputs.  Then, per workload and trace mode, each
metric's median over each side's runs is printed, with the change
relative to the base and, for end-to-end metrics, the bound from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def fingerprint_conflicts(base: list[dict], change: list[dict]) -> list[str]:
    seen: dict[tuple, str] = {}
    conflicts = []
    for record in base + change:
        key = (record["workload"], record["seed"])
        if seen.setdefault(key, record["fingerprint"]) != record["fingerprint"]:
            conflicts.append(f"{key[0]} seed {key[1]}: inputs differ between runs")
    return conflicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    conflicts = fingerprint_conflicts(base, change)
    if conflicts:
        for line in conflicts:
            print(f"refused: {line}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    groups = sorted({(r["workload"], r["trace"]) for r in base + change})
    for workload, trace in groups:
        sides = [
            [r for r in records if r["workload"] == workload and r["trace"] == trace]
            for records in (base, change)
        ]
        if not all(sides):
            print(f"{workload} trace {trace}: runs on one side only, skipped")
            continue
        print(f"{workload} trace {trace}: {len(sides[0])} base runs, {len(sides[1])} change runs")
        for name, metric in sides[0][0]["result"]["metrics"].items():
            medians = [
                statistics.median(r["result"]["metrics"][name]["value"] for r in side)
                for side in sides
            ]
            line = f"  {name:<36} {medians[0]:>12.6g} -> {medians[1]:>12.6g} {metric['unit']}"
            if medians[0]:
                line += f"  {100.0 * (medians[1] - medians[0]) / medians[0]:+7.2f} %"
            if name in bounds:
                line += f"  (bound {100.0 * bounds[name]['bound']:.0f} %, {bounds[name]['better']} is better)"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
