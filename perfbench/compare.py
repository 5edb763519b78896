#!/usr/bin/env python3
"""Diff two benchmark result files, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are `results.jsonl` files written by `perfbench` (or
directories holding one). Each line is one run:
`{"workload", "size", "seed", "trace", "result": {...}}`. Runs of the same
workload are pooled and each metric is reduced to its median.

End-to-end metrics are flagged when the change's median is worse than the
base's by more than the metric's `bound` in BENCHMARK.json. Per-layer
metrics have no bound; they are listed by the size of their relative delta,
largest first, so the layer that moved heads the list.

Exit status: 0 when nothing is flagged, 1 when an end-to-end metric
regressed beyond its bound, 2 on bad input.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(path):
    """Returns {(workload, trace): {metric: [values]}} and units."""
    if os.path.isdir(path):
        path = os.path.join(path, "results.jsonl")
    runs, units = {}, {}
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                key = (rec["workload"], int(rec["trace"]))
                metrics = rec["result"]["metrics"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{n}: not a result record ({exc})") from None
            slot = runs.setdefault(key, {})
            for name, m in metrics.items():
                slot.setdefault(name, []).append(float(m["value"]))
                units[name] = m["unit"]
    return runs, units


def load_benchmark(path):
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}, {m["name"]: m for m in spec["per_layer"]}


def rel_delta(base, change):
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    return (change - base) / abs(base)


def worse_by(spec, base, change):
    """Relative worsening (positive means worse) under the metric's direction."""
    delta = rel_delta(base, change)
    return delta if spec.get("better", "lower") == "lower" else -delta


def fmt(v):
    return f"{v:.6g}"


def compare(base_path, change_path, bench_path, out=sys.stdout):
    """Prints the comparison; returns the list of flagged (workload, metric)."""
    e2e, layers = load_benchmark(bench_path)
    base, units = load_runs(base_path)
    change, change_units = load_runs(change_path)
    units.update(change_units)
    flagged = []
    workloads = sorted({w for w, _ in base} & {w for w, _ in change})
    if not workloads:
        print("no workload appears in both files", file=out)
    for workload in workloads:
        print(f"== {workload} ==", file=out)
        b, c = base.get((workload, 0), {}), change.get((workload, 0), {})
        for name, spec in e2e.items():
            if name not in b or name not in c:
                continue
            mb, mc = statistics.median(b[name]), statistics.median(c[name])
            worse = worse_by(spec, mb, mc)
            flag = worse > spec["bound"]
            if flag:
                flagged.append((workload, name))
            print(
                f"  {'REGRESSION' if flag else 'ok':<10} {name:<16} {fmt(mb):>12} -> {fmt(mc):>12} "
                f"{units.get(name, '')} ({rel_delta(mb, mc):+.1%}, bound {spec['bound']:.0%}, "
                f"n={len(b[name])}/{len(c[name])})",
                file=out,
            )
        b, c = base.get((workload, 1), {}), change.get((workload, 1), {})
        rows = []
        for name in layers:
            if name not in b or name not in c:
                continue
            mb, mc = statistics.median(b[name]), statistics.median(c[name])
            if mb == 0 and mc == 0:
                continue
            rows.append((abs(rel_delta(mb, mc)), name, mb, mc))
        rows.sort(key=lambda r: (-r[0], r[1]))
        if rows:
            print("  per-layer, largest relative change first:", file=out)
        for _, name, mb, mc in rows:
            print(
                f"    {name:<40} {fmt(mb):>12} -> {fmt(mc):>12} {units.get(name, '')} "
                f"({rel_delta(mb, mc):+.1%})",
                file=out,
            )
    return flagged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    default_bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    parser.add_argument("--benchmark", default=default_bench)
    args = parser.parse_args(argv)
    try:
        flagged = compare(args.base, args.change, args.benchmark)
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    if flagged:
        print("flagged: " + ", ".join(f"{w}/{m}" for w, m in flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
