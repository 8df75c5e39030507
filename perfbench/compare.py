#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are directories (searched recursively) or files of the run
records perfbench/run.py writes to perfbench/out/results/. For every
workload and metric it prints each side's median and quartiles over its
runs and a verdict:

  worse       the median got worse by more than the metric's bound in
              BENCHMARK.json (per-layer metrics have no bound: worse
              means it lost at least 9 in 10 pairs of runs by more than
              OLD's quartile spread);
  better      NEW wins at least 9 in 10 of all (OLD, NEW) pairs of runs,
              ties counting for neither, and the medians differ by more
              than OLD's quartile spread;
  unresolved  neither.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def records(path):
    if os.path.isfile(path):
        paths = [path]
    else:
        paths = sorted(
            os.path.join(d, f)
            for d, _, files in os.walk(path)
            for f in files
            if f.endswith(".json")
        )
    out = []
    for p in paths:
        with open(p) as fh:
            rec = json.load(fh)
        if isinstance(rec, dict) and "result" in rec and "workload" in rec:
            out.append(rec)
    return out


def collect(recs):
    """(workload, metric) -> values, one per run."""
    table = {}
    for rec in recs:
        for name, m in rec["result"]["metrics"].items():
            table.setdefault((rec["workload"], name), []).append(m["value"])
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(old, new, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    old_med, new_med = statistics.median(old), statistics.median(new)
    q1, q3 = quartiles(old)
    scale = abs(old_med) or 1.0
    # Positive = NEW is worse, as a share of OLD's median.
    worse_by = sign * (new_med - old_med) / scale
    spread = (q3 - q1) / scale
    pairs = [(o, n) for o in old for n in new]
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0) / len(pairs)
    losses = sum(1 for o, n in pairs if sign * (n - o) > 0) / len(pairs)
    if bound is not None and worse_by > bound:
        return worse_by, "worse"
    if bound is None and losses >= 0.9 and worse_by > spread:
        return worse_by, "worse"
    if wins >= 0.9 and -worse_by > spread:
        return worse_by, "better"
    return worse_by, "unresolved"


def fmt(v):
    return "%.6g" % v


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    old, new = collect(records(argv[1])), collect(records(argv[2]))
    if not old or not new:
        print("compare: no run records found", file=sys.stderr)
        return 2
    header = ("workload", "metric", "unit", "old median [q1, q3] (runs)",
              "new median [q1, q3] (runs)", "change", "verdict")
    rows = [header]
    for key in sorted(set(old) & set(new)):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        o, n = old[key], new[key]
        worse_by, v = verdict(o, n, spec["better"], spec.get("bound"))
        side = lambda vals: "%s [%s, %s] (%d)" % (
            fmt(statistics.median(vals)), *map(fmt, quartiles(vals)), len(vals))
        change = "identical" if sorted(o) == sorted(n) else "%+.1f%% %s" % (
            100 * abs(worse_by), "worse" if worse_by > 0 else "better")
        rows.append((workload, name, spec["unit"], side(o), side(n), change, v))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    missing = sorted(set(old) ^ set(new))
    for workload, name in missing:
        print("only in %s: %s %s" % ("OLD" if (workload, name) in old else "NEW", workload, name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
