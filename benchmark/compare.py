#!/usr/bin/env python3
"""Compare two sets of droppkt benchmark results, metric by metric.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run, named <workload>-<anything>.json (for
example long_sessions-7-3.json for seed 7, pair 3), whose last line is the
benchmark's JSON result. A parent file and a change file with the same name
form one pair; run the pairs alternately (parent first, then change first).

For every workload x end-to-end metric, one row gives each side's median and
quartiles and a verdict, using the metric's direction and bound from
BENCHMARK.json:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the parent's
              interquartile range
  worse       the change's median is worse than the parent's by more than
              the bound (a share of the parent's median)
  unresolved  the parent's own spread (interquartile range over median) is
              wider than the bound, unless every change run reads better
              than every parent run
  unchanged   otherwise

Per-layer metrics (traced runs) have no bound; their rows show the medians
and the ratio only. Exits 1 when any row is worse or unresolved.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def load_runs(directory):
    """{file name: {metric: value}} for every result file in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            raise SystemExit("compare.py: %s is empty" % path)
        result = json.loads(lines[-1])
        if not result.get("correct", False) or result.get("failed", 1) != 0:
            raise SystemExit("compare.py: %s reports failed output checks" % path)
        runs[os.path.basename(path)] = {
            name: m["value"] for name, m in result["metrics"].items()}
    return runs


def workload_of(file_name):
    return file_name.split("-", 1)[0]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, pairs, direction, bound):
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    if (pairs and wins >= 0.9 * len(pairs) and better(cmed, pmed, direction)
            and abs(cmed - pmed) > p3 - p1):
        return "improved"
    worse_by = (cmed - pmed) if direction == "lower" else (pmed - cmed)
    if pmed != 0 and worse_by / abs(pmed) > bound:
        return "worse"
    spread = (p3 - p1) / abs(pmed) if pmed else float("inf")
    every_better = all(better(c, p, direction) for c in change for p in parent)
    if spread > bound and not every_better:
        return "unresolved"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    parent = load_runs(args.parent_dir)
    change = load_runs(args.change_dir)
    if not parent or not change:
        raise SystemExit("compare.py: no result files to compare")

    workloads = [w["name"] for w in spec["workloads"]]
    print("%-18s %-36s %5s %14s %14s %14s %14s %9s  %s" % (
        "workload", "metric", "pairs", "parent q1", "parent median",
        "parent q3", "change median", "change", "verdict"))
    bad = 0
    for w in workloads:
        pfiles = [n for n in parent if workload_of(n) == w]
        cfiles = [n for n in change if workload_of(n) == w]
        if not pfiles or not cfiles:
            continue
        names = [m for m in list(bounded) + list(layer)
                 if all(m in parent[n] for n in pfiles)
                 and all(m in change[n] for n in cfiles)]
        for m in names:
            pv = [parent[n][m] for n in pfiles]
            cv = [change[n][m] for n in cfiles]
            pairs = [(parent[n][m], change[n][m]) for n in pfiles if n in change]
            p1, pmed, p3 = quartiles(pv)
            cmed = statistics.median(cv)
            ratio = "%+8.2f%%" % (100.0 * (cmed - pmed) / pmed) if pmed else "     n/a"
            if m in bounded:
                v = verdict(pv, cv, pairs, bounded[m]["better"],
                            bounded[m]["bound"])
                bad += v in ("worse", "unresolved")
            else:
                v = "(per-layer, no bound)"
            print("%-18s %-36s %5d %14.6g %14.6g %14.6g %14.6g %9s  %s" % (
                w, m, len(pairs), p1, pmed, p3, cmed, ratio, v))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
