#!/usr/bin/env python3
"""Compare two sets of perfbench runs, or summarize one.

Each set is a file or a directory of files holding run.py output; every
line that is a perfbench record (the full record run.py prints before the
result line) counts as one run. Runs are grouped by workload; for every
end-to-end metric of BENCHMARK.json the tool prints each side's median and
quartiles (statistics.quantiles, n=4), the spread (quartile distance over
the median) and, with two sets, the change of the median and the win
fraction: the share of runs paired by seed in which the change reads better
than the parent (ties count for neither side).

Verdicts, per workload and metric:
  unresolved   a side's spread exceeds the metric's bound, and not every
               run of the change reads better than every run of the parent
  worse        the change's median is worse than the parent's by more than
               the bound
  better       the change wins at least 9/10 of the pairs and the medians
               differ by more than the parent's quartile distance
  same         none of the above
With one set the verdict is "steady" or "unresolved" (spread above bound).

Usage:
  python3 perfbench/compare.py PARENT_RUNS [CHANGE_RUNS] [--per-layer]

--per-layer summarizes the traced runs' per-layer metrics instead (no
verdicts: per-layer metrics have no bound).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(where):
    path = Path(where)
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    runs = []
    for f in files:
        for line in f.read_text(errors="replace").splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and record.get("bench") == "perfbench":
                runs.append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(a, b, direction):
    """True when value a reads better than value b."""
    return a < b if direction == "lower" else a > b


def by_workload(runs, traced):
    groups = {}
    for r in runs:
        if bool(r.get("traced")) == traced:
            groups.setdefault(r["workload"], []).append(r)
    return groups


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"]]


def verdict(base, change, direction, bound, pairs):
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    dominates = all(better(c, b, direction) for c in change for b in base)
    if (spread(base) > bound or spread(change) > bound) and not dominates:
        return "unresolved"
    worse_by = (cmed - bmed) / abs(bmed) if bmed else 0.0
    if direction == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    wins = sum(1 for b, c in pairs if better(c, b, direction))
    if (pairs and wins >= 0.9 * len(pairs) and better(cmed, bmed, direction)
            and abs(cmed - bmed) > bq3 - bq1):
        return "better"
    return "same"


def pair_by_seed(base_runs, change_runs, metric):
    base = {r["seed"]: r["metrics"][metric]["value"] for r in base_runs
            if metric in r["metrics"]}
    change = {r["seed"]: r["metrics"][metric]["value"] for r in change_runs
              if metric in r["metrics"]}
    return [(base[s], change[s]) for s in sorted(base) if s in change]


def fmt(v):
    return f"{v:.6g}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    metrics = spec["per_layer"] if args.per_layer else spec["end_to_end"]
    parent = by_workload(load_runs(args.parent), args.per_layer)
    change = by_workload(load_runs(args.change), args.per_layer) \
        if args.change else None
    if not parent:
        sys.exit(f"compare: no perfbench records in {args.parent}")

    header = ["workload", "metric", "unit", "n", "q1", "median", "q3",
              "spread", "bound"]
    if change is not None:
        header += ["n'", "q1'", "median'", "q3'", "spread'", "change",
                   "wins"]
    if not args.per_layer:
        header.append("verdict")
    rows = [header]
    for workload in sorted(parent):
        for m in metrics:
            name = m["name"]
            base = values(parent[workload], name)
            if not base:
                continue
            q1, med, q3 = quartiles(base)
            bound = m.get("bound")
            row = [workload, name, m["unit"], str(len(base)), fmt(q1),
                   fmt(med), fmt(q3), f"{spread(base):.3f}",
                   "-" if bound is None else str(bound)]
            if change is not None:
                other = values(change.get(workload, []), name)
                if not other:
                    rows.append(row + ["0"] + ["-"] * 6 +
                                ([] if args.per_layer else ["missing"]))
                    continue
                cq1, cmed, cq3 = quartiles(other)
                pairs = pair_by_seed(parent[workload], change[workload], name)
                wins = sum(1 for b, c in pairs
                           if better(c, b, m["better"]))
                rel = (cmed - med) / abs(med) if med else 0.0
                row += [str(len(other)), fmt(cq1), fmt(cmed), fmt(cq3),
                        f"{spread(other):.3f}", f"{rel:+.3%}",
                        f"{wins}/{len(pairs)}"]
                if not args.per_layer:
                    row.append(verdict(base, other, m["better"], bound,
                                       pairs))
            elif not args.per_layer:
                row.append("unresolved" if spread(base) > bound
                           else "steady")
            rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


if __name__ == "__main__":
    main()
