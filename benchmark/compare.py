#!/usr/bin/env python3
"""Compare two varanbench result sets, one row per workload and metric.

    python3 benchmark/compare.py BASE CHANGE

BASE and CHANGE are results files written by run.py (JSON lines);
only untraced, correct runs count. Each row gives the median and
quartiles of both sets, the share of pairs CHANGE won, and a verdict
against the metric's bound in BENCHMARK.json:

  improved      CHANGE won at least 9 in 10 pairs and its median beats
                BASE's by more than BASE's own quartile spread
  regressed     CHANGE's median is worse than BASE's by more than the
                bound
  unresolved    either set's quartile spread is wider than the bound,
                and not every CHANGE run is worse than every BASE run
  within bound  none of the above

Pairs match runs of the same seed when both sets have it, else runs in
order. The exit status is 1 when any row regressed. Standard library
only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec.get("correct") and not rec.get("trace"):
                runs.append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, change):
    """(base value, change value) pairs: by seed where both have it."""
    by_seed = {r["seed"]: r for r in base}
    matched = [(by_seed[r["seed"]], r) for r in change
               if r["seed"] in by_seed]
    if matched:
        return matched
    return list(zip(base, change))


def verdict(metric, base_vals, change_vals, won):
    lower = metric["better"] == "lower"
    b1, bm, b3 = quartiles(base_vals)
    c1, cm, c3 = quartiles(change_vals)
    worse = (cm - bm) / bm if lower else (bm - cm) / bm
    spread = max((b3 - b1) / bm, (c3 - c1) / cm)
    if won >= 0.9 and -worse * bm > (b3 - b1):
        return "improved"
    if lower:
        all_worse = min(change_vals) > max(base_vals)
    else:
        all_worse = max(change_vals) < min(base_vals)
    if worse > metric["bound"]:
        return "regressed" if spread <= metric["bound"] or all_worse \
            else "unresolved"
    if spread > metric["bound"]:
        return "unresolved"
    return "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args()
    spec = json.loads(SPEC_PATH.read_text())
    base, change = load(args.base), load(args.change)
    workloads = [w["name"] for w in spec["workloads"]]

    header = (f"{'workload':14s} {'metric':14s} {'base q1/med/q3':>30s} "
              f"{'change q1/med/q3':>30s} {'won':>5s}  verdict")
    print(header)
    print("-" * len(header))
    regressed = False
    for w in workloads:
        bw = [r for r in base if r["workload"] == w]
        cw = [r for r in change if r["workload"] == w]
        if not bw or not cw:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = [r["metrics"][name]["value"] for r in bw
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in cw
                  if name in r["metrics"]]
            if not bv or not cv:
                continue
            lower = metric["better"] == "lower"
            ps = [(r_b["metrics"][name]["value"], r_c["metrics"][name]["value"])
                  for r_b, r_c in pairs(bw, cw)
                  if name in r_b["metrics"] and name in r_c["metrics"]]
            wins = sum(1 for b, c in ps if (c < b if lower else c > b))
            won = wins / len(ps) if ps else 0.0
            v = verdict(metric, bv, cv, won)
            regressed = regressed or v == "regressed"
            bq, cq = quartiles(bv), quartiles(cv)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{w:14s} {name:14s} {fmt(bq):>30s} {fmt(cq):>30s} "
                  f"{won:5.2f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
