#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR

Each directory holds result JSONs named <workload>-<seed>.json (the last
stdout line of a run; sweep.py writes this layout). For every workload and
metric found on both sides it prints each side's median and quartiles and a
verdict against the metric's bound in BENCHMARK.json:

  same        medians within the bound
  better      the new median is better by more than the bound
  WORSE       the new median is worse by more than the bound
  unresolved  a side's quartile spread, (Q3 - Q1) / median, exceeds the
              bound, so the runs cannot tell a change of that size

Per-layer metrics have no bound and get no verdict. Exits 1 when a metric
is WORSE.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load(directory):
    """{workload: {metric: [values]}} from <workload>-<seed>.json files."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or "-" not in name:
            continue
        workload = name[: -len(".json")].rsplit("-", 1)[0]
        with open(os.path.join(directory, name)) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        for metric, v in result["metrics"].items():
            out.setdefault(workload, {}).setdefault(metric, []).append(v["value"])
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    worse = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in base or workload not in new:
            continue
        n_base = len(next(iter(base[workload].values())))
        n_new = len(next(iter(new[workload].values())))
        print(f"\n{workload} (base {n_base} runs, new {n_new} runs)")
        print(f"  {'metric':<28}{'base median':>13}{'[Q1, Q3]':>24}"
              f"{'new median':>13}{'[Q1, Q3]':>24}{'change':>9}  verdict")
        for metric in defs:
            if metric not in base[workload] or metric not in new[workload]:
                continue
            bm, bq1, bq3, bs = summary(base[workload][metric])
            nm, nq1, nq3, ns = summary(new[workload][metric])
            change = (nm - bm) / abs(bm) if bm else 0.0
            bound = defs[metric].get("bound")
            if bound is None:
                verdict = "-"
            elif bs > bound or ns > bound:
                verdict = "unresolved"
            elif abs(change) <= bound:
                verdict = "same"
            else:
                improved = (change < 0) == (defs[metric]["better"] == "lower")
                verdict = "better" if improved else "WORSE"
                worse += not improved
            print(f"  {metric:<28}{bm:>13.6g}{f'[{bq1:.6g}, {bq3:.6g}]':>24}"
                  f"{nm:>13.6g}{f'[{nq1:.6g}, {nq3:.6g}]':>24}{change:>+9.1%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
