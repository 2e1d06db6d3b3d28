#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each run with its own seed,
saves every result JSON, and reports each metric's median and quartile spread.

    python3 bench/e2e/sweep.py --out DIR [--runs 10] [--first-seed 1]
        [--workloads dashboard,adhoc] [--seconds S] [--trace 0|1]

Results land in DIR/<workload>-<seed>.json (the run's last stdout line) —
the layout compare.py reads. The spread is (Q3 - Q1) / median with the
quartiles of statistics.quantiles(values, n=4); a spread above a third of
the metric's bound in BENCHMARK.json is marked, since such a metric cannot
resolve a change of the size of its bound. Exits 1 when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    metrics = bench["per_layer" if args.trace == "1" else "end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", args.trace]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            walls.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            with open(os.path.join(args.out, f"{workload}-{seed}.json"), "w") as f:
                f.write(lines[-1] + "\n")
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        print(f"\n{workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':<28}{'median':>14}{'Q1':>14}{'Q3':>14}{'spread':>9}{'bound':>8}")
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            s = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            mark = " !" if bound is not None and m["name"] != "setup_s" and s > bound / 3 else ""
            bound_text = f"{bound:.0%}" if bound is not None else "-"
            print(f"  {m['name']:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{s:>8.1%}{bound_text:>8}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
