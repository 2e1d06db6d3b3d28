#!/usr/bin/env python3
"""Compare a fresh google-benchmark sidecar against committed baselines.

Usage:
  tools/bench_diff.py --fresh /tmp/fresh.json [--baseline-dir bench/results]
                      [--max-slowdown 2.5]

The committed baselines are the DWRED_BENCH_SIDECAR JSON files in
bench/results/ (EXPERIMENTS.md). For every benchmark row in the fresh sidecar
that also appears in a baseline:

  * every counter ending in `_crc` must match the baseline EXACTLY — these
    are differential correctness fingerprints (e.g. snapshot_crc: the cache
    and the profiler may change cost, never bytes); any drift is a hard
    failure regardless of timing;
  * throughput (items_per_second when present, else real_time) must not
    regress by more than --max-slowdown (default 2.5x). The band is wide on
    purpose: CI machines differ from the machine that recorded the baseline,
    so only order-of-magnitude regressions — an accidentally quadratic path,
    a lock on the warm path — should trip it. Speedups never fail.

Rows without a baseline are reported as new and pass. Exit status: 0 when all
checks pass, 1 when a CRC or throughput check fails, 2 when the inputs are
unusable (missing or truncated --fresh sidecar, missing --baseline-dir) — so
CI can tell "the code regressed" from "the harness never produced numbers".

One rule covers every CRC: a served row's `wire_crc` and `embedded_crc`
(bench_server_qps, docs/SERVER.md) are checked against the baseline like any
other `_crc` counter, and every committed server row records both equal to
the same value, so a served answer that drifts from the embedded one fails.
"""

import argparse
import json
import os
import sys

# Baseline files are consulted in sorted order and later files override
# earlier ones for duplicate benchmark names, so the mapping is deterministic.


def load_rows(path):
    """name -> benchmark row for every real iteration in a sidecar."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue  # skip _mean/_median/_stddev aggregates
        if row.get("error_occurred"):
            continue
        rows[row["name"]] = row
    return rows


def crc_counters(row):
    return {k: v for k, v in row.items() if k.endswith("_crc")}


def time_seconds(row):
    unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[
        row.get("time_unit", "ns")]
    return row["real_time"] * unit


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", required=True,
                    help="fresh DWRED_BENCH_SIDECAR json to check")
    ap.add_argument("--baseline-dir", default="bench/results",
                    help="directory of committed baseline sidecars")
    ap.add_argument("--max-slowdown", type=float, default=2.5,
                    help="fail when baseline/fresh throughput exceeds this")
    args = ap.parse_args()

    # Input problems exit 2 with a single clear line: a missing or truncated
    # sidecar means the benchmark run itself broke, which is a different
    # failure class than a regression (exit 1).
    try:
        fresh = load_rows(args.fresh)
    except FileNotFoundError:
        print(f"bench_diff: fresh sidecar not found: {args.fresh}",
              file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError) as e:
        print(f"bench_diff: fresh sidecar {args.fresh} is truncated or "
              f"malformed: {e}", file=sys.stderr)
        return 2
    if not fresh:
        print(f"bench_diff: no benchmark rows in {args.fresh}", file=sys.stderr)
        return 2

    if not os.path.isdir(args.baseline_dir):
        print(f"bench_diff: baseline dir not found: {args.baseline_dir}",
              file=sys.stderr)
        return 2

    baselines = {}  # name -> (row, source file)
    for fname in sorted(os.listdir(args.baseline_dir)):
        if not fname.endswith(".json"):
            continue
        path = os.path.join(args.baseline_dir, fname)
        try:
            rows = load_rows(path)
        except (json.JSONDecodeError, KeyError) as e:
            print(f"bench_diff: skipping unreadable baseline {path}: {e}",
                  file=sys.stderr)
            continue
        for name, row in rows.items():
            baselines[name] = (row, fname)

    failures = []
    print(f"{'benchmark':50s} {'fresh':>12s} {'baseline':>12s} "
          f"{'ratio':>7s}  verdict")
    for name, row in sorted(fresh.items()):
        base = baselines.get(name)
        if base is None:
            print(f"{name:50s} {'':>12s} {'':>12s} {'':>7s}  new (no baseline)")
            continue
        brow, bfile = base

        # Correctness: CRC counters must match exactly.
        fresh_crcs = crc_counters(row)
        base_crcs = crc_counters(brow)
        for key in sorted(set(fresh_crcs) & set(base_crcs)):
            if fresh_crcs[key] != base_crcs[key]:
                failures.append(
                    f"{name}: {key} {fresh_crcs[key]:.0f} != baseline "
                    f"{base_crcs[key]:.0f} ({bfile}) — bytes changed")

        # Throughput band.
        if "items_per_second" in row and "items_per_second" in brow:
            fresh_v, base_v = row["items_per_second"], brow["items_per_second"]
            ratio = base_v / fresh_v if fresh_v > 0 else float("inf")
            unit = "it/s"
        else:
            fresh_t, base_t = time_seconds(row), time_seconds(brow)
            fresh_v, base_v = fresh_t, base_t
            ratio = fresh_t / base_t if base_t > 0 else float("inf")
            unit = "s"
        ok = ratio <= args.max_slowdown
        verdict = "ok" if ok else f"REGRESSION (> {args.max_slowdown}x)"
        if fresh_crcs and any(
                fresh_crcs.get(k) != base_crcs.get(k)
                for k in set(fresh_crcs) & set(base_crcs)):
            verdict = "CRC MISMATCH"
        print(f"{name:50s} {fresh_v:12.4g} {base_v:12.4g} {ratio:7.2f}  "
              f"{verdict} [{unit}, vs {bfile}]")
        if not ok:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline {bfile} "
                f"(band {args.max_slowdown}x)")

    if failures:
        print("\nbench_diff: FAILED", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nbench_diff: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
