#!/usr/bin/env python3
"""The benchmark's smoke test (ctest e2e_smoke).

    python3 smoke.py --harness PATH --dwredctl PATH --benchmark BENCHMARK.json

Runs every workload at --smoke scale (30k facts, 2 s windows, 6 ingest
batches) in both modes and asserts that:
  * the last stdout line is one JSON object with exactly the keys correct,
    attempted, failed and metrics, with correct true and failed 0;
  * the metric names and units are exactly BENCHMARK.json's end-to-end set
    (--trace 0) or per-layer set (--trace 1);
  * in the traced run, the layers' self times plus unattributed_us equal the
    requests' wall time;
  * `dwredctl trace-tree` renders the span dump with one root per trace.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
import time


def run(cmd, **kw):
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, **kw)


def check_result(workload, trace, proc, expected):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert result["attempted"] >= 1, where
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    assert got == expected, f"{where}: metric names/units differ from BENCHMARK.json: " \
        f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}"
    return {name: v["value"] for name, v in result["metrics"].items()}


def check_trace_tree(dwredctl, dump):
    with open(dump) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    roots = sum(1 for e in lines if e["parent"] == 0)
    assert roots > 0, f"{dump}: no traces"
    proc = run([dwredctl, "trace-tree", dump])
    assert proc.returncode == 0, f"trace-tree {dump}: exit {proc.returncode}"
    rendered = proc.stdout.splitlines()
    headers = sum(1 for line in rendered if line.startswith("trace "))
    assert headers == roots, f"{dump}: {headers} trees for {roots} roots"
    assert "parent evicted" not in proc.stdout, f"{dump}: orphaned spans"
    first = rendered.index("") if "" in rendered else len(rendered)
    print("\n".join(rendered[:first]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--harness", required=True)
    ap.add_argument("--dwredctl", required=True)
    ap.add_argument("--benchmark", required=True)
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    trace_out = os.path.join(os.path.dirname(os.path.abspath(args.harness)), "traces")
    start = time.monotonic()

    def one(workload, trace):
        # Nothing here is timed, so the runs may share the machine.
        proc = run([args.harness, "--workload", workload, "--smoke", "--seed", "1",
                    "--trace", trace])
        return workload, trace, proc

    runs = [(w["name"], t) for w in bench["workloads"] for t in ("0", "1")]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        for workload, trace, proc in pool.map(lambda r: one(*r), runs):
            values = check_result(workload, trace, proc, expected[trace])
            if trace == "1":
                total = values["trace.self_us"] + values["unattributed_us"]
                wall = values["trace.wall_us"]
                assert abs(total - wall) <= 1e-6 * max(1.0, wall), \
                    f"{workload}: self {total} != wall {wall}"
                check_trace_tree(args.dwredctl,
                                 os.path.join(trace_out, f"{workload}.trace.jsonl"))
            print(f"ok: {workload} --trace {trace} ({time.monotonic() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        sys.exit(1)
