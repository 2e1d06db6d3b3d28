#!/usr/bin/env bash
# The end-to-end benchmark's single command (README.md).
#
#   bash bench/e2e/run.sh --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
#   bash bench/e2e/run.sh --workload=adhoc --seed=3 --trace
#   bash bench/e2e/run.sh                      # every workload, one JSON document
#
# Builds the harness and dwredd from this source tree into .bench_build/e2e
# (build output on stderr), then runs the harness. The last stdout line is
# the result JSON. Exits non-zero, without a result, when the tree is
# incomplete or the build fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"

if [[ ! -f "$root/src/CMakeLists.txt" || ! -f "$root/tools/dwredd.cpp" ]]; then
  echo "run.sh: $root is not a dwred source tree (src/, tools/dwredd.cpp missing)" >&2
  exit 2
fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target e2e_harness -j "$(nproc)" >&2

workload_given=0
for arg in "$@"; do
  case "$arg" in --workload|--workload=*) workload_given=1 ;; esac
done
if [[ $workload_given == 1 ]]; then
  exec "$build/e2e_harness" "$@"
fi

# No --workload: run each in turn and print one document keyed by workload.
status=0
results=()
for w in dashboard adhoc ingest_sync durable_ingest; do
  line="$("$build/e2e_harness" --workload "$w" "$@" | tail -n 1)" || status=1
  results+=("\"$w\": ${line:-null}")
done
(IFS=,; echo "{${results[*]}}")
exit $status
