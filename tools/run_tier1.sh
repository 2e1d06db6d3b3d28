#!/usr/bin/env bash
# Runs the repo's tier-1 verification line (ROADMAP.md) from the repo root.
#
#   tools/run_tier1.sh                 # plain build + ctest
#   tools/run_tier1.sh --sanitize      # -DDWRED_SANITIZE=address;undefined,
#                                      # full ctest with UBSan reports fatal,
#                                      # then the crash matrix again with
#                                      # strict sanitizer options
#   tools/run_tier1.sh --tsan          # -DDWRED_SANITIZE=thread; runs the
#                                      # concurrency suite (pool stress, the
#                                      # serial-vs-parallel differential
#                                      # harness, obs) under ThreadSanitizer
#   tools/run_tier1.sh asan            # legacy alias for --sanitize
#
# Any mode accepts --threads=N, exported as DWRED_THREADS so every test and
# pass runs against an N-thread pool (1 = exact serial fallback).
#
# Each sanitizer variant uses a separate build directory so it never poisons
# the plain build's cache.
set -euo pipefail

cd "$(dirname "$0")/.."

mode="plain"
for arg in "$@"; do
  case "$arg" in
    asan|--sanitize) mode="asan" ;;
    --tsan) mode="tsan" ;;
    --threads=*) export DWRED_THREADS="${arg#--threads=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

case "$mode" in
  asan)
    cmake -B build-asan -S . "-DDWRED_SANITIZE=address;undefined"
    cmake --build build-asan -j
    cd build-asan
    # Every UBSan report fails its test (ASan errors always do).
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      ctest --output-on-failure -j
    # The crash matrix forks a child per (fault site, occurrence) and the child
    # dies at an IO boundary; rerun it with every sanitizer report fatal so a
    # leak or UB on the recovery path fails the run rather than scrolling by.
    ASAN_OPTIONS="abort_on_error=1:halt_on_error=1" \
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      ctest --output-on-failure -R 'crash_matrix_test|journal_test|recovery_test'
    ;;
  tsan)
    cmake -B build-tsan -S . "-DDWRED_SANITIZE=thread"
    cmake --build build-tsan -j
    cd build-tsan
    # The concurrency surface: pool internals under stress, the parallel
    # reduce/synchronize/query passes, the metrics they update, the
    # cancellation/admission runtime (cooperative aborts racing worker
    # shards, the oversubscribed admission gate), and the dwredd serving
    # core (concurrent sessions, the cancel.net.* sweep, the wire-vs-
    # embedded differential). The crash matrix is excluded — TSan does not
    # support threads created after a multithreaded fork (the fork-safety
    # test self-skips the same way).
    TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
      ctest --output-on-failure \
        -R 'exec_pool_test|parallel_differential_test|vm_differential_test|columnar_test|obs_test|cache_coherence_test|profile_test|cancel_test|cancel_matrix_test|net_protocol_test|server_test'
    ;;
  plain)
    cmake -B build -S . && cmake --build build -j && cd build \
      && ctest --output-on-failure -j
    ;;
esac
