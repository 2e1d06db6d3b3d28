#pragma once

// Process-wide parallel execution engine (docs/PARALLELISM.md).
//
// A work-stealing thread pool drives the three embarrassingly parallel hot
// paths of the paper's implementation strategy: the per-fact Reduce scan
// (Definition 2 groups facts into cells independently), the per-row
// Synchronize migration scan (Section 7.2), and per-subcube query evaluation
// (Section 7.3 "separately and in parallel"). The pool is sized by the
// DWRED_THREADS environment variable (default: hardware_concurrency);
// DWRED_THREADS=1 is an *exact serial fallback* — ParallelFor runs the body
// inline on the calling thread with a single shard, no threads, no queues.
//
// Determinism contract: ParallelFor partitions [0, n) into contiguous
// ascending shards, and callers fold per-shard results in ascending shard
// order, so any computation whose per-shard work is pure and whose combine
// step is associative over contiguous ranges produces byte-identical results
// at every thread count (see docs/PARALLELISM.md for the argument).
//
// Scheduling: each worker owns a deque; shards are distributed round-robin at
// submission, workers pop their own deque LIFO and steal FIFO from siblings
// when empty. The submitting thread participates (it executes shards too), so
// nested ParallelFor calls from inside a shard cannot deadlock: a thread only
// blocks once no runnable shard is left anywhere, and every in-flight shard
// is actively progressing on some other thread.
//
// Fork safety: the crash-matrix harness fork()s mid-test. A forked child
// inherits the pool object but none of its worker threads; the pool detects
// the pid change and transparently rebuilds itself (abandoning the parent's
// carcass) so journaled passes keep running — including shards in flight when
// an armed fault kills the child.
//
// Observability (PR 1 registry): dwred_exec_threads / dwred_exec_queue_depth
// gauges, dwred_exec_tasks / dwred_exec_steals counters, and the
// dwred_exec_shard_seconds latency histogram.

#include <cstddef>
#include <functional>
#include <vector>

namespace dwred::exec {

/// A contiguous shard of an index space.
struct Shard {
  size_t begin;
  size_t end;
};

/// Partitions [0, n) into at most `max_shards` contiguous ascending shards of
/// at least `grain` indices each (the last may be shorter). Returns an empty
/// vector for n == 0. Exposed so callers that need per-shard state (e.g. the
/// Reduce merge) can size their accumulators before dispatch.
std::vector<Shard> PartitionShards(size_t n, size_t grain, size_t max_shards);

class ThreadPool {
 public:
  /// The process-wide pool, created on first use with ThreadsFromEnv().
  /// Rebuilt transparently after fork() (see header comment).
  static ThreadPool& Global();

  /// Replaces the process-wide pool with one of `threads` threads (<= 0:
  /// re-read DWRED_THREADS / hardware_concurrency). Call only while no
  /// parallel operation is running (tests, benchmark setup, CLI flags). The
  /// previous pool is drained and destroyed.
  static void ResetGlobal(int threads);

  /// DWRED_THREADS validated and clamped to [1, hardware_concurrency * 4];
  /// unset or unparseable values fall back to hardware_concurrency (min 1),
  /// with a warning logged for anything malformed or out of range.
  static int ThreadsFromEnv();

  /// A pool of `threads` total lanes: threads - 1 workers plus the submitting
  /// thread, which always participates. threads <= 1 spawns no workers.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs `fn(begin, end)` over contiguous ascending shards of [0, n) with at
  /// least `grain` indices per shard, blocking until every shard completed.
  /// With one lane (or one shard) the body runs inline: exact serial
  /// execution. `fn` must be safe to invoke concurrently on disjoint ranges.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// Runs `fn(shard_index, begin, end)` over the exact shards in `shards`
  /// (one task per shard), blocking until done. The caller owns any
  /// per-shard accumulator slots, indexed by shard_index.
  void ParallelForShards(const std::vector<Shard>& shards,
                         const std::function<void(size_t, size_t, size_t)>& fn);

 private:
  struct Impl;

  Impl* impl_ = nullptr;   ///< null when num_threads_ == 1
  int num_threads_ = 1;
};

}  // namespace dwred::exec
