#include "exec/thread_pool.h"

#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/env.h"
#include "common/strings.h"
#include "obs/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/cancel.h"

namespace dwred::exec {

std::vector<Shard> PartitionShards(size_t n, size_t grain, size_t max_shards) {
  std::vector<Shard> shards;
  if (n == 0) return shards;
  if (grain == 0) grain = 1;
  if (max_shards == 0) max_shards = 1;
  size_t chunk = (n + max_shards - 1) / max_shards;
  if (chunk < grain) chunk = grain;
  shards.reserve((n + chunk - 1) / chunk);
  for (size_t begin = 0; begin < n; begin += chunk) {
    shards.push_back({begin, begin + chunk < n ? begin + chunk : n});
  }
  return shards;
}

namespace {

struct PoolMetrics {
  obs::Gauge& threads;
  obs::Gauge& queue_depth;
  obs::Counter& tasks;
  obs::Counter& steals;
  obs::Histogram& shard_seconds;

  static PoolMetrics& Get() {
    auto& r = obs::MetricsRegistry::Global();
    static PoolMetrics m{
        r.GetGauge("dwred_exec_threads",
                   "lanes of the process-wide thread pool"),
        r.GetGauge("dwred_exec_queue_depth",
                   "shards enqueued and not yet started"),
        r.GetCounter("dwred_exec_tasks", "shards executed by the pool"),
        r.GetCounter("dwred_exec_steals",
                     "shards stolen from a sibling worker's deque"),
        r.GetHistogram("dwred_exec_shard_seconds", obs::DefaultLatencyBuckets(),
                       "wall time of one shard execution"),
    };
    return m;
  }
};

}  // namespace

/// One submitted ParallelForShards call: the body, the shard list, and the
/// completion latch the submitting thread blocks on.
struct Op {
  const std::function<void(size_t, size_t, size_t)>* fn;
  const std::vector<Shard>* shards;
  obs::TraceContext ctx;  ///< submitter's trace context, installed per shard
  runtime::OpContext rctx;  ///< submitter's op context (cancel/deadline/budget)
  std::atomic<size_t> remaining;
  std::mutex mu;
  std::condition_variable cv;
};

struct Task {
  Op* op = nullptr;
  size_t shard = 0;
};

struct ThreadPool::Impl {
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> q;
  };

  std::vector<std::unique_ptr<WorkerQueue>> queues;  // one per worker thread
  std::vector<std::thread> workers;
  std::mutex wake_mu;
  std::condition_variable wake_cv;
  std::atomic<size_t> queued{0};  ///< tasks sitting in some deque
  std::atomic<bool> stop{false};
  std::atomic<size_t> rr{0};  ///< round-robin submission cursor

  void Push(size_t worker, Task t) {
    {
      std::lock_guard<std::mutex> lk(queues[worker]->mu);
      queues[worker]->q.push_back(t);
    }
    queued.fetch_add(1, std::memory_order_release);
    PoolMetrics::Get().queue_depth.Add(1);
  }

  /// Pops from `self`'s deque LIFO, else steals FIFO from siblings. `self` ==
  /// queues.size() means an external (submitting) thread: steal only.
  bool TryGet(size_t self, Task* out) {
    if (queued.load(std::memory_order_acquire) == 0) return false;
    if (self < queues.size()) {
      std::lock_guard<std::mutex> lk(queues[self]->mu);
      if (!queues[self]->q.empty()) {
        *out = queues[self]->q.back();
        queues[self]->q.pop_back();
        queued.fetch_sub(1, std::memory_order_release);
        PoolMetrics::Get().queue_depth.Add(-1);
        return true;
      }
    }
    for (size_t i = 0; i < queues.size(); ++i) {
      size_t victim = (self + 1 + i) % queues.size();
      if (victim == self) continue;
      std::lock_guard<std::mutex> lk(queues[victim]->mu);
      if (queues[victim]->q.empty()) continue;
      *out = queues[victim]->q.front();
      queues[victim]->q.pop_front();
      queued.fetch_sub(1, std::memory_order_release);
      PoolMetrics::Get().queue_depth.Add(-1);
      PoolMetrics::Get().steals.Increment();
      return true;
    }
    return false;
  }

  void Run(const Task& t) {
    auto& m = PoolMetrics::Get();
    m.tasks.Increment();
    const Shard& s = (*t.op->shards)[t.shard];
    // Carry the submitter's trace and op contexts onto this thread for the
    // shard's duration: spans the body opens parent under the submitting span,
    // and cancellation polls inside the body see the submitter's token /
    // deadline / budget, even when a worker (or a stealing submitter of
    // another op) runs it.
    obs::ScopedTraceContext trace_scope(t.op->ctx);
    runtime::ScopedOpContext op_scope(t.op->rctx);
    auto t0 = std::chrono::steady_clock::now();
    (*t.op->fn)(t.shard, s.begin, s.end);
    m.shard_seconds.Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    // Decrement and notify under op->mu. If the decrement happened outside
    // the mutex, the submitter could observe remaining == 0, take and release
    // its confirming lock, and destroy Op before this thread ever acquired
    // the mutex — a use-after-free on op->mu/op->cv. With the decrement
    // inside, either this thread released the mutex before the submitter's
    // confirming lock, or that lock blocks until it does; afterwards this
    // thread never touches op again.
    {
      std::lock_guard<std::mutex> lk(t.op->mu);
      if (t.op->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        t.op->cv.notify_all();
      }
    }
  }

  void WorkerLoop(size_t self) {
    while (true) {
      Task t;
      if (TryGet(self, &t)) {
        Run(t);
        continue;
      }
      std::unique_lock<std::mutex> lk(wake_mu);
      wake_cv.wait(lk, [&] {
        return stop.load(std::memory_order_acquire) ||
               queued.load(std::memory_order_acquire) > 0;
      });
      if (stop.load(std::memory_order_acquire) &&
          queued.load(std::memory_order_acquire) == 0) {
        return;
      }
    }
  }
};

int ThreadPool::ThreadsFromEnv() {
  unsigned hw = std::thread::hardware_concurrency();
  int hw_threads = hw >= 1 ? static_cast<int>(hw) : 1;
  // A pool wider than a few times the machine only adds contention; anything
  // unparseable or non-positive would silently become a 0/garbage pool size
  // with a bare atoi, so validate and clamp instead (common/env.h).
  return static_cast<int>(
      EnvInt64("DWRED_THREADS", hw_threads, 1,
               static_cast<int64_t>(hw_threads) * 4, EnvRangePolicy::kClamp));
}

ThreadPool::ThreadPool(int threads) : num_threads_(threads < 1 ? 1 : threads) {
  PoolMetrics::Get().threads.Set(num_threads_);
  if (num_threads_ == 1) return;  // exact serial fallback: no machinery at all
  impl_ = new Impl;
  size_t workers = static_cast<size_t>(num_threads_ - 1);
  impl_->queues.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    impl_->queues.push_back(std::make_unique<Impl::WorkerQueue>());
  }
  for (size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back([this, i] { impl_->WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(impl_->wake_mu);
    impl_->stop.store(true, std::memory_order_release);
  }
  impl_->wake_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::ParallelForShards(
    const std::vector<Shard>& shards,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (shards.empty()) return;
  if (impl_ == nullptr || shards.size() == 1) {
    for (size_t i = 0; i < shards.size(); ++i) {
      fn(i, shards[i].begin, shards[i].end);
    }
    return;
  }
  Op op;
  op.fn = &fn;
  op.shards = &shards;
  op.ctx = obs::CurrentTraceContext();
  op.rctx = runtime::CurrentOpContext();
  op.remaining.store(shards.size(), std::memory_order_release);
  {
    // Distribute round-robin starting at a moving cursor so consecutive small
    // ops don't all pile onto worker 0.
    size_t start = impl_->rr.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < shards.size(); ++i) {
      impl_->Push((start + i) % impl_->queues.size(), Task{&op, i});
    }
  }
  {
    // Taking wake_mu orders the queued increments against any worker that is
    // between its predicate check and its block, closing the lost-wakeup
    // window (the notifier would otherwise race that interval).
    std::lock_guard<std::mutex> lk(impl_->wake_mu);
  }
  impl_->wake_cv.notify_all();

  // The submitting thread participates: execute any runnable shard (its own
  // op's or a sibling op's) until this op's shards all completed. Blocking
  // only when no shard is runnable anywhere makes nested calls deadlock-free.
  const size_t external = impl_->queues.size();  // "not a worker" id
  while (op.remaining.load(std::memory_order_acquire) != 0) {
    Task t;
    if (impl_->TryGet(external, &t)) {
      impl_->Run(t);
      continue;
    }
    // Nothing runnable anywhere: park until this op completes. This op's
    // outstanding shards are guaranteed in flight on worker threads (TryGet
    // just found no queued work), so waiting on op.cv alone cannot deadlock.
    // Work submitted while parked is picked up by the workers; Push only
    // signals wake_cv, so a queued-work term in this predicate would never
    // be woken and is deliberately absent.
    std::unique_lock<std::mutex> lk(op.mu);
    op.cv.wait(lk, [&] {
      return op.remaining.load(std::memory_order_acquire) == 0;
    });
  }
  // Confirm completion while holding op.mu: every worker decrements under
  // the mutex, so this lock cannot be acquired until the final decrementer
  // is done touching `op`, making it safe for Op to leave scope.
  { std::lock_guard<std::mutex> lk(op.mu); }
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (impl_ == nullptr) {
    fn(0, n);  // exact serial fallback: one shard, inline
    return;
  }
  std::vector<Shard> shards =
      PartitionShards(n, grain, static_cast<size_t>(num_threads_) * 4);
  if (shards.size() == 1) {
    fn(0, n);
    return;
  }
  ParallelForShards(shards,
                    [&fn](size_t, size_t begin, size_t end) { fn(begin, end); });
}

namespace {

std::mutex g_global_mu;
ThreadPool* g_pool = nullptr;
pid_t g_pool_pid = 0;
int g_configured_threads = 0;  // 0 = derive from the environment

// A fork() while some other thread holds g_global_mu (pool-using threads call
// Global() on hot paths) would leave the child's copy of the mutex locked by
// a thread that does not exist there, deadlocking the child's first Global().
// Holding the mutex across the fork guarantees the child inherits it owned by
// the forking thread, which both sides release immediately.
[[maybe_unused]] const int g_atfork_registered = [] {
  ::pthread_atfork([] { g_global_mu.lock(); }, [] { g_global_mu.unlock(); },
                   [] { g_global_mu.unlock(); });
  return 0;
}();

}  // namespace

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lk(g_global_mu);
  if (g_pool != nullptr && g_pool_pid != ::getpid()) {
    // Forked child: the worker threads did not survive the fork and the old
    // pool's internal state is unusable. Abandon the carcass (destructing it
    // would join threads that no longer exist) and rebuild.
    g_pool = nullptr;
  }
  if (g_pool == nullptr) {
    int threads =
        g_configured_threads > 0 ? g_configured_threads : ThreadsFromEnv();
    g_pool = new ThreadPool(threads);
    g_pool_pid = ::getpid();
  }
  return *g_pool;
}

void ThreadPool::ResetGlobal(int threads) {
  std::lock_guard<std::mutex> lk(g_global_mu);
  g_configured_threads = threads > 0 ? threads : 0;
  if (g_pool != nullptr && g_pool_pid == ::getpid()) {
    delete g_pool;  // drains queues and joins workers
  }
  g_pool = nullptr;  // recreated lazily by the next Global()
}

}  // namespace dwred::exec
