// Tests for the work-stealing thread pool (src/exec): sharding, the exact
// serial fallback, each shard's exact range, nested operations, concurrent external submitters (the TSan stress surface), and
// fork safety.

#include "exec/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/logging.h"
#include "obs/metrics.h"

namespace dwred::exec {
namespace {

TEST(PartitionShards, CoversRangeContiguouslyAscending) {
  for (size_t n : {0ul, 1ul, 7ul, 100ul, 1001ul}) {
    for (size_t grain : {1ul, 16ul, 1000ul}) {
      for (size_t max_shards : {1ul, 3ul, 32ul}) {
        std::vector<Shard> shards = PartitionShards(n, grain, max_shards);
        if (n == 0) {
          EXPECT_TRUE(shards.empty());
          continue;
        }
        ASSERT_FALSE(shards.empty());
        EXPECT_LE(shards.size(), max_shards);
        EXPECT_EQ(shards.front().begin, 0u);
        EXPECT_EQ(shards.back().end, n);
        for (size_t i = 0; i + 1 < shards.size(); ++i) {
          EXPECT_EQ(shards[i].end, shards[i + 1].begin);
          EXPECT_GE(shards[i].end - shards[i].begin, grain);
        }
      }
    }
  }
}

TEST(PartitionShards, SingleShardWhenGrainDominates) {
  std::vector<Shard> shards = PartitionShards(100, 1000, 8);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].begin, 0u);
  EXPECT_EQ(shards[0].end, 100u);
}

TEST(ThreadPool, SerialFallbackRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::thread::id caller = std::this_thread::get_id();
  size_t calls = 0;
  pool.ParallelFor(1000, 1, [&](size_t begin, size_t end) {
    // One inline call covering the whole range, on the calling thread.
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1000u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(hits.size(), 64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForShardsSeesItsExactShard) {
  ThreadPool pool(3);
  std::vector<Shard> shards = PartitionShards(997, 10, 12);
  std::vector<std::pair<size_t, size_t>> seen(shards.size());
  pool.ParallelForShards(shards, [&](size_t si, size_t begin, size_t end) {
    seen[si] = {begin, end};
  });
  for (size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(seen[i].first, shards[i].begin);
    EXPECT_EQ(seen[i].second, shards[i].end);
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  pool.ParallelFor(16, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.ParallelFor(100, 10, [&](size_t b, size_t e) {
        total.fetch_add(e - b, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 16u * 100u);
}

TEST(ThreadPool, GlobalRespectsResetAndEnv) {
  ThreadPool::ResetGlobal(3);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 3);
  ThreadPool::ResetGlobal(1);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 1);
  // 4 is always inside the [1, hardware_concurrency * 4] clamp (hw >= 1).
  setenv("DWRED_THREADS", "4", 1);
  ThreadPool::ResetGlobal(0);  // re-read the environment
  EXPECT_EQ(ThreadPool::Global().num_threads(), 4);
  unsetenv("DWRED_THREADS");
  ThreadPool::ResetGlobal(2);
}

TEST(ThreadPool, ThreadsFromEnvValidatesAndClamps) {
  unsigned hw = std::thread::hardware_concurrency();
  int hw_threads = hw >= 1 ? static_cast<int>(hw) : 1;
  int max_threads = hw_threads * 4;

  std::vector<std::string> warnings;
  obs::SetLogSink([&](obs::LogLevel level, std::string_view msg) {
    if (level == obs::LogLevel::kWarn) warnings.emplace_back(msg);
  });

  auto from = [&](const char* value) {
    warnings.clear();
    if (value == nullptr) {
      unsetenv("DWRED_THREADS");
    } else {
      setenv("DWRED_THREADS", value, 1);
    }
    return ThreadPool::ThreadsFromEnv();
  };

  // Unset: hardware default, no warning.
  EXPECT_EQ(from(nullptr), hw_threads);
  EXPECT_TRUE(warnings.empty());

  // Valid values pass through (whitespace tolerated), no warning.
  EXPECT_EQ(from("1"), 1);
  EXPECT_EQ(from(" 2 "), 2);
  EXPECT_TRUE(warnings.empty());

  // Empty behaves as unset (the consolidated EnvInt64 contract,
  // tests/env_test.cc): hardware default, silently.
  EXPECT_EQ(from(""), hw_threads);
  EXPECT_TRUE(warnings.empty());

  // Garbage falls back to the hardware default with a warning.
  for (const char* bad : {"abc", "3x", "1.5", "0x4"}) {
    EXPECT_EQ(from(bad), hw_threads) << "value: \"" << bad << "\"";
    ASSERT_EQ(warnings.size(), 1u) << "value: \"" << bad << "\"";
    EXPECT_NE(warnings[0].find("not an integer"), std::string::npos);
  }

  // Overflowing values are unparseable, not undefined behavior.
  EXPECT_EQ(from("999999999999999999999999"), hw_threads);
  ASSERT_EQ(warnings.size(), 1u);

  // Non-positive values clamp to 1 with a warning.
  for (const char* low : {"0", "-3", "-999999999999999999"}) {
    EXPECT_EQ(from(low), 1) << "value: \"" << low << "\"";
    ASSERT_EQ(warnings.size(), 1u) << "value: \"" << low << "\"";
    EXPECT_NE(warnings[0].find("clamping to 1"), std::string::npos);
  }

  // Oversized values clamp to 4x hardware_concurrency with a warning.
  EXPECT_EQ(from("1000000"), max_threads);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("exceeds"), std::string::npos);
  EXPECT_NE(warnings[0].find("clamping to"), std::string::npos);

  unsetenv("DWRED_THREADS");
  obs::SetLogSink(nullptr);
}

TEST(ThreadPool, TaskMetricsAdvance) {
  auto& tasks = obs::MetricsRegistry::Global().GetCounter(
      "dwred_exec_tasks", "shards executed by the pool");
  uint64_t before = tasks.Value();
  ThreadPool pool(4);
  pool.ParallelFor(10000, 10, [](size_t, size_t) {});
  EXPECT_GT(tasks.Value(), before);
}

// Many external threads submitting concurrently against one pool: the
// submission, steal, and wakeup paths all race here. This is the test the
// TSan suite leans on (tools/run_tier1.sh --tsan).
TEST(ThreadPoolStress, ConcurrentExternalSubmitters) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        pool.ParallelFor(1000, 16, [&](size_t begin, size_t end) {
          total.fetch_add(end - begin, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), 4u * 50u * 1000u);
}

TEST(ThreadPoolStress, RepeatedSmallOps) {
  ThreadPool pool(8);  // oversubscribed on small machines: more stealing
  std::atomic<size_t> total{0};
  for (int round = 0; round < 2000; ++round) {
    pool.ParallelFor(64, 1, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 2000u * 64u);
}

// A forked child inherits the pool object but none of its threads; Global()
// must detect the new pid and rebuild. (Skipped under TSan: it does not
// support threads created after a multithreaded fork.)
TEST(ThreadPool, GlobalRebuildsAfterFork) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "fork+threads unsupported under TSan";
#else
  ThreadPool::ResetGlobal(4);
  // Touch the pool so worker threads exist before the fork.
  ThreadPool::Global().ParallelFor(100, 10, [](size_t, size_t) {});
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::atomic<size_t> total{0};
    ThreadPool::Global().ParallelFor(1000, 10, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
    _exit(total.load() == 1000u ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
#endif
}

}  // namespace
}  // namespace dwred::exec
