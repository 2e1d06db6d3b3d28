// Cache-coherence differential tests (docs/CACHING.md): the epoch-versioned
// query cache must never change query bytes — only their cost. The
// interleaving test drives query → insert → query → synchronize → query
// across epochs, thread counts {1, 4}, and cache on/off, asserting
// byte-for-byte identical transcripts; the NOW-advance case pins that a
// NOW-relative predicate re-evaluated at a later day never sees a stale
// window. The concurrent tests (also in the TSan suite, tools/run_tier1.sh)
// race epoch-pinned readers against mutating writers: any two reads that
// pinned the same epoch must agree byte for byte, and two writer threads
// serialized only by the manager's writer mutex must end where a serial run
// ends. A synchronize plan that a writer outdated is refused untouched, one
// that moves nothing keeps the epoch, a served query renders its answer
// under its own snapshot lock while a served insert interns new days, and a
// hit hands back the answer its miss rendered.

#include <cstdlib>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chrono/civil.h"
#include "exec/thread_pool.h"
#include "mdm/paper_example.h"
#include "net/command.h"
#include "obs/metrics.h"
#include "paper_actions.h"
#include "spec/parser.h"
#include "subcube/manager.h"

namespace dwred {
namespace {

/// Full-fidelity serialization of an MO (the differential harness's
/// currency): any divergence shows up as a string mismatch.
std::string Fingerprint(const MultidimensionalObject& mo) {
  std::ostringstream out;
  out << mo.num_facts() << "\n";
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    out << f << "|" << mo.FactName(f) << "|";
    for (size_t d = 0; d < mo.num_dimensions(); ++d) {
      out << mo.Coord(f, static_cast<DimensionId>(d)) << ",";
    }
    out << "|";
    for (size_t m = 0; m < mo.num_measures(); ++m) {
      out << mo.Measure(f, static_cast<MeasureId>(m)) << ",";
    }
    out << "\n";
  }
  return out.str();
}

class CacheCoherenceTest : public ::testing::Test {
 protected:
  // Each test manages DWRED_CACHE_DISABLED itself; start from a clean slate
  // so the suite behaves the same under the CI cache-off job, which exports
  // the variable process-wide.
  void SetUp() override { ::unsetenv("DWRED_CACHE_DISABLED"); }

  void TearDown() override {
    ::unsetenv("DWRED_CACHE_DISABLED");
    exec::ThreadPool::ResetGlobal(2);
  }

  /// A fresh paper-example warehouse with the {a1, a2} specification and the
  /// Table 2 facts loaded into the bottom cube.
  std::unique_ptr<SubcubeManager> MakeWarehouse(IspExample* ex_out) {
    *ex_out = MakeIspExample();
    IspExample& ex = *ex_out;
    ReductionSpecification spec;
    spec.Add(ParseAction(*ex.mo, paper::kA1, "a1").take());
    spec.Add(ParseAction(*ex.mo, paper::kA2, "a2").take());
    auto m = SubcubeManager::Create(
        "Click", ex.mo->dimensions(),
        {ex.mo->measure_type(0), ex.mo->measure_type(1), ex.mo->measure_type(2),
         ex.mo->measure_type(3)},
        spec);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    auto mgr = std::make_unique<SubcubeManager>(m.take());
    EXPECT_TRUE(mgr->InsertBottomFacts(*ex.mo).ok());
    return mgr;
  }
};

// The interleaved mutate/query transcript is byte-identical across thread
// counts and cache on/off — every query answered from the cache equals the
// one recomputed from the tables, at every epoch of the warehouse's life.
TEST_F(CacheCoherenceTest, InterleavedEpochsMatchCacheOffByteForByte) {
  auto run = [&](int threads, bool disabled) -> std::string {
    if (disabled) {
      ::setenv("DWRED_CACHE_DISABLED", "1", 1);
    } else {
      ::unsetenv("DWRED_CACHE_DISABLED");
    }
    exec::ThreadPool::ResetGlobal(threads);
    IspExample ex;
    std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
    auto pred = ParsePredicate(
                    *ex.mo, "URL.domain_grp = .com AND Time.month <= NOW - 6 months")
                    .take();
    auto gran = ParseGranularityList(*ex.mo, "Time.month, URL.domain").take();
    const bool parallel = threads > 1;

    std::ostringstream transcript;
    auto query = [&](int64_t now, bool synced, const char* tag) {
      // Twice per step: the second evaluation must serve the same bytes
      // whether it hits the cache (enabled) or recomputes (disabled).
      for (int rep = 0; rep < 2; ++rep) {
        uint64_t epoch = 0;
        auto r = mgr->Query(&*pred, &gran, now, synced, parallel, &epoch);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (!r.ok()) return;
        transcript << tag << " rep " << rep << " epoch " << epoch << "\n"
                   << Fingerprint(r.value());
      }
    };

    const int64_t day1 = DaysFromCivil({2000, 6, 5});
    const int64_t day2 = DaysFromCivil({2000, 11, 5});
    query(day1, /*synced=*/false, "q1");
    // Mutation: a new bottom fact bumps the epoch and drops cached results.
    MultidimensionalObject batch("Click", ex.mo->dimensions(),
                                 std::vector<MeasureType>(
                                     ex.mo->measure_types()));
    std::vector<ValueId> cell = {ex.mo->Coord(6, ex.time_dim), ex.url_cnn};
    std::vector<int64_t> meas = {2, 40, 8, 2048};
    EXPECT_TRUE(batch.AddFact(cell, meas).ok());
    EXPECT_TRUE(mgr->InsertBottomFacts(batch).ok());
    query(day1, /*synced=*/false, "q2");
    EXPECT_TRUE(mgr->Synchronize(day1).ok());
    query(day1, /*synced=*/true, "q3");
    // NOW advances without any mutation: same predicate, later day — a
    // cached q3 window must not be served for q4.
    query(day2, /*synced=*/false, "q4");
    EXPECT_TRUE(mgr->Synchronize(day2).ok());
    query(day2, /*synced=*/true, "q5");
    return transcript.str();
  };

  std::string baseline;  // threads=1, cache enabled
  for (int threads : {1, 4}) {
    for (bool disabled : {false, true}) {
      std::string got = run(threads, disabled);
      if (baseline.empty()) {
        baseline = std::move(got);
        ASSERT_FALSE(baseline.empty());
        continue;
      }
      EXPECT_EQ(got, baseline)
          << "threads=" << threads << " cache_disabled=" << disabled
          << " diverged";
    }
  }
}

// The second identical query in an unchanged epoch is served from the cache
// (hit counter advances, bytes identical); with DWRED_CACHE_DISABLED set the
// counters stand still and the bytes still match.
TEST_F(CacheCoherenceTest, RepeatHitsAdvanceCountersOnlyWhenEnabled) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& hits = reg.GetCounter("dwred_cache_query_hits");

  IspExample ex;
  std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
  auto gran = ParseGranularityList(*ex.mo, "Time.month, URL.domain").take();
  const int64_t now = DaysFromCivil({2000, 11, 5});

  auto first = mgr->Query(nullptr, &gran, now, /*assume_synchronized=*/false);
  ASSERT_TRUE(first.ok());
  uint64_t hits_before = hits.Value();
  auto second = mgr->Query(nullptr, &gran, now, /*assume_synchronized=*/false);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(hits.Value(), hits_before + 1);
  EXPECT_EQ(Fingerprint(first.value()), Fingerprint(second.value()));

  ::setenv("DWRED_CACHE_DISABLED", "1", 1);
  hits_before = hits.Value();
  auto third = mgr->Query(nullptr, &gran, now, /*assume_synchronized=*/false);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(hits.Value(), hits_before);
  EXPECT_EQ(Fingerprint(first.value()), Fingerprint(third.value()));

  // A mutation bumps the epoch: the old key is unreachable, so the next
  // enabled lookup misses and recomputes against the new tables.
  ::unsetenv("DWRED_CACHE_DISABLED");
  const uint64_t epoch_before = mgr->epoch();
  MultidimensionalObject batch("Click", ex.mo->dimensions(),
                               std::vector<MeasureType>(ex.mo->measure_types()));
  std::vector<ValueId> cell = {ex.mo->Coord(0, ex.time_dim), ex.url_cnn};
  std::vector<int64_t> meas = {1, 1, 1, 1};
  ASSERT_TRUE(batch.AddFact(cell, meas).ok());
  ASSERT_TRUE(mgr->InsertBottomFacts(batch).ok());
  EXPECT_GT(mgr->epoch(), epoch_before);
  auto fourth = mgr->Query(nullptr, &gran, now, /*assume_synchronized=*/false);
  ASSERT_TRUE(fourth.ok());
  EXPECT_NE(Fingerprint(first.value()), Fingerprint(fourth.value()));
}

// A hit hands back the very entry the miss built — the result is not copied
// and the body not rendered again — and the entry's bytes in the LRU budget
// count the rendered body. With the cache off, every call builds its own
// answer with the same bytes.
TEST_F(CacheCoherenceTest, AHitSharesTheRenderedAnswer) {
  IspExample ex;
  std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
  auto gran = ParseGranularityList(*ex.mo, "Time.month, URL.domain").take();
  const int64_t now = DaysFromCivil({2000, 11, 5});

  auto miss = mgr->Answer(nullptr, &gran, now, /*assume_synchronized=*/false);
  ASSERT_TRUE(miss.ok());
  const cache::QueryAnswer& answer = *miss.value();
  EXPECT_EQ(answer.body, net::RenderResult(answer.result));
  const cache::WarehouseCache::Stats stats = mgr->warehouse_cache().GetStats();
  EXPECT_EQ(stats.query_entries, 1u);
  EXPECT_GE(stats.bytes - stats.program_bytes,
            answer.result.ApproxBytes() + answer.body.size());

  auto hit = mgr->Answer(nullptr, &gran, now, /*assume_synchronized=*/false);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().get(), miss.value().get());

  ::setenv("DWRED_CACHE_DISABLED", "1", 1);
  auto off = mgr->Answer(nullptr, &gran, now, /*assume_synchronized=*/false);
  ASSERT_TRUE(off.ok());
  EXPECT_NE(off.value().get(), miss.value().get());
  EXPECT_EQ(off.value()->body, answer.body);
}

// Readers race writers under the snapshot lock: every read pins an epoch,
// and any two reads that pinned the same epoch — across all reader threads,
// cache hits and misses alike — must be byte-identical. Runs under TSan in
// the sanitizer suite.
TEST_F(CacheCoherenceTest, ConcurrentReadersAgreePerPinnedEpoch) {
  IspExample ex;
  std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
  auto gran = ParseGranularityList(*ex.mo, "Time.month, URL.domain").take();
  const int64_t now = DaysFromCivil({2000, 11, 5});

  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 40;
  std::mutex mu;
  std::map<uint64_t, std::string> by_epoch;  // epoch -> first fingerprint seen
  std::atomic<bool> mismatch{false};
  std::atomic<bool> failed{false};

  auto reader = [&]() {
    for (int i = 0; i < kReadsPerReader && !failed.load(); ++i) {
      uint64_t epoch = 0;
      auto r = mgr->Query(nullptr, &gran, now, /*assume_synchronized=*/false,
                          /*parallel=*/false, &epoch);
      if (!r.ok()) {
        failed.store(true);
        return;
      }
      std::string fp = Fingerprint(r.value());
      std::lock_guard<std::mutex> lock(mu);
      auto it = by_epoch.find(epoch);
      if (it == by_epoch.end()) {
        by_epoch.emplace(epoch, std::move(fp));
      } else if (it->second != fp) {
        mismatch.store(true);
      }
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) readers.emplace_back(reader);

  // Writer: interleave appends and synchronizations, each bumping the epoch
  // under the exclusive lock.
  for (int w = 0; w < 10; ++w) {
    MultidimensionalObject batch("Click", ex.mo->dimensions(),
                                 std::vector<MeasureType>(
                                     ex.mo->measure_types()));
    std::vector<ValueId> cell = {ex.mo->Coord(w % 7, ex.time_dim), ex.url_cnn};
    std::vector<int64_t> meas = {1, w, 1, 1};
    ASSERT_TRUE(batch.AddFact(cell, meas).ok());
    ASSERT_TRUE(mgr->InsertBottomFacts(batch).ok());
    if (w % 3 == 2) {
      ASSERT_TRUE(mgr->Synchronize(DaysFromCivil({2000, 6, 5})).ok());
    }
  }

  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load());
  EXPECT_FALSE(mismatch.load()) << "same pinned epoch, different bytes";
  // The readers observed at least the initial epoch; mutations may or may
  // not have interleaved with reads on a given run, but every observed epoch
  // was internally consistent.
  EXPECT_GE(by_epoch.size(), 1u);
}

// A synchronize plan is a value pinned to the epoch it read: once another
// writer has moved the epoch, applying the plan is refused before any byte,
// the epoch or the caches move.
TEST_F(CacheCoherenceTest, StaleSynchronizePlanIsRefused) {
  IspExample ex;
  std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
  const int64_t now = DaysFromCivil({2000, 11, 5});
  auto plan = mgr->PlanSynchronize(now);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().epoch, mgr->epoch());

  MultidimensionalObject batch("Click", ex.mo->dimensions(),
                               std::vector<MeasureType>(ex.mo->measure_types()));
  std::vector<ValueId> cell = {ex.mo->Coord(0, ex.time_dim), ex.url_cnn};
  std::vector<int64_t> meas = {1, 1, 1, 1};
  ASSERT_TRUE(batch.AddFact(cell, meas).ok());
  ASSERT_TRUE(mgr->InsertBottomFacts(batch).ok());
  // Warm the query cache so "unchanged" covers a live entry.
  auto gran = ParseGranularityList(*ex.mo, "Time.month, URL.domain").take();
  ASSERT_TRUE(mgr->Query(nullptr, &gran, now, false).ok());

  const uint64_t epoch = mgr->epoch();
  ASSERT_NE(epoch, plan.value().epoch);
  const uint32_t crc = net::WarehouseCrc(*mgr);
  const cache::WarehouseCache::Stats stats = mgr->warehouse_cache().GetStats();
  auto applied = mgr->ApplySynchronize(plan.value());
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(applied.status().message().find("stale"), std::string::npos)
      << applied.status().ToString();
  EXPECT_EQ(mgr->epoch(), epoch);
  EXPECT_EQ(net::WarehouseCrc(*mgr), crc);
  const cache::WarehouseCache::Stats after = mgr->warehouse_cache().GetStats();
  EXPECT_EQ(after.epoch, stats.epoch);
  EXPECT_EQ(after.query_entries, stats.query_entries);
  EXPECT_EQ(after.scanspec_entries, stats.scanspec_entries);
  EXPECT_EQ(after.program_entries, stats.program_entries);
  EXPECT_EQ(after.bytes, stats.bytes);

  // A fresh plan of the same pass applies.
  auto fresh = mgr->PlanSynchronize(now);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto moved = mgr->ApplySynchronize(fresh.value());
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_GT(moved.value(), 0u);
  EXPECT_GT(mgr->epoch(), epoch);
}

// A synchronize that moves no row mutates nothing, so it keeps the epoch —
// and with it every cached result: the next identical query is a hit.
TEST_F(CacheCoherenceTest, SynchronizeThatMovesNothingKeepsTheEpoch) {
  obs::Counter& hits =
      obs::MetricsRegistry::Global().GetCounter("dwred_cache_query_hits");
  IspExample ex;
  std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
  auto gran = ParseGranularityList(*ex.mo, "Time.month, URL.domain").take();
  const int64_t now = DaysFromCivil({2000, 11, 5});
  auto moved = mgr->Synchronize(now);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  ASSERT_GT(moved.value(), 0u);
  auto first = mgr->Query(nullptr, &gran, now, /*assume_synchronized=*/true);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  const uint64_t epoch = mgr->epoch();
  auto again = mgr->Synchronize(now);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value(), 0u);
  EXPECT_EQ(mgr->epoch(), epoch);
  const uint64_t hits_before = hits.Value();
  auto second = mgr->Query(nullptr, &gran, now, /*assume_synchronized=*/true);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(hits.Value(), hits_before + 1);
  EXPECT_EQ(Fingerprint(second.value()), Fingerprint(first.value()));
}

// Served queries render their answers — dimension value names — while a
// served insert's CSV decode interns new days into the same dimensions under
// the exclusive lock, so a query must render before it releases its shared
// lock. Runs under TSan in the sanitizer suite, which reports the race when
// a query renders after unlocking.
TEST_F(CacheCoherenceTest, ServedQueriesRenderUnderTheSnapshotLock) {
  IspExample ex;
  std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
  const net::CommandTarget target{mgr.get()};
  std::atomic<bool> writing{true};
  std::atomic<bool> failed{false};
  auto reader = [&] {
    net::Request query;
    query.cmd = net::Command::kQuery;
    query.now_day = DaysFromCivil({2000, 11, 5});
    query.b = "Time.month, URL.domain";
    while (writing.load()) {
      if (net::Execute(query, target).code != StatusCode::kOk) {
        failed.store(true);
      }
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) readers.emplace_back(reader);
  // Every insert brings the days of a month no fact has mentioned yet.
  for (int k = 0; k < 24; ++k) {
    const std::string month = std::to_string(2001 + k / 12) + "/" +
                              std::to_string(k % 12 + 1) + "/";
    net::Request insert;
    insert.cmd = net::Command::kInsert;
    insert.a =
        "Time:category,Time:value,URL:category,URL:value,"
        "Number_of,Dwell_time,Delivery_time,Datasize\n";
    for (int day = 1; day <= 28; ++day) {
      insert.a += "day," + month + std::to_string(day) +
                  ",url,www.cnn.com,1,10,1,1\n";
    }
    if (net::Execute(insert, target).code != StatusCode::kOk) {
      failed.store(true);
    }
  }
  writing.store(false);
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());
}

/// Key-sorted rendering of an MO's facts by value names, so answers compare
/// independently of fact order and of ValueId assignment.
std::string SortedAnswer(const MultidimensionalObject& mo) {
  std::vector<std::string> lines;
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    std::string line;
    for (size_t d = 0; d < mo.num_dimensions(); ++d) {
      const auto dd = static_cast<DimensionId>(d);
      line += mo.dimension(dd)->value_name(mo.Coord(f, dd)) + "|";
    }
    for (size_t m = 0; m < mo.num_measures(); ++m) {
      line += std::to_string(mo.Measure(f, static_cast<MeasureId>(m))) + ",";
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

// Two writer threads — one inserting, one synchronizing — and readers share
// one bare manager with no lock of their own: the manager's writer mutex
// alone serializes the writers, a synchronize plans under the shared lock
// while readers run, and every read is byte-identical per pinned epoch. The
// readers also run the command layer's snapshot-crc, which must be safe
// beside writers with no caller-side lock. The final answer (the stale
// rewrite, which routes every row afresh) equals a serial run's. Runs under
// TSan in the sanitizer suite.
TEST_F(CacheCoherenceTest, ConcurrentWritersSerializeOnTheManager) {
  constexpr int kInserts = 12;
  constexpr int kSyncs = 6;
  const int64_t sync_day = DaysFromCivil({2000, 6, 5});
  const int64_t final_day = DaysFromCivil({2000, 11, 5});
  auto insert_one = [](SubcubeManager& mgr, const IspExample& ex, int w) {
    MultidimensionalObject batch("Click", ex.mo->dimensions(),
                                 std::vector<MeasureType>(
                                     ex.mo->measure_types()));
    std::vector<ValueId> cell = {ex.mo->Coord(w % 7, ex.time_dim),
                                 w % 2 == 0 ? ex.url_cnn : ex.mo->Coord(w % 7, ex.url_dim)};
    std::vector<int64_t> meas = {1, w, 1, 1};
    EXPECT_TRUE(batch.AddFact(cell, meas).ok());
    return mgr.InsertBottomFacts(batch);
  };

  // Serial reference: every insert, then the synchronizations.
  IspExample serial_ex;
  std::unique_ptr<SubcubeManager> serial = MakeWarehouse(&serial_ex);
  auto gran = ParseGranularityList(*serial_ex.mo, "Time.month, URL.domain").take();
  const uint64_t base_epoch = serial->epoch();
  for (int w = 0; w < kInserts; ++w) {
    ASSERT_TRUE(insert_one(*serial, serial_ex, w).ok());
  }
  for (int k = 0; k < kSyncs; ++k) {
    ASSERT_TRUE(serial->Synchronize(sync_day).ok());
  }
  auto want = serial->Query(nullptr, &gran, final_day, false);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  IspExample ex;
  std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
  std::mutex mu;
  std::map<uint64_t, std::string> by_epoch;
  std::atomic<bool> mismatch{false};
  std::atomic<bool> failed{false};
  std::atomic<int> writers_left{2};
  int moving_syncs = 0;  // synchronizations that moved a row
  auto reader = [&]() {
    // Bounded, so reader-preferring lock implementations cannot starve the
    // writers indefinitely.
    for (int i = 0; i < 60 && writers_left.load() > 0 && !failed.load();
         ++i) {
      uint64_t epoch = 0;
      auto r = mgr->Query(nullptr, &gran, sync_day, /*assume_synchronized=*/false,
                          /*parallel=*/false, &epoch);
      if (!r.ok()) {
        failed.store(true);
        return;
      }
      net::Request crc;
      crc.cmd = net::Command::kSnapshotCrc;
      if (net::Execute(crc, net::CommandTarget{mgr.get()}).code !=
          StatusCode::kOk) {
        failed.store(true);
        return;
      }
      std::string fp = Fingerprint(r.value());
      std::lock_guard<std::mutex> lock(mu);
      auto [it, inserted] = by_epoch.emplace(epoch, fp);
      if (!inserted && it->second != fp) mismatch.store(true);
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int w = 0; w < kInserts; ++w) {
      if (!insert_one(*mgr, ex, w).ok()) failed.store(true);
    }
    --writers_left;
  });
  threads.emplace_back([&] {
    for (int k = 0; k < kSyncs; ++k) {
      auto moved = mgr->Synchronize(sync_day);
      if (!moved.ok()) failed.store(true);
      moving_syncs += moved.ok() && moved.value() > 0;
    }
    --writers_left;
  });
  for (int t = 0; t < 2; ++t) threads.emplace_back(reader);
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());
  EXPECT_FALSE(mismatch.load()) << "same pinned epoch, different bytes";
  // Every insert bumped the epoch once, and so did every synchronization
  // that moved a row; one that moved nothing kept it.
  EXPECT_EQ(mgr->epoch(), base_epoch + kInserts + moving_syncs);

  auto got = mgr->Query(nullptr, &gran, final_day, false);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(SortedAnswer(got.value()), SortedAnswer(want.value()));
}

}  // namespace
}  // namespace dwred
