// Profiling-subsystem tests (docs/OBSERVABILITY.md): the EXPLAIN profile of a
// query on the pruned path must be *coherent* with the scan layer — its
// segment/row totals equal the dwred_scan_segments_* / dwred_scan_rows_skipped
// counter deltas exactly — and the spans of a parallel query on an 8-thread
// pool must reconstruct a single rooted tree (trace context crosses the pool).
// Also covers the flight recorder's admission threshold, bounds, and env
// knobs, and the profile render surfaces.

#include <cstdlib>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "chrono/civil.h"
#include "exec/thread_pool.h"
#include "mdm/paper_example.h"
#include "obs/logging.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "paper_actions.h"
#include "spec/parser.h"
#include "subcube/manager.h"

namespace dwred {
namespace {

class ProfileTest : public ::testing::Test {
 protected:
  // Each test assumes the cache enabled; start clean so the suite behaves
  // identically under the CI job that disables it process-wide.
  void SetUp() override {
    ::unsetenv("DWRED_CACHE_DISABLED");
    obs::TraceBuffer::Global().Disable();
    obs::FlightRecorder::Global().Clear();
  }

  void TearDown() override {
    ::unsetenv("DWRED_CACHE_DISABLED");
    ::unsetenv("DWRED_SLOWLOG_TOPK");
    ::unsetenv("DWRED_SLOWLOG_LASTN");
    ::unsetenv("DWRED_SLOWLOG_MIN_US");
    obs::FlightRecorder::Global().ReloadConfigFromEnv();
    obs::FlightRecorder::Global().Clear();
    obs::TraceBuffer::Global().Disable();
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

// The EXPLAIN profile of a cache-missing query on the pruned path
// (assume_synchronized + predicate) reports exactly the counter movement it
// caused: segments scanned/pruned and rows skipped match the dwred_scan_*
// deltas byte for byte, the per-subcube slices fold to the totals, and a
// repeat query is a cache hit with the same fingerprint and zero counter
// movement.
TEST_F(ProfileTest, ExplainMatchesScanCounterDeltasOnPrunedPath) {
  IspExample ex;
  std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
  const int64_t now = DaysFromCivil({2000, 11, 5});
  ASSERT_TRUE(mgr->Synchronize(now).ok());

  auto pred = ParsePredicate(*ex.mo, "Time.month <= 1999/11").take();
  auto gran = ParseGranularityList(*ex.mo, "Time.month, URL.domain").take();

  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& scanned = reg.GetCounter("dwred_scan_segments_scanned");
  obs::Counter& pruned = reg.GetCounter("dwred_scan_segments_pruned");
  obs::Counter& skipped = reg.GetCounter("dwred_scan_rows_skipped");

  exec::ThreadPool::ResetGlobal(4);
  const uint64_t scanned0 = scanned.Value();
  const uint64_t pruned0 = pruned.Value();
  const uint64_t skipped0 = skipped.Value();

  uint64_t epoch = 0;
  obs::OpProfile profile;
  auto r = mgr->Query(pred.get(), &gran, now, /*assume_synchronized=*/true,
                      /*parallel=*/true, &epoch, &profile);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_EQ(profile.op, "subcube.query");
  EXPECT_EQ(profile.epoch, epoch);
  EXPECT_EQ(profile.now_day, now);
  EXPECT_TRUE(profile.assume_synchronized);
  EXPECT_TRUE(profile.parallel);
  EXPECT_EQ(profile.cache, obs::CacheOutcome::kMiss);
  EXPECT_NE(profile.fingerprint, 0u);
  EXPECT_EQ(profile.fan_out, static_cast<int64_t>(mgr->num_subcubes()));
  EXPECT_EQ(profile.result_facts, static_cast<int64_t>(r.value().num_facts()));

  // Coherence: the query's per-subcube ScanPlans are the only counter
  // movement, so the profile totals equal the deltas exactly.
  EXPECT_EQ(static_cast<uint64_t>(profile.segments_scanned),
            scanned.Value() - scanned0);
  EXPECT_EQ(static_cast<uint64_t>(profile.segments_pruned),
            pruned.Value() - pruned0);
  EXPECT_EQ(static_cast<uint64_t>(profile.rows_skipped),
            skipped.Value() - skipped0);
  EXPECT_EQ(profile.segments_total,
            profile.segments_scanned + profile.segments_pruned);
  EXPECT_GT(profile.segments_total, 0);

  // The per-subcube slices fold to the totals.
  ASSERT_EQ(profile.subcubes.size(), mgr->num_subcubes());
  int64_t sum_scanned = 0, sum_pruned = 0, sum_skipped = 0, sum_rows = 0;
  for (const obs::SubcubeProfile& sc : profile.subcubes) {
    EXPECT_FALSE(sc.name.empty());
    sum_scanned += sc.segments_scanned;
    sum_pruned += sc.segments_pruned;
    sum_skipped += sc.rows_skipped;
    sum_rows += sc.rows_scanned;
  }
  EXPECT_EQ(sum_scanned, profile.segments_scanned);
  EXPECT_EQ(sum_pruned, profile.segments_pruned);
  EXPECT_EQ(sum_skipped, profile.rows_skipped);
  EXPECT_EQ(sum_rows, profile.rows_scanned);

  // Every stage of the pipeline is timed.
  std::set<std::string> stage_names;
  for (const obs::StageTime& s : profile.stages) stage_names.insert(s.name);
  for (const char* want :
       {"lookup", "plan", "scan", "aggregate", "subqueries_wall",
        "materialize"}) {
    EXPECT_TRUE(stage_names.count(want)) << "missing stage " << want;
  }

  // Repeat in the same epoch: a cache hit with the same fingerprint and no
  // scan-layer movement.
  const uint64_t scanned1 = scanned.Value();
  uint64_t epoch2 = 0;
  obs::OpProfile hit;
  auto r2 = mgr->Query(pred.get(), &gran, now, /*assume_synchronized=*/true,
                       /*parallel=*/true, &epoch2, &hit);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(hit.cache, obs::CacheOutcome::kHit);
  EXPECT_EQ(hit.fingerprint, profile.fingerprint);
  EXPECT_EQ(hit.epoch, epoch2);
  EXPECT_EQ(epoch2, epoch);
  EXPECT_EQ(scanned.Value(), scanned1);
}

// The spans of one parallel query on an 8-thread pool reconstruct a single
// rooted tree: every span carries the root's trace_id, every parent chain
// terminates at the "subcube.query" root, and each subcube contributed its
// labelled subquery span from whichever worker evaluated it.
TEST_F(ProfileTest, ParallelQuerySpansFormSingleRootedTree) {
  IspExample ex;
  std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
  const int64_t now = DaysFromCivil({2000, 11, 5});
  ASSERT_TRUE(mgr->Synchronize(now).ok());
  auto pred = ParsePredicate(*ex.mo, "Time.month <= 1999/11").take();
  auto gran = ParseGranularityList(*ex.mo, "Time.month, URL.domain").take();

  exec::ThreadPool::ResetGlobal(8);
  obs::TraceBuffer::Global().Enable(512);
  auto r = mgr->Query(pred.get(), &gran, now, /*assume_synchronized=*/true,
                      /*parallel=*/true);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<obs::TraceEvent> events = obs::TraceBuffer::Global().Snapshot();
  obs::TraceBuffer::Global().Disable();
  ASSERT_FALSE(events.empty());

  // Exactly one root: the query span itself.
  const obs::TraceEvent* root = nullptr;
  for (const obs::TraceEvent& ev : events) {
    if (ev.name == "subcube.query") {
      ASSERT_EQ(root, nullptr) << "more than one query root";
      root = &ev;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(root->trace_id, root->span_id);

  std::map<uint64_t, const obs::TraceEvent*> by_span;
  for (const obs::TraceEvent& ev : events) {
    EXPECT_NE(ev.span_id, 0u) << ev.name;
    EXPECT_TRUE(by_span.emplace(ev.span_id, &ev).second)
        << "duplicate span id " << ev.span_id;
  }

  size_t subqueries = 0;
  for (const obs::TraceEvent& ev : events) {
    // Single trace: everything the query caused shares its trace_id, no
    // matter which pool worker ran it.
    EXPECT_EQ(ev.trace_id, root->trace_id) << ev.name;
    if (ev.name.rfind("subcube.subquery/cube=", 0) == 0) {
      ++subqueries;
      EXPECT_EQ(ev.parent_id, root->span_id) << ev.name;
    }
    // Single rooted tree: every parent chain reaches the root.
    uint64_t cur = ev.span_id;
    int hops = 0;
    while (cur != root->span_id) {
      auto it = by_span.find(cur);
      ASSERT_NE(it, by_span.end()) << "broken chain at span " << cur;
      cur = it->second->parent_id;
      ASSERT_LE(++hops, 64) << "cycle in span tree";
    }
  }
  EXPECT_EQ(subqueries, mgr->num_subcubes());

  // The rendered tree shows one trace with the query as its only root.
  std::string tree = obs::RenderTraceTree(events);
  EXPECT_NE(tree.find("trace " + std::to_string(root->trace_id)),
            std::string::npos);
  EXPECT_NE(tree.find("subcube.subquery/cube="), std::string::npos);
  EXPECT_EQ(tree.find("(untraced)"), std::string::npos);
  EXPECT_EQ(tree.find("parent evicted"), std::string::npos);
}

// A synchronization pass fills its own profile: stage times for
// plan/apply/compact and the migration counters, flight-recorded like any
// other operation.
TEST_F(ProfileTest, SynchronizeFillsPassProfile) {
  IspExample ex;
  std::unique_ptr<SubcubeManager> mgr = MakeWarehouse(&ex);
  const uint64_t epoch_before = mgr->epoch();
  obs::OpProfile profile;
  auto moved =
      mgr->Synchronize(DaysFromCivil({2000, 11, 5}), &profile);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();

  EXPECT_EQ(profile.op, "subcube.sync");
  // The profile reports the epoch the pass ran against; the pass itself then
  // bumps it.
  EXPECT_EQ(profile.epoch, epoch_before);
  EXPECT_GT(mgr->epoch(), epoch_before);
  EXPECT_EQ(profile.fan_out, static_cast<int64_t>(mgr->num_subcubes()));
  std::set<std::string> stage_names;
  for (const obs::StageTime& s : profile.stages) stage_names.insert(s.name);
  for (const char* want : {"plan", "apply", "compact"}) {
    EXPECT_TRUE(stage_names.count(want)) << "missing stage " << want;
  }
  std::map<std::string, int64_t> counters(profile.counters.begin(),
                                          profile.counters.end());
  ASSERT_TRUE(counters.count("rows_migrated"));
  EXPECT_EQ(counters["rows_migrated"], static_cast<int64_t>(moved.value()));
  EXPECT_TRUE(counters.count("rows_deleted"));
  EXPECT_TRUE(counters.count("cells_compacted"));
}

// The flight recorder admits only operations at/above the threshold, keeps
// the board slowest-first bounded at DWRED_SLOWLOG_TOPK, and keeps the last-N
// ring in admission order bounded at DWRED_SLOWLOG_LASTN.
TEST_F(ProfileTest, FlightRecorderRespectsThresholdAndBounds) {
  ::setenv("DWRED_SLOWLOG_TOPK", "4", 1);
  ::setenv("DWRED_SLOWLOG_LASTN", "3", 1);
  ::setenv("DWRED_SLOWLOG_MIN_US", "10", 1);
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  fr.ReloadConfigFromEnv();
  fr.Clear();

  EXPECT_EQ(fr.threshold_us(), 10);
  EXPECT_FALSE(fr.WouldRecord(9));
  EXPECT_TRUE(fr.WouldRecord(10));

  auto record = [&fr](int64_t us) {
    obs::OpProfile p;
    p.op = "op" + std::to_string(us);
    p.epoch = 7;
    p.total_us = us;
    fr.Record(p);
  };
  record(5);  // below threshold: dropped without a sequence number
  for (int64_t us : {20, 40, 30, 60, 50, 10}) record(us);

  std::vector<obs::FlightEntry> top = fr.TopK();
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].wall_us, 60);
  EXPECT_EQ(top[1].wall_us, 50);
  EXPECT_EQ(top[2].wall_us, 40);
  EXPECT_EQ(top[3].wall_us, 30);
  EXPECT_EQ(top[0].op, "op60");
  EXPECT_EQ(top[0].seq, 4u) << "the 5us record must not consume a seq";
  EXPECT_NE(top[0].detail.find("epoch=7"), std::string::npos);

  std::vector<obs::FlightEntry> last = fr.LastN();
  ASSERT_EQ(last.size(), 3u);
  EXPECT_EQ(last[0].wall_us, 60);  // oldest of the surviving three
  EXPECT_EQ(last[1].wall_us, 50);
  EXPECT_EQ(last[2].wall_us, 10);

  std::string render = fr.Render();
  EXPECT_NE(render.find("slowest:"), std::string::npos);
  EXPECT_NE(render.find("recent:"), std::string::npos);
  EXPECT_NE(render.find("op60"), std::string::npos);

  fr.Clear();
  EXPECT_TRUE(fr.TopK().empty());
  EXPECT_TRUE(fr.LastN().empty());
  EXPECT_NE(fr.Render().find("(none at/above threshold)"), std::string::npos);
}

// Garbage or out-of-range DWRED_SLOWLOG_* values must not break the flight
// recorder: they warn through the obs logger and fall back / clamp to the
// documented bounds instead of being adopted verbatim.
TEST_F(ProfileTest, SlowlogEnvGarbageWarnsAndClamps) {
  std::vector<std::string> warnings;
  obs::SetLogSink([&warnings](obs::LogLevel level, std::string_view msg) {
    if (level == obs::LogLevel::kWarn) warnings.emplace_back(msg);
  });
  ::setenv("DWRED_SLOWLOG_TOPK", "banana", 1);
  ::setenv("DWRED_SLOWLOG_LASTN", "0", 1);       // below the min of 1
  ::setenv("DWRED_SLOWLOG_MIN_US", "-50", 1);    // below the min of 0
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  fr.ReloadConfigFromEnv();
  obs::SetLogSink(nullptr);

  // Unparseable TOPK: default. LASTN/MIN_US: clamped to their minimums.
  EXPECT_EQ(fr.threshold_us(), 0);
  ASSERT_GE(warnings.size(), 3u) << "each bad knob warns once";
  std::string all;
  for (const std::string& w : warnings) all += w + "\n";
  EXPECT_NE(all.find("DWRED_SLOWLOG_TOPK"), std::string::npos);
  EXPECT_NE(all.find("DWRED_SLOWLOG_LASTN"), std::string::npos);
  EXPECT_NE(all.find("DWRED_SLOWLOG_MIN_US"), std::string::npos);

  // Clamped LASTN=1 is live: the ring keeps exactly one entry.
  fr.Clear();
  for (int64_t us : {100, 200}) {
    obs::OpProfile p;
    p.op = "clamped";
    p.total_us = us;
    fr.Record(p);
  }
  EXPECT_EQ(fr.LastN().size(), 1u);

  // An over-the-top TOPK clamps to 4096 with a warning, not an allocation.
  warnings.clear();
  obs::SetLogSink([&warnings](obs::LogLevel level, std::string_view msg) {
    if (level == obs::LogLevel::kWarn) warnings.emplace_back(msg);
  });
  ::setenv("DWRED_SLOWLOG_TOPK", "99999999", 1);
  fr.ReloadConfigFromEnv();
  obs::SetLogSink(nullptr);
  EXPECT_FALSE(warnings.empty());
  EXPECT_NE(warnings.front().find("DWRED_SLOWLOG_TOPK"), std::string::npos);
}

// Fingerprints are real FNV-1a 64 (known-answer vectors) and the three render
// surfaces agree on the profile's content.
TEST_F(ProfileTest, FingerprintAndRenderSurfaces) {
  EXPECT_EQ(obs::Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(obs::Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(obs::Fnv1a64("query-a"), obs::Fnv1a64("query-b"));

  obs::OpProfile p;
  p.op = "subcube.query";
  p.trace_id = 9;
  p.epoch = 3;
  p.cache = obs::CacheOutcome::kHit;
  p.fingerprint = 0x1234;
  p.now_day = 11266;
  p.assume_synchronized = true;
  p.parallel = true;
  p.fan_out = 3;
  p.segments_total = 38;
  p.segments_scanned = 1;
  p.segments_pruned = 37;
  p.rows_skipped = 970000;
  p.result_facts = 12;
  p.AddStage("plan", 15);
  p.AddCounter("rows_migrated", 4);
  p.subcubes.push_back({"K1", 38, 1, 37, 30000, 970000, 12, 99});
  p.total_us = 123;

  std::string text = p.Render();
  EXPECT_NE(text.find("EXPLAIN subcube.query"), std::string::npos);
  EXPECT_NE(text.find("hit (fingerprint 0x0000000000001234)"),
            std::string::npos);
  EXPECT_NE(text.find("1 scanned / 37 pruned of 38"), std::string::npos);
  EXPECT_NE(text.find("yes (fan-out 3)"), std::string::npos);
  EXPECT_NE(text.find("plan"), std::string::npos);
  EXPECT_NE(text.find("rows_migrated:"), std::string::npos);
  EXPECT_NE(text.find("K1"), std::string::npos);

  std::string json = p.ToJson();
  EXPECT_NE(json.find("\"op\":\"subcube.query\""), std::string::npos);
  EXPECT_NE(json.find("\"segments_pruned\":37"), std::string::npos);
  EXPECT_NE(json.find("\"stages\":"), std::string::npos);
  EXPECT_NE(json.find("\"subcubes\":"), std::string::npos);

  std::string summary = p.Summary();
  EXPECT_NE(summary.find("cache=hit"), std::string::npos);
  EXPECT_NE(summary.find("epoch=3"), std::string::npos);
  EXPECT_NE(summary.find("pruned=37"), std::string::npos);
}

}  // namespace
}  // namespace dwred
