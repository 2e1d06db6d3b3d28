// Tests for the dwred::obs subsystem: counters under contention, histogram
// bucket semantics, exposition-format stability, tracing, and logging.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dwred::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetAllForTest();
    TraceBuffer::Global().Disable();
    SetLogSink(nullptr);
    SetMinLogLevel(LogLevel::kInfo);
  }
  void TearDown() override {
    TraceBuffer::Global().Disable();
    SetLogSink(nullptr);
    SetMinLogLevel(LogLevel::kInfo);
  }
};

TEST_F(ObsTest, ConcurrentCounterIncrementsSumExactly) {
  Counter& c = MetricsRegistry::Global().GetCounter("test_concurrent_total");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST_F(ObsTest, HistogramBucketBoundsAreInclusive) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.num_bounds(), 3u);

  h.Record(1.0);  // exactly on a bound: le="1" is inclusive
  h.Record(2.0);  // le="2"
  h.Record(2.5);  // le="4"
  h.Record(5.0);  // above every bound: +Inf

  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);  // +Inf slot

  // Cumulative counts are monotone and end at the total.
  EXPECT_EQ(h.CumulativeCount(0), 1u);
  EXPECT_EQ(h.CumulativeCount(1), 2u);
  EXPECT_EQ(h.CumulativeCount(2), 3u);
  EXPECT_EQ(h.CumulativeCount(3), 4u);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 1.0 + 2.0 + 2.5 + 5.0);
}

TEST_F(ObsTest, RegistryReturnsSameObjectForSameName) {
  Counter& a = MetricsRegistry::Global().GetCounter("test_same_total");
  Counter& b = MetricsRegistry::Global().GetCounter("test_same_total");
  EXPECT_EQ(&a, &b);
  Histogram& h1 =
      MetricsRegistry::Global().GetHistogram("test_same_hist", {1.0, 2.0});
  // Later bounds are ignored; the registered histogram wins.
  Histogram& h2 =
      MetricsRegistry::Global().GetHistogram("test_same_hist", {7.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.num_bounds(), 2u);
}

// A minimal parser for the Prometheus text format: every non-comment line
// must be "<name>[{labels}] <value>"; returns name -> value for plain lines.
std::map<std::string, std::string> ParseExposition(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << "unexpected comment: " << line;
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      ADD_FAILURE() << "no value on line: " << line;
      continue;
    }
    std::string key = line.substr(0, space);
    std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    out[key] = value;
  }
  return out;
}

TEST_F(ObsTest, RenderTextIsStableAndParseable) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("test_render_total", "a test counter").Increment(3);
  reg.GetGauge("test_render_gauge").Set(-7);
  reg.GetHistogram("test_render_seconds", {0.5, 1.0}).Record(0.75);

  std::string first = reg.RenderText();
  std::string second = reg.RenderText();
  EXPECT_EQ(first, second) << "exposition must be deterministic";

  std::map<std::string, std::string> samples = ParseExposition(first);
  EXPECT_EQ(samples.at("test_render_total"), "3");
  EXPECT_EQ(samples.at("test_render_gauge"), "-7");
  EXPECT_EQ(samples.at("test_render_seconds_bucket{le=\"0.5\"}"), "0");
  EXPECT_EQ(samples.at("test_render_seconds_bucket{le=\"1\"}"), "1");
  EXPECT_EQ(samples.at("test_render_seconds_bucket{le=\"+Inf\"}"), "1");
  EXPECT_EQ(samples.at("test_render_seconds_count"), "1");
}

TEST_F(ObsTest, RenderJsonContainsRegisteredMetrics) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("test_json_total").Increment(2);
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test_json_total\""), std::string::npos);
}

TEST_F(ObsTest, TraceSpanNestedScopesEmitInnerFirst) {
  TraceBuffer::Global().Enable(16);
  {
    TraceSpan outer("outer");
    outer.AddField("facts", 42);
    {
      TraceSpan inner("inner");
    }
  }
  std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // The inner scope closes first, so it lands in the buffer first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  ASSERT_EQ(events[1].fields.size(), 1u);
  EXPECT_EQ(events[1].fields[0].first, "facts");
  EXPECT_EQ(events[1].fields[0].second, 42);
  EXPECT_GE(events[0].duration_us, 0);
  EXPECT_GE(events[1].duration_us, events[0].duration_us);
}

TEST_F(ObsTest, TraceBufferRingOverwritesOldest) {
  TraceBuffer::Global().Enable(3);
  for (int i = 0; i < 5; ++i) {
    TraceEvent ev;
    ev.name = "e" + std::to_string(i);
    TraceBuffer::Global().Record(std::move(ev));
  }
  std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "e2");
  EXPECT_EQ(events[1].name, "e3");
  EXPECT_EQ(events[2].name, "e4");

  std::string dump = TraceBuffer::Global().DumpJsonLines();
  EXPECT_NE(dump.find("\"name\":\"e4\""), std::string::npos);
  EXPECT_EQ(dump.find("\"name\":\"e0\""), std::string::npos);
}

TEST_F(ObsTest, TraceSpanRecordsIntoHistogram) {
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "test_span_seconds", DefaultLatencyBuckets());
  uint64_t before = h.Count();
  { TraceSpan span("timed", &h); }
  EXPECT_EQ(h.Count(), before + 1);
}

TEST_F(ObsTest, LoggerRespectsMinLevelAndSink) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  SetLogSink([&captured](LogLevel level, std::string_view text) {
    captured.emplace_back(level, std::string(text));
  });
  SetMinLogLevel(LogLevel::kWarn);

  DWRED_LOG(Info) << "dropped " << 1;
  DWRED_LOG(Error) << "kept " << 2;

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].first, LogLevel::kError);
  EXPECT_NE(captured[0].second.find("kept 2"), std::string::npos);
  EXPECT_NE(captured[0].second.find("obs_test.cc:"), std::string::npos);
}

TEST_F(ObsTest, SpanOwnsDynamicName) {
  TraceBuffer::Global().Enable(16);
  std::unique_ptr<TraceSpan> span;
  {
    // The source string dies before the span closes: the span must own its
    // copy (no "name must outlive the span" contract).
    std::string name = "dynamic/" + std::to_string(7);
    span = std::make_unique<TraceSpan>(name);
  }
  span.reset();
  std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "dynamic/7");
}

TEST_F(ObsTest, TraceContextPropagatesAcrossPoolWorkers) {
  exec::ThreadPool::ResetGlobal(4);
  TraceBuffer::Global().Enable(256);
  TraceContext root_ctx;
  {
    TraceSpan root("pool.root");
    root_ctx = root.context();
    exec::ThreadPool::Global().ParallelFor(
        16, /*grain=*/1, [](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            TraceSpan child("pool.child/" + std::to_string(i));
          }
        });
  }
  ASSERT_NE(root_ctx.trace_id, 0u);

  std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
  std::set<uint64_t> span_ids;
  size_t children = 0;
  for (const TraceEvent& ev : events) {
    EXPECT_TRUE(span_ids.insert(ev.span_id).second) << "span ids must be unique";
    if (ev.name.rfind("pool.child/", 0) != 0) continue;
    ++children;
    // Every child parented under the submitting span, no matter which worker
    // (or the submitter itself) ran its shard.
    EXPECT_EQ(ev.trace_id, root_ctx.trace_id) << ev.name;
    EXPECT_EQ(ev.parent_id, root_ctx.span_id) << ev.name;
  }
  EXPECT_EQ(children, 16u);
  exec::ThreadPool::ResetGlobal(2);
}

// Pool workers hammer a deliberately tiny ring concurrently: the buffer must
// stay bounded at its capacity with every surviving event intact. Runs under
// TSan in the sanitizer suite (tools/run_tier1.sh).
TEST_F(ObsTest, ConcurrentSpansFromPoolWorkersWrapTheRing) {
  exec::ThreadPool::ResetGlobal(8);
  constexpr size_t kCapacity = 64;
  TraceBuffer::Global().Enable(kCapacity);
  TraceContext root_ctx;
  {
    TraceSpan root("stress.root");
    root_ctx = root.context();
    exec::ThreadPool::Global().ParallelFor(
        64, /*grain=*/1, [](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            for (int j = 0; j < 8; ++j) {
              TraceSpan span("stress.span");
            }
          }
        });
  }
  std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(events.size(), kCapacity) << "ring must stay bounded";
  for (const TraceEvent& ev : events) {
    // The root span closed last, so every survivor is a worker span carrying
    // the root's trace, or the root itself.
    EXPECT_EQ(ev.trace_id, root_ctx.trace_id);
    EXPECT_GE(ev.duration_us, 0);
    EXPECT_FALSE(ev.name.empty());
  }
  exec::ThreadPool::ResetGlobal(2);
}

TEST_F(ObsTest, TraceJsonLinesRoundTripAndTreeRender) {
  TraceBuffer::Global().Enable(16);
  {
    TraceSpan outer("outer");
    outer.AddField("rows", 7);
    { TraceSpan inner("inner"); }
  }
  std::vector<TraceEvent> original = TraceBuffer::Global().Snapshot();
  std::string dump = TraceBuffer::Global().DumpJsonLines();

  std::vector<TraceEvent> parsed;
  ASSERT_TRUE(ParseTraceJsonLines(dump, &parsed));
  ASSERT_EQ(parsed.size(), original.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].name, original[i].name);
    EXPECT_EQ(parsed[i].trace_id, original[i].trace_id);
    EXPECT_EQ(parsed[i].span_id, original[i].span_id);
    EXPECT_EQ(parsed[i].parent_id, original[i].parent_id);
    EXPECT_EQ(parsed[i].duration_us, original[i].duration_us);
  }
  // The structured field survives the round trip.
  ASSERT_EQ(parsed[1].fields.size(), 1u);
  EXPECT_EQ(parsed[1].fields[0].first, "rows");
  EXPECT_EQ(parsed[1].fields[0].second, 7);

  // The tree renders parents above indented children.
  std::string tree = RenderTraceTree(parsed);
  size_t outer_pos = tree.find("outer");
  size_t inner_pos = tree.find("inner");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);
  EXPECT_NE(tree.find("trace "), std::string::npos);

  // Garbage input parses nothing.
  std::vector<TraceEvent> none;
  EXPECT_FALSE(ParseTraceJsonLines("not a trace\nstill not\n", &none));
  EXPECT_TRUE(none.empty());
}

TEST_F(ObsTest, ParseTraceJsonLinesSkipsMalformedLinesAndKeepsTheRest) {
  // A trace file truncated mid-write or hand-edited must degrade to
  // skip-and-report: every parseable line survives, no crash, no wedge.
  const std::string text =
      "{\"name\":\"good\",\"trace\":1,\"span\":2,\"parent\":0,"
      "\"start_us\":10,\"dur_us\":5}\n"
      "this line is garbage\n"
      "{\"no_name_key\":1,\"trace\":1,\"span\":9}\n"
      "{\"name\":\"truncated\",\"trace\":1,\"span\":3,\"par\n"
      "{\"name\":\"also_good\",\"trace\":1,\"span\":4,\"parent\":2,"
      "\"start_us\":12,\"dur_us\":1}\n";
  std::vector<TraceEvent> events;
  ASSERT_TRUE(ParseTraceJsonLines(text, &events));
  // The garbage line and the name-less object are dropped; the truncated
  // line still carries a complete name field so it parses with what it has.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "good");
  EXPECT_EQ(events[1].name, "truncated");
  EXPECT_EQ(events[1].parent_id, 0u);  // the torn key is ignored
  EXPECT_EQ(events[2].name, "also_good");
  // The surviving events still render.
  std::string tree = RenderTraceTree(events);
  EXPECT_NE(tree.find("good"), std::string::npos);
  EXPECT_NE(tree.find("also_good"), std::string::npos);
}

TEST_F(ObsTest, ParseTraceJsonLinesMissingIdsRenderAsUntraced) {
  const std::string text =
      "{\"name\":\"orphan\",\"dur_us\":3}\n"
      "{\"name\":\"rooted\",\"trace\":5,\"span\":6,\"dur_us\":4}\n";
  std::vector<TraceEvent> events;
  ASSERT_TRUE(ParseTraceJsonLines(text, &events));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, 0u);
  std::string tree = RenderTraceTree(events);
  EXPECT_NE(tree.find("(untraced)"), std::string::npos);
  EXPECT_NE(tree.find("orphan"), std::string::npos);
  EXPECT_NE(tree.find("trace 5"), std::string::npos);
}

TEST_F(ObsTest, RenderTraceTreeSurvivesDuplicateSpanIdsAndParentCycles) {
  // Duplicate span ids can make an event its own ancestor; the renderer
  // must terminate (each event renders at most once) instead of recursing
  // forever. Regression test for the cycle guard in RenderTraceTree.
  const std::string text =
      "{\"name\":\"root\",\"trace\":1,\"span\":5,\"parent\":0,"
      "\"start_us\":1,\"dur_us\":9}\n"
      "{\"name\":\"self_child\",\"trace\":1,\"span\":5,\"parent\":5,"
      "\"start_us\":2,\"dur_us\":1}\n"
      "{\"name\":\"mutual_a\",\"trace\":2,\"span\":7,\"parent\":8,"
      "\"start_us\":3,\"dur_us\":1}\n"
      "{\"name\":\"mutual_b\",\"trace\":2,\"span\":8,\"parent\":7,"
      "\"start_us\":4,\"dur_us\":1}\n";
  std::vector<TraceEvent> events;
  ASSERT_TRUE(ParseTraceJsonLines(text, &events));
  ASSERT_EQ(events.size(), 4u);
  std::string tree = RenderTraceTree(events);  // must return, not recurse
  EXPECT_NE(tree.find("root"), std::string::npos);
  // Each event appears at most once.
  size_t first = tree.find("self_child");
  if (first != std::string::npos) {
    EXPECT_EQ(tree.find("self_child", first + 1), std::string::npos);
  }
}

TEST_F(ObsTest, BuildInfoAndUptimeGaugesAreExposed) {
  std::string text = MetricsRegistry::Global().RenderText();
  // dwred_build_info carries its labels in the text exposition and is always
  // 1 (re-asserted at render time, so ResetAllForTest cannot zero it away).
  EXPECT_NE(text.find("dwred_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find("build_type=\""), std::string::npos);
  EXPECT_NE(text.find("compiler=\""), std::string::npos);
  std::map<std::string, std::string> samples = ParseExposition(text);
  bool saw_build_info = false;
  for (const auto& [key, value] : samples) {
    if (key.rfind("dwred_build_info{", 0) == 0) {
      saw_build_info = true;
      EXPECT_EQ(value, "1");
    }
  }
  EXPECT_TRUE(saw_build_info);
  ASSERT_TRUE(samples.count("dwred_uptime_seconds"));
  EXPECT_GE(std::stoll(samples.at("dwred_uptime_seconds")), 0);
  // JSON keys stay label-free.
  std::string json = MetricsRegistry::Global().RenderJson();
  EXPECT_NE(json.find("\"dwred_build_info\""), std::string::npos);
  EXPECT_NE(json.find("\"dwred_uptime_seconds\""), std::string::npos);
}

TEST_F(ObsTest, ConstLabelsRenderInTextExpositionOnly) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("test_labeled_total").Increment(2);
  reg.SetConstLabels("test_labeled_total", "shard=\"a\"");
  std::string text = reg.RenderText();
  EXPECT_NE(text.find("test_labeled_total{shard=\"a\"} 2"), std::string::npos);
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"test_labeled_total\":2"), std::string::npos);
}

TEST_F(ObsTest, ResetAllForTestKeepsReferencesValid) {
  Counter& c = MetricsRegistry::Global().GetCounter("test_reset_total");
  c.Increment(5);
  MetricsRegistry::Global().ResetAllForTest();
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();  // the reference must still be live
  EXPECT_EQ(c.Value(), 1u);
}

}  // namespace
}  // namespace dwred::obs
