// Seeded inputs (the click history, writer batches, query streams) and the
// in-process twin booted from the same snapshot bytes as the daemon.

#include "chrono/civil.h"
#include "common/check.h"
#include "common/rng.h"
#include "e2e.h"
#include "io/snapshot.h"
#include "spec/parser.h"
#include "workload/clickstream.h"

namespace dwred::e2e {

const char* const kTierTexts[3] = {
    "a[Time.month, URL.domain] s["
    "NOW - 12 months <= Time.month <= NOW - 6 months]",
    "a[Time.quarter, URL.domain] s["
    "NOW - 36 months <= Time.quarter AND Time.quarter <= NOW - 12 months]",
    "a[Time.year, URL.domain_grp] s[Time.year <= NOW - 36 months]",
};

int64_t MonthStart(int index) {
  return DaysFromCivil({2000 + index / 12, index % 12 + 1, 1});
}

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  SplitMix64 rng(seed ^ (stream * 0x9E3779B97F4A7C15ull) ^
                 (index * 0xD1B54A32D192ED03ull));
  return rng.Next();
}

ClickSource MakeClickSource() {
  ClickstreamConfig cfg;
  cfg.num_domains = 200;
  cfg.urls_per_domain = 20;
  cfg.num_clicks = 0;
  cfg.start = {2000, 1, 1};
  cfg.span_days = 1;
  ClickstreamWorkload w = MakeClickstream(cfg);
  return {w.time_dim, w.url_dim};
}

MultidimensionalObject MonthClicks(const ClickSource& src, int index,
                                   size_t clicks, uint64_t seed) {
  return MakeClickBatch(src.time_dim, src.url_dim, MonthStart(index),
                        MonthStart(index + 1) - 1, clicks, seed);
}

std::vector<MultidimensionalObject> WeeklyClicks(const ClickSource& src,
                                                 int index, size_t clicks,
                                                 uint64_t seed) {
  // Days 1-7, 8-14, 15-21 and 22 to the month's end, each batch holding
  // its days' share of the month's clicks.
  const int64_t first = MonthStart(index);
  const int64_t end = MonthStart(index + 1);
  const int64_t days = end - first;
  std::vector<MultidimensionalObject> out;
  size_t given = 0;
  for (int64_t w = 0; w < 4; ++w) {
    const int64_t from = first + 7 * w;
    const int64_t to = w == 3 ? end : from + 7;
    const size_t upto = clicks * static_cast<size_t>(to - first) / static_cast<size_t>(days);
    out.push_back(MakeClickBatch(src.time_dim, src.url_dim, from, to - 1, upto - given,
                                 SubSeed(seed, 7, static_cast<uint64_t>(w))));
    given = upto;
  }
  return out;
}

History MakeHistory(uint64_t seed, int months, size_t clicks_per_month) {
  ClickSource src = MakeClickSource();
  std::unique_ptr<MultidimensionalObject> mo;
  for (int m = 0; m < months; ++m) {
    MultidimensionalObject batch =
        MonthClicks(src, m, clicks_per_month, SubSeed(seed, 1, m));
    if (!mo) {
      mo = std::make_unique<MultidimensionalObject>(
          batch.fact_type(), batch.dimensions(), batch.measure_types());
    }
    for (FactId f = 0; f < batch.num_facts(); ++f) {
      (void)mo->AppendFactUnchecked(batch.FactCoords(f),
                                    batch.FactMeasures(f));
    }
  }
  History h;
  for (int i = 0; i < 3; ++i) {
    auto action = ParseAction(*mo, kTierTexts[i], "tier" + std::to_string(i + 1));
    DWRED_CHECK_MSG(action.ok(), action.status().ToString().c_str());
    h.spec.Add(action.take());
  }
  h.mo = std::move(mo);
  h.sync_day = MonthStart(months);
  return h;
}

namespace {

const char* const kGroups[4] = {".com", ".edu", ".org", ".net"};

net::Request MakeQuery(int64_t now_day, bool synchronized, std::string pred,
                       std::string gran) {
  net::Request req;
  req.cmd = net::Command::kQuery;
  req.now_day = now_day;
  req.flags = net::kQueryParallel;
  if (synchronized) req.flags |= net::kQuerySynchronized;
  req.a = std::move(pred);
  req.b = std::move(gran);
  return req;
}

}  // namespace

std::vector<net::Request> DashboardQueries(int64_t now_day) {
  // Recent detail by domain, two years by month, three years by quarter,
  // everything by year.
  static const char* const kShapes[4][2] = {
      {" AND NOW - 6 months <= Time.month", "Time.month, URL.domain"},
      {" AND NOW - 24 months <= Time.month", "Time.month, URL.domain_grp"},
      {" AND NOW - 36 months <= Time.quarter", "Time.quarter, URL.domain_grp"},
      {"", "Time.year, URL.domain_grp"},
  };
  std::vector<net::Request> out;
  for (const char* group : kGroups) {
    for (const auto& shape : kShapes) {
      out.push_back(MakeQuery(now_day, true,
                              std::string("URL.domain_grp = ") + group + shape[0],
                              shape[1]));
    }
  }
  return out;
}

std::vector<uint32_t> SeededPermutation(size_t n, uint64_t seed) {
  std::vector<uint32_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint32_t>(i);
  SplitMix64 rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.Below(i)]);
  return p;
}

std::vector<net::Request> AdhocStream(uint64_t seed, int64_t sync_day) {
  static const char* const kWindows[3] = {
      "NOW - 3 months <= Time.month", "NOW - 12 months <= Time.month",
      "NOW - 30 months <= Time.month"};
  static const char* const kGrans[3] = {"Time.month, URL.domain_grp",
                                        "Time.quarter, URL.domain_grp",
                                        "Time.quarter, URL.domain"};
  constexpr size_t kDays = 184;
  constexpr size_t kShapes = 4 * 3 * 3;  // group x window x granularity
  // Each class (synchronized, unsynchronized) walks the 36 shapes in one
  // seeded order and the 184 days in another. Every stretch of the stream
  // then mixes shapes in the same proportions whatever the seed, and a
  // (day, shape) key recurs only every lcm(184, 36) = 1656 requests of its
  // class, far beyond the 256-entry cache. Both classes come back to their
  // first key after 9 x 1656 + 1656 = kAdhocPeriod requests.
  static_assert(kAdhocPeriod == 10 * kDays * kShapes / 4);
  std::vector<uint32_t> days[2], shapes[2];
  for (uint64_t cls = 0; cls < 2; ++cls) {
    days[cls] = SeededPermutation(kDays, SubSeed(seed, 3, cls));
    shapes[cls] = SeededPermutation(kShapes, SubSeed(seed, 8, cls));
  }
  size_t next[2] = {0, 0};
  std::vector<net::Request> out;
  out.reserve(kAdhocPeriod);
  for (size_t i = 0; i < kAdhocPeriod; ++i) {
    // Every tenth request takes the unsynchronized (Figure 9) path.
    const size_t cls = i % 10 == 9 ? 1 : 0;
    const size_t j = next[cls]++;
    const int64_t day = sync_day + days[cls][j % kDays];
    const uint32_t shape = shapes[cls][j % kShapes];
    out.push_back(MakeQuery(day, cls == 0,
                            std::string("URL.domain_grp = ") + kGroups[shape / 9] +
                                " AND " + kWindows[(shape / 3) % 3],
                            kGrans[shape % 3]));
  }
  return out;
}

Result<Twin> BootTwin(const std::string& snapshot, int64_t sync_day) {
  DWRED_ASSIGN_OR_RETURN(LoadedWarehouse loaded, LoadWarehouse(snapshot));
  DWRED_ASSIGN_OR_RETURN(
      SubcubeManager mgr,
      SubcubeManager::Create(loaded.mo->fact_type(), loaded.mo->dimensions(),
                             loaded.mo->measure_types(), loaded.spec));
  Twin twin;
  twin.mgr = std::make_unique<SubcubeManager>(std::move(mgr));
  DWRED_RETURN_IF_ERROR(twin.mgr->InsertBottomFacts(*loaded.mo));
  DWRED_RETURN_IF_ERROR(twin.mgr->Synchronize(sync_day).status());
  twin.oracle = std::make_unique<net::Server>(net::ServerConfig{}, twin.mgr.get());
  return twin;
}

}  // namespace dwred::e2e
