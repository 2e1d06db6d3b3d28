// Scan-layer tests: plan shapes over the segment manifest, zone-map pruning
// soundness (pruned rows never carry selection weight), metrics, and
// byte-identical selection with and without pruning.

#include "scan/scan.h"

#include <gtest/gtest.h>

#include "chrono/civil.h"
#include "chrono/granule.h"
#include "mdm/paper_example.h"
#include "obs/metrics.h"
#include "query/compare.h"
#include "query/operators.h"
#include "spec/parser.h"

namespace dwred {
namespace {

scan::AtomOracle LiberalOracle(int64_t now_day) {
  return [now_day](const Atom& a, const Dimension& dim, ValueId v) {
    return EvalQueryAtomOnValue(a, dim, v, now_day,
                                SelectionApproach::kLiberal);
  };
}

TEST(ScanPlanTest, PlanMoScanCoversRangeAscending) {
  scan::ScanPlan plan = scan::PlanMoScan(10'000, /*grain=*/512);
  ASSERT_FALSE(plan.units.empty());
  size_t expect_begin = 0;
  for (const exec::Shard& u : plan.units) {
    EXPECT_EQ(u.begin, expect_begin);
    EXPECT_LT(u.begin, u.end);
    expect_begin = u.end;
  }
  EXPECT_EQ(expect_begin, 10'000u);
  EXPECT_EQ(plan.segments_pruned, 0u);

  EXPECT_TRUE(scan::PlanMoScan(0, 512).units.empty());
}

TEST(ScanPlanTest, AllSpecKeepsEverySegment) {
  FactTable t(1, 1, /*segment_rows=*/4);
  for (int i = 0; i < 10; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    t.Append(c, m);
  }
  scan::ScanPlan plan = scan::PlanTableScan(t, scan::ScanSpec::All());
  EXPECT_EQ(plan.units.size(), t.num_segments());
  EXPECT_EQ(plan.segments_total, t.num_segments());
  EXPECT_EQ(plan.segments_pruned, 0u);
  EXPECT_EQ(plan.rows_skipped, 0u);
  size_t rows = 0;
  for (const exec::Shard& u : plan.units) rows += u.end - u.begin;
  EXPECT_EQ(rows, 10u);
}

TEST(ScanPlanTest, FalsePredicatePrunesEverything) {
  IspExample ex = MakeIspExample();
  FactTable t(2, 4, /*segment_rows=*/2);
  ASSERT_TRUE(t.AppendFrom(*ex.mo).ok());
  ASSERT_GT(t.num_segments(), 1u);

  int64_t now = DaysFromCivil({2000, 7, 1});
  scan::ScanSpec spec =
      scan::ScanSpec::Compile(*ex.mo, *PredExpr::False(), now,
                              LiberalOracle(now));
  EXPECT_TRUE(spec.match_none());
  scan::ScanPlan plan = scan::PlanTableScan(t, spec);
  EXPECT_TRUE(plan.units.empty());
  EXPECT_EQ(plan.segments_pruned, t.num_segments());
  EXPECT_EQ(plan.rows_skipped, t.num_rows());
}

TEST(ScanPlanTest, TruePredicateCompilesToFullScan) {
  IspExample ex = MakeIspExample();
  int64_t now = DaysFromCivil({2000, 7, 1});
  scan::ScanSpec spec = scan::ScanSpec::Compile(
      *ex.mo, *PredExpr::True(), now, LiberalOracle(now));
  EXPECT_TRUE(spec.unconstrained());
}

/// A table whose time coordinates ascend chronologically (day ids intern in
/// encounter order, so chronological insertion gives the zone maps real
/// locality — docs/STORAGE.md).
struct ChronoTable {
  IspExample ex = MakeIspExample();
  FactTable t{2, 4, /*segment_rows=*/32};
  int64_t now = 0;

  ChronoTable() {
    auto time = ex.mo->dimension(ex.time_dim);
    int64_t start = DaysFromCivil({2000, 1, 1});
    for (int i = 0; i < 320; ++i) {
      ValueId day = time->EnsureTimeValue(DayGranule(start + i)).take();
      std::vector<ValueId> c = {day, i % 2 ? ex.url_cnn : ex.url_gatech};
      std::vector<int64_t> m = {1, i, 2 * i, 3};
      t.Append(c, m);
    }
    now = start + 320;
  }
};

/// σ[pred] over the plan's rows straight off the table, with no compiled
/// program: the interpreter-fallback shape of the pruned query path.
SelectionResult PrunedSelect(const ChronoTable& ct, const scan::ScanPlan& plan,
                             const PredExpr& pred) {
  return SelectFromScan(ct.t, plan, &pred, ct.now,
                        SelectionApproach::kConservative, "Click",
                        ct.ex.mo->dimensions(),
                        std::vector<MeasureType>(ct.ex.mo->measure_types()),
                        /*compiled=*/nullptr)
      .take();
}

TEST(ScanPlanTest, ZoneMapsPruneOutOfWindowSegments) {
  ChronoTable ct;
  // Keep roughly the first half of the year: later segments hold only
  // later days and must be pruned via their time zone maps.
  auto pred = ParsePredicate(*ct.ex.mo, "Time.day <= 2000/5/31").take();
  scan::ScanSpec spec =
      scan::ScanSpec::Compile(*ct.ex.mo, *pred, ct.now, LiberalOracle(ct.now));
  EXPECT_FALSE(spec.unconstrained());

  double pruned_before = obs::MetricsRegistry::Global()
                             .GetCounter("dwred_scan_segments_pruned", "")
                             .Value();
  scan::ScanPlan plan = scan::PlanTableScan(ct.t, spec);
  EXPECT_GT(plan.segments_pruned, 0u);
  EXPECT_GT(plan.rows_skipped, 0u);
  EXPECT_LT(plan.units.size(), ct.t.num_segments());
  double pruned_after = obs::MetricsRegistry::Global()
                            .GetCounter("dwred_scan_segments_pruned", "")
                            .Value();
  EXPECT_EQ(pruned_after - pruned_before,
            static_cast<double>(plan.segments_pruned));

  // Soundness: every row *outside* the plan has selection weight 0 (under
  // the most permissive approach), so no pruned row could have been
  // selected.
  MultidimensionalObject full =
      ct.t.ToMO("Click", ct.ex.mo->dimensions(),
                std::vector<MeasureType>(ct.ex.mo->measure_types()));
  std::vector<bool> planned(ct.t.num_rows(), false);
  for (const exec::Shard& u : plan.units) {
    for (size_t r = u.begin; r < u.end; ++r) planned[r] = true;
  }
  for (FactId f = 0; f < full.num_facts(); ++f) {
    if (planned[f]) continue;
    EXPECT_EQ(EvalQueryPredOnFact(*pred, full, f, ct.now,
                                  SelectionApproach::kLiberal),
              0.0)
        << "pruned row " << f << " is selectable";
  }
}

TEST(ScanPlanTest, PrunedMaterializationMatchesFullSelect) {
  ChronoTable ct;
  // Exercise AND/OR/NOT and both dimensions; NOT compiles through the DNF's
  // operator negation, where unsound pruning would show up immediately.
  const char* preds[] = {
      "Time.day <= 2000/5/31",
      "2000/3/1 <= Time.day <= 2000/4/30 AND URL.domain_grp = .com",
      "NOT (Time.day <= 2000/8/31)",
      "URL.domain_grp = .edu OR Time.day >= 2000/10/1",
      "NOT (URL.domain = cnn.com OR Time.day < 2000/6/1)",
  };
  std::vector<MeasureType> measures(ct.ex.mo->measure_types());
  for (const char* text : preds) {
    auto pred = ParsePredicate(*ct.ex.mo, text).take();
    MultidimensionalObject full =
        ct.t.ToMO("Click", ct.ex.mo->dimensions(), measures);
    SelectionResult want =
        Select(full, *pred, ct.now, SelectionApproach::kConservative).take();

    scan::ScanSpec spec = scan::ScanSpec::Compile(*ct.ex.mo, *pred, ct.now,
                                                  LiberalOracle(ct.now));
    scan::ScanPlan plan = scan::PlanTableScan(ct.t, spec);
    SelectionResult got = PrunedSelect(ct, plan, *pred);

    ASSERT_EQ(got.mo.num_facts(), want.mo.num_facts()) << text;
    for (FactId f = 0; f < want.mo.num_facts(); ++f) {
      EXPECT_EQ(got.mo.FormatFact(f), want.mo.FormatFact(f)) << text;
    }
  }
}

/// Formats the day `start + offset` as predicate-literal text (y/m/d).
std::string DayLiteral(int64_t start, int64_t offset) {
  CivilDate c = CivilFromDays(start + offset);
  return std::to_string(c.year) + "/" + std::to_string(c.month) + "/" +
         std::to_string(c.day);
}

// Zone-map staleness audit (lightly-tombstoned segments): tombstoning the
// zone-extremal rows of a segment *below* the 25% compaction threshold takes
// the deferred path — no rewrite, no drop — yet the segment's zones must
// shrink to the live rows, so a predicate matching only the tombstoned
// extremes prunes the segment soundly and pruned materialization stays
// byte-identical to the full scan.
TEST(ScanPlanTest, TombstonedZoneExtremesStaySound) {
  ChronoTable ct;
  int64_t start = DaysFromCivil({2000, 1, 1});
  ASSERT_EQ(ct.t.num_segments(), 10u);  // 320 rows / 32 per segment

  // Segment 3 covers days start+96 .. start+127. Tombstone its zone-extremal
  // rows on the time dimension: the 2 earliest and the 5 latest days —
  // 7/32 = 21.9%, below kCompactTombstoneRatio.
  std::vector<bool> erase(ct.t.num_rows(), false);
  for (RowId r : {96, 97, 123, 124, 125, 126, 127}) erase[r] = true;
  ASSERT_TRUE(ct.t.EraseRows(erase).ok());

  // Deferred path: same segment count, same physical rows, 7 tombstones.
  ASSERT_EQ(ct.t.num_segments(), 10u);
  EXPECT_EQ(ct.t.SegmentPhysicalRows(3), 32u);
  EXPECT_EQ(ct.t.SegmentTombstones(3), 7u);
  EXPECT_EQ(ct.t.SegmentLiveRows(3), 25u);

  // The time zones must have shrunk to the surviving rows (day ids intern in
  // chronological order, so zone endpoints are the live extreme days).
  auto time = ct.ex.mo->dimension(ct.ex.time_dim);
  ValueId live_min = time->EnsureTimeValue(DayGranule(start + 98)).take();
  ValueId live_max = time->EnsureTimeValue(DayGranule(start + 122)).take();
  EXPECT_EQ(ct.t.SegmentDimMin(3, 0), live_min);
  EXPECT_EQ(ct.t.SegmentDimMax(3, 0), live_max);

  std::vector<MeasureType> measures(ct.ex.mo->measure_types());
  auto check_byte_identical = [&](const std::string& text,
                                  size_t* facts_out) {
    auto pred = ParsePredicate(*ct.ex.mo, text).take();
    MultidimensionalObject full =
        ct.t.ToMO("Click", ct.ex.mo->dimensions(), measures);
    SelectionResult want =
        Select(full, *pred, ct.now, SelectionApproach::kConservative).take();
    scan::ScanSpec spec = scan::ScanSpec::Compile(*ct.ex.mo, *pred, ct.now,
                                                  LiberalOracle(ct.now));
    scan::ScanPlan plan = scan::PlanTableScan(ct.t, spec);
    SelectionResult got = PrunedSelect(ct, plan, *pred);
    EXPECT_EQ(got.mo.num_facts(), want.mo.num_facts()) << text;
    if (got.mo.num_facts() == want.mo.num_facts()) {
      for (FactId f = 0; f < want.mo.num_facts(); ++f) {
        EXPECT_EQ(got.mo.FormatFact(f), want.mo.FormatFact(f)) << text;
      }
    }
    if (facts_out) *facts_out = want.mo.num_facts();
    return plan;
  };

  // A window covering only the tombstoned latest days of segment 3: every
  // matching row is dead, so the result must be empty and pruning must stay
  // sound. Two segments survive pruning — the liberal oracle also admits
  // week/month parent values whose interleaved ValueIds fall inside their
  // zone ranges — but the scanned segments expose live rows only, so nothing
  // leaks.
  {
    size_t facts = ~0u;
    std::string text = DayLiteral(start, 123) + " <= Time.day AND Time.day <= " +
                       DayLiteral(start, 127);
    scan::ScanPlan plan = check_byte_identical(text, &facts);
    EXPECT_EQ(facts, 0u) << "tombstoned rows leaked into the result";
    EXPECT_GE(plan.segments_pruned, ct.t.num_segments() - 2);
  }

  // Same for the tombstoned earliest days. Here the zone shrink shows up
  // directly: segment 3's recomputed dmin rose past the erased days' ids, so
  // the segment whose only matching rows were tombstoned is itself pruned
  // (only segment 2 survives, via liberal parent-value ids in its zone).
  {
    size_t facts = ~0u;
    std::string text = DayLiteral(start, 96) + " <= Time.day AND Time.day <= " +
                       DayLiteral(start, 97);
    scan::ScanPlan plan = check_byte_identical(text, &facts);
    EXPECT_EQ(facts, 0u);
    EXPECT_EQ(plan.segments_pruned, ct.t.num_segments() - 1);
    ASSERT_EQ(plan.units.size(), 1u);
    EXPECT_LE(plan.units[0].end, static_cast<size_t>(ct.t.SegmentBegin(3)))
        << "the tombstoned-extreme segment was scanned despite its shrunk zone";
  }

  // A window straddling live rows of segment 3 and the tombstoned boundary:
  // the segment must survive pruning and materialize exactly the live rows.
  {
    size_t facts = 0;
    std::string text = DayLiteral(start, 120) + " <= Time.day AND Time.day <= " +
                       DayLiteral(start, 130);
    check_byte_identical(text, &facts);
    // Live matches: days 120..122 (seg 3) and 128..130 (seg 4).
    EXPECT_EQ(facts, 6u);
  }
}

TEST(ScanPlanTest, PrunedSelectKeepsLogicalFactNames) {
  ChronoTable ct;
  auto pred = ParsePredicate(*ct.ex.mo, "Time.day >= 2000/10/1").take();
  scan::ScanSpec spec = scan::ScanSpec::Compile(*ct.ex.mo, *pred, ct.now,
                                                LiberalOracle(ct.now));
  scan::ScanPlan plan = scan::PlanTableScan(ct.t, spec);
  ASSERT_GT(plan.segments_pruned, 0u);
  SelectionResult got = PrunedSelect(ct, plan, *pred);
  // Each selected fact keeps its full-scan name "fact_<logical row>", and
  // the surviving names are exactly the full Select's.
  std::vector<MeasureType> measures(ct.ex.mo->measure_types());
  MultidimensionalObject full =
      ct.t.ToMO("Click", ct.ex.mo->dimensions(), measures);
  SelectionResult want =
      Select(full, *pred, ct.now, SelectionApproach::kConservative).take();
  ASSERT_GT(got.mo.num_facts(), 0u);
  ASSERT_EQ(got.mo.num_facts(), want.mo.num_facts());
  for (FactId f = 0; f < got.mo.num_facts(); ++f) {
    EXPECT_EQ(got.mo.FactName(f), want.mo.FactName(f));
    EXPECT_EQ(got.mo.FactName(f).rfind("fact_", 0), 0u);
  }
}

// ApproxBytes must count what the allocator actually holds — the struct
// header and every vector level at *capacity* — not just the allowed-value
// payload. The old size-only count reported 0 for All() and undercharged the
// 64 MiB cache budget for every compiled spec.
TEST(ScanSpecBytesTest, ApproxBytesCountsHeadersAndCapacity) {
  EXPECT_EQ(scan::ScanSpec::All().ApproxBytes(), sizeof(scan::ScanSpec));

  ChronoTable ct;
  auto pred = ParsePredicate(*ct.ex.mo, "Time.day <= 2000/5/31").take();
  scan::ScanSpec spec =
      scan::ScanSpec::Compile(*ct.ex.mo, *pred, ct.now, LiberalOracle(ct.now));
  ASSERT_FALSE(spec.unconstrained());
  ASSERT_FALSE(spec.match_none());

  // Count the allowed values the compiler must have enumerated for the one
  // time filter — the same liberal probe Compile performs.
  ASSERT_EQ(pred->kind, PredExpr::Kind::kAtom);
  const Dimension& time = *ct.ex.mo->dimension(pred->atom.dim);
  size_t allowed = 0;
  for (ValueId v = 0; v < time.num_values(); ++v) {
    if (EvalQueryAtomOnValue(pred->atom, time, v, ct.now,
                             SelectionApproach::kLiberal) > 0.0) {
      ++allowed;
    }
  }
  ASSERT_GT(allowed, 0u);

  // Header plus at least the payload: capacity >= size on every level.
  EXPECT_GE(spec.ApproxBytes(),
            sizeof(scan::ScanSpec) + allowed * sizeof(ValueId));
  EXPECT_GT(spec.ApproxBytes(), scan::ScanSpec::All().ApproxBytes());
}

// Compile's fallback edges. Each rejection must degrade to a *sound* spec —
// unconstrained (scan everything) or match_none (scan nothing) — and pruned
// materialization + selection must stay byte-identical to the full scan.
TEST(ScanPlanTest, CompileFallbackEdgesStaySound) {
  ChronoTable ct;
  std::vector<MeasureType> measures(ct.ex.mo->measure_types());

  auto expect_byte_identical = [&](const PredExpr& pred,
                                   const scan::ScanSpec& spec) {
    MultidimensionalObject full =
        ct.t.ToMO("Click", ct.ex.mo->dimensions(), measures);
    SelectionResult want =
        Select(full, pred, ct.now, SelectionApproach::kConservative).take();
    scan::ScanPlan plan = scan::PlanTableScan(ct.t, spec);
    SelectionResult got = PrunedSelect(ct, plan, pred);
    ASSERT_EQ(got.mo.num_facts(), want.mo.num_facts());
    for (FactId f = 0; f < want.mo.num_facts(); ++f) {
      EXPECT_EQ(got.mo.FormatFact(f), want.mo.FormatFact(f));
    }
  };

  // 1. Conjunct explosion: AND of 13 two-way ORs distributes to 2^13 = 8192
  //    DNF conjuncts, past CompileToDnf's 4096 cap — the spec degrades to
  //    unconstrained, never an error.
  {
    auto a = ParsePredicate(*ct.ex.mo, "Time.day = 2000/1/5").take();
    auto b = ParsePredicate(*ct.ex.mo, "Time.day = 2000/2/7").take();
    std::vector<std::shared_ptr<PredExpr>> clauses;
    for (int i = 0; i < 13; ++i) clauses.push_back(PredExpr::Or({a, b}));
    auto exploded = PredExpr::And(std::move(clauses));
    scan::ScanSpec spec = scan::ScanSpec::Compile(*ct.ex.mo, *exploded, ct.now,
                                                  LiberalOracle(ct.now));
    EXPECT_TRUE(spec.unconstrained());
    EXPECT_FALSE(spec.match_none());
    scan::ScanPlan plan = scan::PlanTableScan(ct.t, spec);
    EXPECT_EQ(plan.segments_pruned, 0u);
    expect_byte_identical(*exploded, spec);
  }

  // 2. match_none short-circuit: a contradictory conjunct — the two
  //    required days lie in different years, so their allowed sets (each day
  //    plus its interned calendar ancestors) share no value and intersect to
  //    empty — prunes everything, and the selection result is identically
  //    empty.
  {
    auto pred = ParsePredicate(
                    *ct.ex.mo, "Time.day = 2000/1/5 AND Time.day = 2001/3/7")
                    .take();
    scan::ScanSpec spec = scan::ScanSpec::Compile(*ct.ex.mo, *pred, ct.now,
                                                  LiberalOracle(ct.now));
    EXPECT_TRUE(spec.match_none());
    EXPECT_FALSE(spec.unconstrained());
    scan::ScanPlan plan = scan::PlanTableScan(ct.t, spec);
    EXPECT_TRUE(plan.units.empty());
    EXPECT_EQ(plan.segments_pruned, ct.t.num_segments());
    expect_byte_identical(*pred, spec);
  }
  // 3. Too-large dimension (kept last: it grows the shared time dimension
  //    past the cap for good): once the time dimension's extent exceeds the
  //    enumeration cap, its atoms are left unconstrained (building the
  //    allowed set is linear in the extent) and the whole spec degrades to a
  //    full scan.
  {
    auto time = ct.ex.mo->dimension(ct.ex.time_dim);
    int64_t start = DaysFromCivil({2000, 1, 1});
    for (int64_t i = time->num_values();
         static_cast<size_t>(i) <= (1u << 16); ++i) {
      ASSERT_TRUE(time->EnsureTimeValue(DayGranule(start + 400 + i)).ok());
    }
    ASSERT_GT(time->num_values(), 1u << 16);
    auto pred = ParsePredicate(*ct.ex.mo, "Time.day <= 2000/5/31").take();
    scan::ScanSpec spec = scan::ScanSpec::Compile(*ct.ex.mo, *pred, ct.now,
                                                  LiberalOracle(ct.now));
    EXPECT_TRUE(spec.unconstrained());
    scan::ScanPlan plan = scan::PlanTableScan(ct.t, spec);
    EXPECT_EQ(plan.segments_pruned, 0u);
    expect_byte_identical(*pred, spec);
  }

}

}  // namespace
}  // namespace dwred
