// Subcube-engine tests (paper Section 7): layout construction (Figure 6),
// parent/child data flow and synchronization (Figure 7), per-subcube query
// evaluation with the final combining aggregation (Figure 8), and the
// un-synchronized query rewrite (Figure 9).

#include "subcube/manager.h"

#include <gtest/gtest.h>

#include <map>

#include "mdm/paper_example.h"
#include "paper_actions.h"
#include "spec/parser.h"

namespace dwred {
namespace {

class SubcubeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.Add(ParseAction(*ex_.mo, paper::kA1, "a1").take());
    spec_.Add(ParseAction(*ex_.mo, paper::kA2, "a2").take());
    auto m = SubcubeManager::Create(
        "Click", ex_.mo->dimensions(),
        {ex_.mo->measure_type(0), ex_.mo->measure_type(1),
         ex_.mo->measure_type(2), ex_.mo->measure_type(3)},
        spec_);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    mgr_ = std::make_unique<SubcubeManager>(m.take());
  }

  static std::map<std::string, std::vector<int64_t>> Snapshot(
      const MultidimensionalObject& mo) {
    std::map<std::string, std::vector<int64_t>> out;
    for (FactId f = 0; f < mo.num_facts(); ++f) {
      std::string key;
      for (size_t d = 0; d < mo.num_dimensions(); ++d) {
        if (d) key += "|";
        key += mo.dimension(static_cast<DimensionId>(d))
                   ->value_name(mo.Coord(f, static_cast<DimensionId>(d)));
      }
      std::vector<int64_t> meas;
      for (size_t m = 0; m < mo.num_measures(); ++m) {
        meas.push_back(mo.Measure(f, static_cast<MeasureId>(m)));
      }
      out[key] = meas;
    }
    return out;
  }

  IspExample ex_ = MakeIspExample();
  ReductionSpecification spec_;
  std::unique_ptr<SubcubeManager> mgr_;
};

TEST_F(SubcubeTest, LayoutHasBottomPlusOneCubePerGranularity) {
  // K0 bottom (day, url), K1 (month, domain) for a1, K2 (quarter, domain)
  // for a2.
  ASSERT_EQ(mgr_->num_subcubes(), 3u);
  EXPECT_EQ(mgr_->subcube(0).granularity[0],
            static_cast<CategoryId>(TimeUnit::kDay));
  EXPECT_EQ(mgr_->subcube(1).granularity[0],
            static_cast<CategoryId>(TimeUnit::kMonth));
  EXPECT_EQ(mgr_->subcube(2).granularity[0],
            static_cast<CategoryId>(TimeUnit::kQuarter));
  // Data flows K0 -> K1 -> K2: immediate parents.
  EXPECT_TRUE(mgr_->subcube(0).parents.empty());
  EXPECT_EQ(mgr_->subcube(1).parents, (std::vector<size_t>{0}));
  EXPECT_EQ(mgr_->subcube(2).parents, (std::vector<size_t>{1}));
}

TEST_F(SubcubeTest, InsertRequiresBottomGranularity) {
  ASSERT_TRUE(mgr_->InsertBottomFacts(*ex_.mo).ok());
  EXPECT_EQ(mgr_->subcube(0).table.num_rows(), 7u);
  // A month-granularity fact is rejected at the door.
  MultidimensionalObject bad("Click", ex_.mo->dimensions(),
                             std::vector<MeasureType>(
                                 ex_.mo->measure_types()));
  auto time = ex_.mo->dimension(ex_.time_dim);
  ValueId month = time->FindTimeValue(MonthGranule(1999, 12));
  ASSERT_NE(month, kInvalidValue);
  std::vector<ValueId> coords = {month, ex_.url_cnn};
  std::vector<int64_t> meas = {1, 1, 1, 1};
  ASSERT_TRUE(bad.AddFact(coords, meas).ok());
  EXPECT_FALSE(mgr_->InsertBottomFacts(bad).ok());
}

TEST_F(SubcubeTest, SynchronizationFollowsFigure3Timeline) {
  ASSERT_TRUE(mgr_->InsertBottomFacts(*ex_.mo).ok());

  // 2000/4/5: nothing satisfies any action.
  auto m1 = mgr_->Synchronize(DaysFromCivil({2000, 4, 5}));
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m1.value(), 0u);
  EXPECT_EQ(mgr_->subcube(0).table.num_rows(), 7u);

  // 2000/6/5: facts 0..3 move to K1; fact_1+fact_2 share the cell
  // (1999/12, cnn.com) and compact to one row.
  auto m2 = mgr_->Synchronize(DaysFromCivil({2000, 6, 5}));
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2.value(), 4u);
  EXPECT_EQ(mgr_->subcube(0).table.num_rows(), 3u);
  EXPECT_EQ(mgr_->subcube(1).table.num_rows(), 3u);
  EXPECT_EQ(mgr_->subcube(2).table.num_rows(), 0u);

  // 2000/11/5 (Figure 7's pattern): K1's rows move on to K2 — fact_0 and
  // fact_3 merge at (1999Q4, amazon.com) — and facts 4, 5 move to K1,
  // merging at (2000/1, cnn.com). fact_6 stays in K0.
  auto m3 = mgr_->Synchronize(DaysFromCivil({2000, 11, 5}));
  ASSERT_TRUE(m3.ok());
  EXPECT_EQ(m3.value(), 5u);
  EXPECT_EQ(mgr_->subcube(0).table.num_rows(), 1u);
  EXPECT_EQ(mgr_->subcube(1).table.num_rows(), 1u);
  EXPECT_EQ(mgr_->subcube(2).table.num_rows(), 2u);

  // The whole warehouse equals the Figure 3 bottom snapshot.
  auto all = mgr_->Query(nullptr, nullptr, DaysFromCivil({2000, 11, 5}),
                         /*assume_synchronized=*/true);
  ASSERT_TRUE(all.ok());
  std::map<std::string, std::vector<int64_t>> expected = {
      {"1999Q4|amazon.com", {2, 689, 3, 68}},
      {"1999Q4|cnn.com", {2, 2489, 7, 94}},
      {"2000/1|cnn.com", {2, 955, 10, 99}},
      {"2000/1/20|www.cc.gatech.edu", {1, 32, 1, 12}},
  };
  EXPECT_EQ(Snapshot(all.value()), expected);
}

TEST_F(SubcubeTest, QueryWithFinalCombiningAggregation) {
  // Figure 8's shape: a month/domain_grp aggregation over all subcubes after
  // full synchronization; the two quarter-level rows stay at quarter
  // (availability), the rest combine at month/domain_grp.
  ASSERT_TRUE(mgr_->InsertBottomFacts(*ex_.mo).ok());
  int64_t t = DaysFromCivil({2000, 11, 5});
  ASSERT_TRUE(mgr_->Synchronize(t).ok());

  auto pred = ParsePredicate(mgr_->context(),
                             "1999/6 < Time.month AND Time.month <= 2000/5");
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  auto gran = ParseGranularityList(mgr_->context(),
                                   "Time.month, URL.domain_grp");
  ASSERT_TRUE(gran.ok());

  auto result =
      mgr_->Query(pred.value().get(), &gran.value(), t, /*sync=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Conservative selection drops the quarter rows (their months are not
  // certainly within the range? they are: 1999Q4 drills to months 11, 12 —
  // both inside (1999/6, 2000/5]), so everything qualifies.
  std::map<std::string, std::vector<int64_t>> expected = {
      {"1999Q4|.com", {4, 3178, 10, 162}},   // fact_0312 of Figure 8
      {"2000/1|.com", {2, 955, 10, 99}},     // fact_45
      {"2000/1|.edu", {1, 32, 1, 12}},       // fact_6
  };
  EXPECT_EQ(Snapshot(result.value()), expected);
}

TEST_F(SubcubeTest, UnsynchronizedQueryEqualsSynchronizedResult) {
  // Figure 9's invariant: one level out of sync, the rewritten per-subcube
  // query gives exactly what the synchronized warehouse would.
  ASSERT_TRUE(mgr_->InsertBottomFacts(*ex_.mo).ok());
  ASSERT_TRUE(mgr_->Synchronize(DaysFromCivil({2000, 6, 5})).ok());

  int64_t t = DaysFromCivil({2000, 11, 5});
  // NOT synchronized at t.
  auto unsync = mgr_->Query(nullptr, nullptr, t, /*assume_synchronized=*/false);
  ASSERT_TRUE(unsync.ok()) << unsync.status().ToString();

  ASSERT_TRUE(mgr_->Synchronize(t).ok());
  auto sync = mgr_->Query(nullptr, nullptr, t, /*assume_synchronized=*/true);
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ(Snapshot(unsync.value()), Snapshot(sync.value()));
}

TEST_F(SubcubeTest, UnsyncSubresultsPullFromParents) {
  // Zoom on Figure 9: after syncing at 2000/6/5 and advancing to 2000/11/5,
  // K2's subresult must contain the quarter rows even though they still
  // physically sit in K1.
  ASSERT_TRUE(mgr_->InsertBottomFacts(*ex_.mo).ok());
  ASSERT_TRUE(mgr_->Synchronize(DaysFromCivil({2000, 6, 5})).ok());
  int64_t t = DaysFromCivil({2000, 11, 5});
  auto subs = mgr_->QuerySubresults(nullptr, nullptr, t, false);
  ASSERT_TRUE(subs.ok());
  ASSERT_EQ(subs.value().size(), 3u);
  EXPECT_EQ(subs.value()[2].num_facts(), 2u);  // (1999Q4, amazon), (1999Q4, cnn)
  EXPECT_EQ(subs.value()[1].num_facts(), 1u);  // (2000/1, cnn)
  EXPECT_EQ(subs.value()[0].num_facts(), 1u);  // fact_6
}

TEST_F(SubcubeTest, ChangeSpecificationRedistributesData) {
  ASSERT_TRUE(mgr_->InsertBottomFacts(*ex_.mo).ok());
  int64_t t = DaysFromCivil({2000, 11, 5});
  ASSERT_TRUE(mgr_->Synchronize(t).ok());

  // New spec: only the quarter-level action remains.
  ReductionSpecification new_spec;
  new_spec.Add(ParseAction(*ex_.mo, paper::kA2, "a2").take());
  ASSERT_TRUE(mgr_->ChangeSpecification(new_spec, t).ok());
  ASSERT_EQ(mgr_->num_subcubes(), 2u);
  // The old K1 rows (month granularity) have no home cube of their own any
  // more; they land in the quarter cube.
  auto all = mgr_->Query(nullptr, nullptr, t, true);
  ASSERT_TRUE(all.ok());
  std::map<std::string, std::vector<int64_t>> expected = {
      {"1999Q4|amazon.com", {2, 689, 3, 68}},
      {"1999Q4|cnn.com", {2, 2489, 7, 94}},
      {"2000Q1|cnn.com", {2, 955, 10, 99}},
      {"2000/1/20|www.cc.gatech.edu", {1, 32, 1, 12}},
  };
  EXPECT_EQ(Snapshot(all.value()), expected);
}

TEST_F(SubcubeTest, ChangeSpecificationThatFailsMovesNothing) {
  ASSERT_TRUE(mgr_->InsertBottomFacts(*ex_.mo).ok());
  int64_t t = DaysFromCivil({2000, 11, 5});
  ASSERT_TRUE(mgr_->Synchronize(t).ok());
  const std::string layout = mgr_->DescribeLayout();
  auto before = mgr_->Query(nullptr, nullptr, t, true);
  ASSERT_TRUE(before.ok());

  // Two <=_V-incomparable actions claiming the same .com facts: the plan
  // against the new layout fails NonCrossing before any row moves, and the
  // old specification and cubes stay.
  ReductionSpecification crossing;
  crossing.Add(ParseAction(*ex_.mo,
                           "a[Time.month, URL.url] s[URL.domain_grp = .com]",
                           "by_time")
                   .take());
  crossing.Add(ParseAction(*ex_.mo,
                           "a[Time.day, URL.domain] s[URL.domain_grp = .com]",
                           "by_url")
                   .take());
  Status changed = mgr_->ChangeSpecification(crossing, t);
  EXPECT_EQ(changed.code(), StatusCode::kInternal) << changed.ToString();
  EXPECT_EQ(mgr_->spec().size(), 2u);
  EXPECT_EQ(mgr_->DescribeLayout(), layout);
  auto after = mgr_->Query(nullptr, nullptr, t, true);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Snapshot(after.value()), Snapshot(before.value()));
}

TEST_F(SubcubeTest, ParallelQueryEqualsSerial) {
  // Section 7.3: subqueries evaluated "separately and in parallel". The
  // threaded path must return exactly the serial result.
  ASSERT_TRUE(mgr_->InsertBottomFacts(*ex_.mo).ok());
  int64_t t = DaysFromCivil({2000, 11, 5});
  ASSERT_TRUE(mgr_->Synchronize(t).ok());
  auto pred = ParsePredicate(mgr_->context(), "URL.domain_grp = .com").take();
  auto gran =
      ParseGranularityList(mgr_->context(), "Time.quarter, URL.domain").take();
  for (bool synced : {true, false}) {
    auto serial = mgr_->Query(pred.get(), &gran, t, synced, false);
    auto parallel = mgr_->Query(pred.get(), &gran, t, synced, true);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(Snapshot(serial.value()), Snapshot(parallel.value()))
        << "synced=" << synced;
  }
}

TEST_F(SubcubeTest, ParallelBranchLayoutLikeEq41to44) {
  // The Section 7.1 example (eqs. 41-44) adds a week-granularity cube for
  // gatech.edu clicks alongside the month/quarter .com chain — a parallel
  // branch of the non-linear Time hierarchy. Weeks do not roll up to months
  // or quarters, so the week cube has only the bottom cube as parent and is
  // nobody's parent.
  ReductionSpecification spec;
  spec.Add(ParseAction(*ex_.mo, paper::kA1, "a1p").take());
  spec.Add(ParseAction(*ex_.mo, paper::kA2, "a2p").take());
  spec.Add(ParseAction(*ex_.mo,
                       "a[Time.week, URL.domain] s[URL.domain = gatech.edu "
                       "AND Time.week <= NOW - 36 weeks]",
                       "a3p")
               .take());
  auto mgr = SubcubeManager::Create(
                 "Click", ex_.mo->dimensions(),
                 std::vector<MeasureType>(ex_.mo->measure_types()), spec)
                 .take();
  ASSERT_EQ(mgr.num_subcubes(), 4u);
  const Subcube& week_cube = mgr.subcube(3);
  EXPECT_EQ(week_cube.granularity[ex_.time_dim],
            static_cast<CategoryId>(TimeUnit::kWeek));
  EXPECT_EQ(week_cube.parents, (std::vector<size_t>{0}));
  // The quarter cube's parents do NOT include the week cube.
  for (size_t p : mgr.subcube(2).parents) EXPECT_NE(p, 3u);

  ASSERT_TRUE(mgr.InsertBottomFacts(*ex_.mo).ok());
  // At 2000/11/5, fact_6 (2000W3) is 40+ weeks old: it moves to the week
  // cube while the .com facts follow the month/quarter chain.
  ASSERT_TRUE(mgr.Synchronize(DaysFromCivil({2000, 11, 5})).ok());
  EXPECT_EQ(mgr.subcube(0).table.num_rows(), 0u);
  EXPECT_EQ(week_cube.table.num_rows(), 1u);
  ValueId wv = week_cube.table.Coord(0, ex_.time_dim);
  EXPECT_EQ(ex_.mo->dimension(ex_.time_dim)->granule(wv),
            WeekGranule(2000, 3));

  // A combined query still sees everything exactly once.
  auto all =
      mgr.Query(nullptr, nullptr, DaysFromCivil({2000, 11, 5}), true).take();
  EXPECT_EQ(all.num_facts(), 4u);
  int64_t clicks = 0;
  for (FactId f = 0; f < all.num_facts(); ++f) clicks += all.Measure(f, 0);
  EXPECT_EQ(clicks, 7);
}

TEST_F(SubcubeTest, DescribeLayoutMentionsEveryCube) {
  std::string desc = mgr_->DescribeLayout();
  EXPECT_NE(desc.find("K0"), std::string::npos);
  EXPECT_NE(desc.find("K1"), std::string::npos);
  EXPECT_NE(desc.find("K2"), std::string::npos);
  EXPECT_NE(desc.find("quarter"), std::string::npos);
}

}  // namespace
}  // namespace dwred
