// Columnar fact-table tests: append/read, batch append, physical deletion,
// cell compaction, byte accounting, and MO round trips.

#include "storage/fact_table.h"

#include <stdlib.h>

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "mdm/paper_example.h"

namespace dwred {
namespace {

TEST(FactTableTest, AppendAndRead) {
  FactTable t(2, 3);
  std::vector<ValueId> c1 = {1, 2};
  std::vector<int64_t> m1 = {10, 20, 30};
  EXPECT_EQ(t.Append(c1, m1), 0u);
  std::vector<ValueId> c2 = {3, 4};
  std::vector<int64_t> m2 = {40, 50, 60};
  EXPECT_EQ(t.Append(c2, m2), 1u);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Coord(0, 1), 2u);
  EXPECT_EQ(t.Measure(1, 2), 60);
  ValueId buf[2];
  t.ReadCoords(1, buf);
  EXPECT_EQ(buf[0], 3u);
  EXPECT_EQ(buf[1], 4u);
}

TEST(FactTableTest, EraseRowsCompacts) {
  FactTable t(1, 1);
  for (int i = 0; i < 10; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    t.Append(c, m);
  }
  std::vector<bool> erase(10, false);
  erase[0] = erase[3] = erase[9] = true;
  ASSERT_TRUE(t.EraseRows(erase).ok());
  EXPECT_EQ(t.num_rows(), 7u);
  EXPECT_EQ(t.Coord(0, 0), 1u);
  EXPECT_EQ(t.Coord(2, 0), 4u);
  EXPECT_EQ(t.Measure(6, 0), 8);
}

TEST(FactTableTest, EraseRowsRejectsStaleBitmap) {
  FactTable t(1, 1);
  for (int i = 0; i < 4; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    t.Append(c, m);
  }
  std::vector<bool> too_short(3, true);
  Status s = t.EraseRows(too_short);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::vector<bool> too_long(5, true);
  s = t.EraseRows(too_long);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The failed calls must not have touched the rows.
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST(FactTableTest, CompactCellsRejectsAggArityMismatch) {
  FactTable t(1, 2);
  std::vector<ValueId> c = {1};
  std::vector<int64_t> m = {1, 2};
  t.Append(c, m);
  std::vector<AggFn> one_agg = {AggFn::kSum};
  EXPECT_EQ(t.CompactCells(one_agg).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(FactTableTest, AppendFromRejectsShapeMismatch) {
  IspExample ex = MakeIspExample();
  FactTable narrow(1, 4);
  EXPECT_EQ(narrow.AppendFrom(*ex.mo).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(narrow.num_rows(), 0u);
  FactTable wrong_meas(2, 1);
  EXPECT_EQ(wrong_meas.AppendFrom(*ex.mo).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(wrong_meas.num_rows(), 0u);
}

TEST(FactTableTest, CompactCellsFoldsDuplicates) {
  FactTable t(2, 2);
  std::vector<AggFn> aggs = {AggFn::kSum, AggFn::kMax};
  std::vector<ValueId> a = {1, 1};
  std::vector<ValueId> b = {1, 2};
  std::vector<int64_t> m1 = {5, 5};
  std::vector<int64_t> m2 = {7, 7};
  std::vector<int64_t> m3 = {1, 1};
  t.Append(a, m1);
  t.Append(b, m2);
  t.Append(a, m3);
  ASSERT_TRUE(t.CompactCells(aggs).ok());
  ASSERT_EQ(t.num_rows(), 2u);
  // Row for cell (1,1): sum 6, max 5.
  EXPECT_EQ(t.Measure(0, 0), 6);
  EXPECT_EQ(t.Measure(0, 1), 5);
  EXPECT_EQ(t.Measure(1, 0), 7);
}

TEST(FactTableTest, CompactIsNoopWithoutDuplicates) {
  FactTable t(1, 1);
  std::vector<AggFn> aggs = {AggFn::kSum};
  for (int i = 0; i < 5; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    t.Append(c, m);
  }
  ASSERT_TRUE(t.CompactCells(aggs).ok());
  EXPECT_EQ(t.num_rows(), 5u);
}

TEST(FactTableTest, BytesAccounting) {
  FactTable t(2, 4);
  EXPECT_EQ(t.Bytes(), 0u);
  std::vector<ValueId> c = {0, 0};
  std::vector<int64_t> m = {0, 0, 0, 0};
  t.Append(c, m);
  EXPECT_EQ(t.Bytes(), 2 * sizeof(ValueId) + 4 * sizeof(int64_t));
}

TEST(FactTableTest, EraseRowsOnEmptyTable) {
  FactTable t(2, 1);
  EXPECT_TRUE(t.EraseRows({}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_segments(), 0u);
  // A sized bitmap against an empty table is stale.
  EXPECT_EQ(t.EraseRows(std::vector<bool>(1, true)).code(),
            StatusCode::kInvalidArgument);
}

TEST(FactTableTest, EraseEveryRowDropsAllSegments) {
  FactTable t(1, 1, /*segment_rows=*/4);
  for (int i = 0; i < 10; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    t.Append(c, m);
  }
  ASSERT_EQ(t.num_segments(), 3u);
  ASSERT_TRUE(t.EraseRows(std::vector<bool>(10, true)).ok());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_segments(), 0u);
  EXPECT_EQ(t.Bytes(), 0u);
  // The table must be appendable again afterwards.
  std::vector<ValueId> c = {7};
  std::vector<int64_t> m = {7};
  EXPECT_EQ(t.Append(c, m), 0u);
  EXPECT_EQ(t.Coord(0, 0), 7u);
}

TEST(FactTableTest, SegmentSealingAndCrossBoundaryReads) {
  FactTable t(1, 1, /*segment_rows=*/3);
  for (int i = 0; i < 8; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(100 + i)};
    std::vector<int64_t> m = {i * 10};
    EXPECT_EQ(t.Append(c, m), static_cast<RowId>(i));
  }
  ASSERT_EQ(t.num_segments(), 3u);
  EXPECT_TRUE(t.SegmentSealed(0));
  EXPECT_TRUE(t.SegmentSealed(1));
  EXPECT_FALSE(t.SegmentSealed(2));  // tail: 2 of 3 rows
  EXPECT_EQ(t.SegmentBegin(1), 3u);
  EXPECT_EQ(t.SegmentBegin(2), 6u);
  // Logical ids address across segment boundaries transparently.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(t.Coord(i, 0), static_cast<ValueId>(100 + i));
    EXPECT_EQ(t.Measure(i, 0), i * 10);
  }
  // The cursor visits the same rows in the same order.
  std::vector<ValueId> seen;
  t.ForEachRow(2, 7, [&](RowId r, const FactTable::RowRef& row) {
    EXPECT_EQ(row.coord(0), static_cast<ValueId>(100 + r));
    seen.push_back(row.coord(0));
  });
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen.front(), 102u);
  EXPECT_EQ(seen.back(), 106u);
}

TEST(FactTableTest, CompactCellsAcrossSegmentBoundaries) {
  FactTable t(1, 1, /*segment_rows=*/2);
  std::vector<AggFn> aggs = {AggFn::kSum};
  // Duplicates of cell 5 land in three different segments.
  ValueId cs[] = {5, 1, 2, 5, 3, 5};
  for (int i = 0; i < 6; ++i) {
    std::vector<ValueId> c = {cs[i]};
    std::vector<int64_t> m = {1};
    t.Append(c, m);
  }
  ASSERT_EQ(t.num_segments(), 3u);
  auto folded = t.CompactCells(aggs);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded.value(), 2u);
  ASSERT_EQ(t.num_rows(), 4u);
  // First-occurrence order survives the rebuild; cell 5 folded 1+1+1.
  EXPECT_EQ(t.Coord(0, 0), 5u);
  EXPECT_EQ(t.Measure(0, 0), 3);
  EXPECT_EQ(t.Coord(1, 0), 1u);
  EXPECT_EQ(t.Coord(2, 0), 2u);
  EXPECT_EQ(t.Coord(3, 0), 3u);
  // The rebuild re-segments canonically: no tombstones anywhere.
  for (size_t s = 0; s < t.num_segments(); ++s) {
    EXPECT_EQ(t.SegmentTombstones(s), 0u);
  }
}

TEST(FactTableTest, ZoneMapsTrackAppends) {
  FactTable t(2, 1, /*segment_rows=*/4);
  ValueId ds[][2] = {{5, 9}, {3, 7}, {8, 2}, {6, 6}};
  for (auto& d : ds) {
    std::vector<ValueId> c = {d[0], d[1]};
    std::vector<int64_t> m = {static_cast<int64_t>(d[0]) - d[1]};
    t.Append(c, m);
  }
  ASSERT_EQ(t.num_segments(), 1u);
  EXPECT_EQ(t.SegmentDimMin(0, 0), 3u);
  EXPECT_EQ(t.SegmentDimMax(0, 0), 8u);
  EXPECT_EQ(t.SegmentDimMin(0, 1), 2u);
  EXPECT_EQ(t.SegmentDimMax(0, 1), 9u);
  EXPECT_EQ(t.SegmentMeasureMin(0, 0), -4);
  EXPECT_EQ(t.SegmentMeasureMax(0, 0), 6);
}

TEST(FactTableTest, ZoneMapsShrinkAfterEraseAndCompact) {
  // 8 rows in one segment; erasing the extremes must tighten the zone maps
  // whether the segment compacts (ratio >= 0.25) or defers tombstones.
  FactTable deferred(1, 1, /*segment_rows=*/16);
  FactTable compacted(1, 1, /*segment_rows=*/16);
  for (int i = 0; i < 8; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    deferred.Append(c, m);
    compacted.Append(c, m);
  }
  // One tombstone out of 8 (ratio 0.125 < 0.25): deferred.
  std::vector<bool> one(8, false);
  one[0] = true;
  ASSERT_TRUE(deferred.EraseRows(one).ok());
  ASSERT_EQ(deferred.num_segments(), 1u);
  EXPECT_EQ(deferred.SegmentTombstones(0), 1u);
  EXPECT_EQ(deferred.SegmentLiveRows(0), 7u);
  EXPECT_EQ(deferred.SegmentPhysicalRows(0), 8u);
  EXPECT_EQ(deferred.SegmentDimMin(0, 0), 1u);  // zone excludes the tombstone
  EXPECT_EQ(deferred.SegmentMeasureMin(0, 0), 1);
  // Logical reads skip the tombstone.
  EXPECT_EQ(deferred.Coord(0, 0), 1u);
  EXPECT_EQ(deferred.Measure(6, 0), 7);

  // Four tombstones out of 8 (ratio 0.5 >= 0.25): compacted in place.
  std::vector<bool> four(8, false);
  four[0] = four[1] = four[6] = four[7] = true;
  ASSERT_TRUE(compacted.EraseRows(four).ok());
  ASSERT_EQ(compacted.num_segments(), 1u);
  EXPECT_EQ(compacted.SegmentTombstones(0), 0u);
  EXPECT_EQ(compacted.SegmentLiveRows(0), 4u);
  EXPECT_EQ(compacted.SegmentPhysicalRows(0), 4u);
  EXPECT_EQ(compacted.SegmentDimMin(0, 0), 2u);
  EXPECT_EQ(compacted.SegmentDimMax(0, 0), 5u);
  EXPECT_EQ(compacted.SegmentMeasureMax(0, 0), 5);
  // Byte accounting follows the physical rows.
  EXPECT_EQ(compacted.Bytes(), 4 * (sizeof(ValueId) + sizeof(int64_t)));
  EXPECT_EQ(deferred.Bytes(), 8 * (sizeof(ValueId) + sizeof(int64_t)));
}

TEST(FactTableTest, ErasingIntoTombstonedSegmentStaysConsistent) {
  FactTable t(1, 1, /*segment_rows=*/16);
  for (int i = 0; i < 16; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    t.Append(c, m);
  }
  // First erase: 2/16 dead (deferred).
  std::vector<bool> e1(16, false);
  e1[3] = e1[12] = true;
  ASSERT_TRUE(t.EraseRows(e1).ok());
  ASSERT_EQ(t.num_rows(), 14u);
  EXPECT_EQ(t.SegmentTombstones(0), 2u);
  // Second erase addresses *logical* ids over the surviving rows: kill the
  // new row 0 (value 0) and row 13 (value 15) → 4/16 dead, ratio 0.25 →
  // compaction.
  std::vector<bool> e2(14, false);
  e2[0] = e2[13] = true;
  ASSERT_TRUE(t.EraseRows(e2).ok());
  ASSERT_EQ(t.num_rows(), 12u);
  EXPECT_EQ(t.SegmentTombstones(0), 0u);
  EXPECT_EQ(t.SegmentPhysicalRows(0), 12u);
  EXPECT_EQ(t.SegmentDimMin(0, 0), 1u);
  EXPECT_EQ(t.SegmentDimMax(0, 0), 14u);
  std::vector<ValueId> expect = {1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14};
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(t.Coord(i, 0), expect[i]);
  }
}

/// Every observable of a table's layout: segments, zone maps, encodings,
/// bytes and rows.
void ExpectSameLayout(const FactTable& a, const FactTable& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_segments(), b.num_segments());
  EXPECT_EQ(a.Bytes(), b.Bytes());
  EXPECT_EQ(a.RowEquivalentBytes(), b.RowEquivalentBytes());
  for (size_t s = 0; s < a.num_segments(); ++s) {
    EXPECT_EQ(a.SegmentBegin(s), b.SegmentBegin(s));
    EXPECT_EQ(a.SegmentLiveRows(s), b.SegmentLiveRows(s));
    EXPECT_EQ(a.SegmentPhysicalRows(s), b.SegmentPhysicalRows(s));
    EXPECT_EQ(a.SegmentTombstones(s), b.SegmentTombstones(s));
    EXPECT_EQ(a.SegmentSealed(s), b.SegmentSealed(s));
    for (size_t d = 0; d < a.num_dims(); ++d) {
      EXPECT_EQ(a.SegmentDimEncoding(s, d), b.SegmentDimEncoding(s, d));
      EXPECT_EQ(a.SegmentDimMin(s, d), b.SegmentDimMin(s, d));
      EXPECT_EQ(a.SegmentDimMax(s, d), b.SegmentDimMax(s, d));
    }
    for (size_t m = 0; m < a.num_measures(); ++m) {
      EXPECT_EQ(a.SegmentMeasureEncoding(s, m), b.SegmentMeasureEncoding(s, m));
      EXPECT_EQ(a.SegmentMeasureMin(s, m), b.SegmentMeasureMin(s, m));
      EXPECT_EQ(a.SegmentMeasureMax(s, m), b.SegmentMeasureMax(s, m));
    }
  }
  for (RowId r = 0; r < a.num_rows(); ++r) {
    for (size_t d = 0; d < a.num_dims(); ++d) {
      ASSERT_EQ(a.Coord(r, d), b.Coord(r, d)) << "row " << r;
    }
    for (size_t m = 0; m < a.num_measures(); ++m) {
      ASSERT_EQ(a.Measure(r, m), b.Measure(r, m)) << "row " << r;
    }
  }
}

// A batch append lays rows out exactly as one Append per row: the same seal
// points, zone maps, encodings and bytes — also into a tail that carries
// tombstones.
TEST(FactTableTest, AppendRowsMatchesRowAppends) {
  constexpr size_t kRows = 200;
  std::vector<ValueId> cells;
  std::vector<int64_t> meas;
  for (size_t i = 0; i < kRows; ++i) {
    cells.push_back(static_cast<ValueId>((i * 7919) % 61));
    cells.push_back(static_cast<ValueId>(i / 9));
    meas.push_back(static_cast<int64_t>(i % 5) - 2);
  }
  FactTable rows(2, 1, /*segment_rows=*/32);
  FactTable batches(2, 1, /*segment_rows=*/32);
  auto append = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      rows.Append(std::span(cells).subspan(2 * i, 2),
                  std::span(meas).subspan(i, 1));
    }
    batches.AppendRows(to - from,
                       std::span(cells).subspan(2 * from, 2 * (to - from)),
                       std::span(meas).subspan(from, to - from));
  };
  append(0, 5);
  append(5, 77);  // fills the tail, seals two segments, leaves a tail
  ExpectSameLayout(rows, batches);
  std::vector<bool> erase(rows.num_rows(), false);
  erase[70] = erase[72] = true;  // tombstones in the open tail
  ASSERT_TRUE(rows.EraseRows(erase).ok());
  ASSERT_TRUE(batches.EraseRows(erase).ok());
  append(77, 200);
  batches.AppendRows(0, {}, {});
  ExpectSameLayout(rows, batches);
}

TEST(FactTableTest, SegmentRowsFromEnvironment) {
  // Restores the variable on scope exit so later tests see the default.
  struct EnvGuard {
    ~EnvGuard() { ::unsetenv("DWRED_SEGMENT_ROWS"); }
  } guard;

  // A valid value becomes the default row budget of env-configured tables.
  ::setenv("DWRED_SEGMENT_ROWS", "32", /*overwrite=*/1);
  EXPECT_EQ(FactTable(1, 1).segment_rows(), 32u);
  // Whitespace is tolerated (the DWRED_THREADS convention).
  ::setenv("DWRED_SEGMENT_ROWS", "  64 ", /*overwrite=*/1);
  EXPECT_EQ(FactTable(1, 1).segment_rows(), 64u);
  // An explicit constructor budget always wins over the environment.
  EXPECT_EQ(FactTable(1, 1, /*segment_rows=*/8).segment_rows(), 8u);
  // Garbage falls back to the default with a warning.
  ::setenv("DWRED_SEGMENT_ROWS", "banana", /*overwrite=*/1);
  EXPECT_EQ(FactTable(1, 1).segment_rows(), FactTable::kDefaultSegmentRows);
  // Out-of-range values clamp to the validation bounds.
  ::setenv("DWRED_SEGMENT_ROWS", "1", /*overwrite=*/1);
  EXPECT_EQ(FactTable(1, 1).segment_rows(), FactTable::kMinSegmentRows);
  ::setenv("DWRED_SEGMENT_ROWS", "99999999999", /*overwrite=*/1);
  EXPECT_EQ(FactTable(1, 1).segment_rows(), FactTable::kMaxSegmentRows);
  // Empty/unset means the built-in default.
  ::setenv("DWRED_SEGMENT_ROWS", "", /*overwrite=*/1);
  EXPECT_EQ(FactTable(1, 1).segment_rows(), FactTable::kDefaultSegmentRows);
  ::unsetenv("DWRED_SEGMENT_ROWS");
  EXPECT_EQ(FactTable(1, 1).segment_rows(), FactTable::kDefaultSegmentRows);

  // The env budget really governs sealing.
  ::setenv("DWRED_SEGMENT_ROWS", "16", /*overwrite=*/1);
  FactTable t(1, 1);
  std::vector<ValueId> c(1);
  std::vector<int64_t> m(1);
  for (int i = 0; i < 40; ++i) {
    c[0] = static_cast<ValueId>(i);
    m[0] = i;
    t.Append(c, m);
  }
  EXPECT_EQ(t.num_segments(), 3u);
  EXPECT_TRUE(t.SegmentSealed(0));
  EXPECT_EQ(t.SegmentLiveRows(0), 16u);
}

TEST(FactTableTest, MoRoundTrip) {
  IspExample ex = MakeIspExample();
  FactTable t(2, 4);
  ASSERT_TRUE(t.AppendFrom(*ex.mo).ok());
  EXPECT_EQ(t.num_rows(), 7u);
  MultidimensionalObject back =
      t.ToMO("Click", ex.mo->dimensions(),
             std::vector<MeasureType>(ex.mo->measure_types()));
  ASSERT_EQ(back.num_facts(), 7u);
  for (FactId f = 0; f < 7; ++f) {
    EXPECT_EQ(back.Coord(f, 0), ex.mo->Coord(f, 0));
    EXPECT_EQ(back.Coord(f, 1), ex.mo->Coord(f, 1));
    EXPECT_EQ(back.Measure(f, 1), ex.mo->Measure(f, 1));
  }
}

}  // namespace
}  // namespace dwred
