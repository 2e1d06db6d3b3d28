// Columnar-layout tests (docs/STORAGE.md "Columnar layout"): encoding
// round-trips and the cost model, the distinct count against the hash-map
// encoder it replaced, batch iteration across chunk and segment
// boundaries, tombstones inside a chunk, empty/all-pruned scans, the storage
// byte-split gauges, the capacity-based ApproxBytes accounting, and bitwise
// EvalBatch/Eval equivalence.

#include "storage/column.h"

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "chrono/civil.h"
#include "mdm/paper_example.h"
#include "obs/metrics.h"
#include "spec/parser.h"
#include "storage/fact_table.h"
#include "vm/program.h"

namespace dwred {
namespace {

using storage::ColEncoding;
using storage::EncodedColumn;

template <typename T>
void ExpectRoundTrip(const EncodedColumn<T>& col, const std::vector<T>& want) {
  ASSERT_EQ(col.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(col.At(i), want[i]) << "At(" << i << ")";
  }
  std::vector<T> out(want.size());
  col.Decode(0, want.size(), out.data());
  EXPECT_EQ(out, want);
  // Partial ranges decode identically (chunk boundaries land mid-run and
  // mid-dictionary in real scans).
  if (want.size() >= 4) {
    const size_t b = want.size() / 3, e = want.size() - 1;
    std::vector<T> part(e - b);
    col.Decode(b, e, part.data());
    for (size_t i = b; i < e; ++i) EXPECT_EQ(part[i - b], want[i]);
  }
}

TEST(EncodedColumnTest, RleWinsOnSortedRuns) {
  std::vector<ValueId> v;
  for (ValueId r = 0; r < 8; ++r) {
    for (int i = 0; i < 100; ++i) v.push_back(r);
  }
  std::vector<ValueId> keep = v;
  auto col = EncodedColumn<ValueId>::Encode(std::move(v));
  EXPECT_EQ(col.encoding(), ColEncoding::kRle);
  // 8 runs * (4 value + 4 end) bytes against 800 * 4 plain.
  EXPECT_EQ(col.DataBytes(), 8 * (sizeof(ValueId) + sizeof(uint32_t)));
  ExpectRoundTrip(col, keep);
}

TEST(EncodedColumnTest, DictWinsOnLowCardinalityNoRuns) {
  // The 5 distinct values span more than 2^32, so frame-of-reference deltas
  // are ineligible and the dictionary is the cheapest layout.
  std::vector<int64_t> v;
  for (int i = 0; i < 600; ++i) {
    v.push_back(1000 + ((i * 7) % 5) * (int64_t{1} << 33));
  }
  std::vector<int64_t> keep = v;
  auto col = EncodedColumn<int64_t>::Encode(std::move(v));
  EXPECT_EQ(col.encoding(), ColEncoding::kDict);
  // 5 distinct values -> 1-byte codes: 5*8 dictionary + 600*1 codes.
  EXPECT_EQ(col.DataBytes(), 5 * sizeof(int64_t) + 600u);
  ExpectRoundTrip(col, keep);
}

TEST(EncodedColumnTest, ForWinsOnDenseRangeAllDistinct) {
  // 600 distinct values inside a 4096-wide window above 2^32: a dictionary
  // must spell out every distinct 8-byte value, frame of reference keeps one
  // 8-byte base plus 2-byte deltas.
  std::vector<int64_t> v;
  for (int64_t i = 0; i < 600; ++i) {
    v.push_back(5'000'000'000 + (i * 7) % 4096);
  }
  std::vector<int64_t> keep = v;
  auto col = EncodedColumn<int64_t>::Encode(std::move(v));
  EXPECT_EQ(col.encoding(), ColEncoding::kFor);
  EXPECT_EQ(std::string(storage::EncodingName(col.encoding())), "for");
  EXPECT_EQ(col.DataBytes(), sizeof(int64_t) + 600u * 2);
  ExpectRoundTrip(col, keep);
}

TEST(EncodedColumnTest, ForRoundTripsNegativeBaseAndByteDeltas) {
  // A negative base with a sub-256 range packs to 1-byte deltas and must
  // reproduce the signed values exactly.
  std::vector<int64_t> v;
  for (int64_t i = 0; i < 600; ++i) v.push_back(-1'000'000 + (i * 13) % 200);
  std::vector<int64_t> keep = v;
  auto col = EncodedColumn<int64_t>::Encode(std::move(v));
  EXPECT_EQ(col.encoding(), ColEncoding::kFor);
  EXPECT_EQ(col.DataBytes(), sizeof(int64_t) + 600u * 1);
  ExpectRoundTrip(col, keep);
}

TEST(EncodedColumnTest, PlainWhenNothingWins) {
  // All distinct, no runs, and a range past 2^16 so 4-byte FOR deltas can
  // never undercut 4-byte plain values.
  std::vector<ValueId> v;
  for (ValueId i = 0; i < 64; ++i) v.push_back(i * 65537u);
  std::vector<ValueId> keep = v;
  auto col = EncodedColumn<ValueId>::Encode(std::move(v));
  EXPECT_EQ(col.encoding(), ColEncoding::kPlain);
  ASSERT_NE(col.PlainData(), nullptr);
  EXPECT_EQ(col.DataBytes(), keep.size() * sizeof(ValueId));
  ExpectRoundTrip(col, keep);
}

TEST(EncodedColumnTest, EmptyColumn) {
  auto col = EncodedColumn<ValueId>::Encode({});
  EXPECT_EQ(col.size(), 0u);
  EXPECT_TRUE(col.empty());
  EXPECT_EQ(col.DataBytes(), 0u);
  col.Decode(0, 0, nullptr);  // must not touch the output
}

TEST(EncodedColumnTest, EncodingNeverInflates) {
  // Across adversarial shapes, the kept encoding is never larger than plain.
  std::vector<std::vector<ValueId>> shapes;
  shapes.push_back({42});                       // single value
  shapes.push_back({1, 2, 1, 2, 1, 2});         // tiny alternation
  std::vector<ValueId> wide;
  for (ValueId i = 0; i < 300; ++i) wide.push_back(i * 2654435761u);
  shapes.push_back(wide);                       // wide, unique
  for (std::vector<ValueId>& s : shapes) {
    const size_t plain = s.size() * sizeof(ValueId);
    std::vector<ValueId> keep = s;
    auto col = EncodedColumn<ValueId>::Encode(std::move(s));
    EXPECT_LE(col.DataBytes(), plain);
    ExpectRoundTrip(col, keep);
  }
}

/// The hash-map encoder the direct-indexed distinct count replaced, kept as
/// the reference: Encode must choose the same encoding, with the same
/// dictionary, codes and byte count.
template <typename T>
struct ReferenceEncoding {
  ColEncoding enc = ColEncoding::kPlain;
  std::vector<T> values;        ///< as EncodedColumn::values()
  std::vector<uint32_t> codes;  ///< dictionary codes or FOR deltas
  size_t data_bytes = 0;
};

template <typename T>
ReferenceEncoding<T> ReferenceEncode(const std::vector<T>& data) {
  std::unordered_map<T, uint32_t> dict;
  std::vector<T> firsts;
  size_t runs = 1;
  T minv = data[0], maxv = data[0];
  for (size_t i = 0; i < data.size(); ++i) {
    if (dict.emplace(data[i], static_cast<uint32_t>(dict.size())).second) {
      firsts.push_back(data[i]);
    }
    if (i > 0 && data[i] != data[i - 1]) ++runs;
    minv = std::min(minv, data[i]);
    maxv = std::max(maxv, data[i]);
  }
  const size_t n = data.size();
  const size_t distinct = dict.size();
  const size_t plain_bytes = n * sizeof(T);
  const size_t width = distinct <= (1u << 8) ? 1 : distinct <= (1u << 16) ? 2 : 4;
  const size_t dict_bytes = distinct * sizeof(T) + n * width;
  const size_t rle_bytes = runs * (sizeof(T) + sizeof(uint32_t));
  const uint64_t range =
      static_cast<uint64_t>(maxv) - static_cast<uint64_t>(minv);
  const size_t fwidth = range < (1u << 8)      ? 1
                        : range < (1u << 16)   ? 2
                        : range < (1ull << 32) ? 4
                                               : 0;
  const size_t for_bytes =
      fwidth == 0 ? static_cast<size_t>(-1) : sizeof(T) + n * fwidth;
  ReferenceEncoding<T> r;
  if (rle_bytes < plain_bytes && rle_bytes <= dict_bytes &&
      rle_bytes <= for_bytes) {
    r.enc = ColEncoding::kRle;
    for (size_t i = 0; i < n; ++i) {
      if (i == 0 || data[i] != data[i - 1]) r.values.push_back(data[i]);
    }
    r.data_bytes = rle_bytes;
  } else if (dict_bytes < plain_bytes && dict_bytes <= for_bytes) {
    r.enc = ColEncoding::kDict;
    r.values = firsts;
    for (const T v : data) r.codes.push_back(dict.at(v));
    r.data_bytes = dict_bytes;
  } else if (for_bytes < plain_bytes) {
    r.enc = ColEncoding::kFor;
    r.values = {minv};
    for (const T v : data) {
      r.codes.push_back(static_cast<uint32_t>(static_cast<uint64_t>(v) -
                                              static_cast<uint64_t>(minv)));
    }
    r.data_bytes = for_bytes;
  } else {
    r.values = data;
    r.data_bytes = plain_bytes;
  }
  return r;
}

/// A random column of `n` values from `distinct` draws in [base, base +
/// range] (both ends always present), laid out in runs up to `max_run`.
template <typename T>
std::vector<T> RandomColumn(std::mt19937_64& rng, size_t n, T base,
                            uint64_t range, size_t distinct, size_t max_run) {
  std::vector<T> pool = {base, static_cast<T>(static_cast<uint64_t>(base) +
                                              range)};
  for (size_t i = 2; i < distinct; ++i) {
    const uint64_t off = range == UINT64_MAX ? rng() : rng() % (range + 1);
    pool.push_back(static_cast<T>(static_cast<uint64_t>(base) + off));
  }
  std::vector<T> col;
  while (col.size() < n) {
    const T v = pool[rng() % pool.size()];
    const size_t run = 1 + rng() % max_run;
    for (size_t i = 0; i < run && col.size() < n; ++i) col.push_back(v);
  }
  return col;
}

template <typename T>
void ExpectEncodesLikeReference(std::mt19937_64& rng, T base) {
  constexpr uint64_t kCut = EncodedColumn<T>::kDirectSlotsPerRow;
  for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{300}, size_t{4096}}) {
    // Ranges on both sides of the direct-table cutoff (kCut * n slots),
    // from a constant column up to the widest the type holds.
    std::vector<uint64_t> ranges = {0, 1, 255, kCut * n - 1, kCut * n,
                                    kCut * n + 1, 70000, (1ull << 32) - 1,
                                    1ull << 32};
    ranges.push_back(static_cast<uint64_t>(std::numeric_limits<T>::max()) -
                     static_cast<uint64_t>(base));
    for (uint64_t range : ranges) {
      for (size_t distinct : {size_t{2}, size_t{20}, size_t{300}, n}) {
        for (size_t max_run : {size_t{1}, size_t{40}}) {
          std::vector<T> col =
              RandomColumn<T>(rng, n, base, range, distinct, max_run);
          const ReferenceEncoding<T> want = ReferenceEncode(col);
          std::vector<T> keep = col;
          auto got = EncodedColumn<T>::Encode(std::move(col));
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " base=" << base << " range=" << range
                       << " distinct=" << distinct << " run=" << max_run);
          ASSERT_EQ(got.encoding(), want.enc);
          EXPECT_EQ(got.DataBytes(), want.data_bytes);
          EXPECT_TRUE(std::equal(got.values().begin(), got.values().end(),
                                 want.values.begin(), want.values.end()));
          for (size_t i = 0; i < want.codes.size(); ++i) {
            ASSERT_EQ(got.code(i), want.codes[i]) << "row " << i;
          }
          ExpectRoundTrip(got, keep);
        }
      }
    }
  }
}

TEST(EncodedColumnTest, DistinctCountMatchesTheHashMapEncoder) {
  std::mt19937_64 rng(2021);
  for (ValueId base : {ValueId{0}, ValueId{9000}, ValueId{1u << 31}}) {
    ExpectEncodesLikeReference<ValueId>(rng, base);
  }
  for (int64_t base : {int64_t{-5000}, int64_t{0}, int64_t{1} << 40,
                       std::numeric_limits<int64_t>::min()}) {
    ExpectEncodesLikeReference<int64_t>(rng, base);
  }
}

/// A table exercising every encoding in one sealed segment: the first
/// dimension RLE-compresses (long runs), the second dictionary-packs (low
/// cardinality spread too wide for deltas), the first measure stays plain
/// (all distinct across a range past 2^32), and the second measure
/// delta-packs with frame of reference (dense sub-256 range).
FactTable MakeEncodableTable(size_t rows, size_t segment_rows) {
  FactTable t(2, 2, segment_rows);
  std::vector<ValueId> c(2);
  std::vector<int64_t> m(2);
  for (size_t i = 0; i < rows; ++i) {
    c[0] = static_cast<ValueId>(i / 64);           // long runs
    c[1] = static_cast<ValueId>((i % 3) * 70000);  // 3 distinct, wide apart
    m[0] = static_cast<int64_t>(i) * 1'000'000'007 + 7;  // unique, wide
    m[1] = 500 + static_cast<int64_t>(i % 100);          // dense range
    t.Append(c, m);
  }
  return t;
}

TEST(ColumnarTest, SealedSegmentsEncodePerColumn) {
  FactTable t = MakeEncodableTable(/*rows=*/512, /*segment_rows=*/256);
  ASSERT_GE(t.num_segments(), 2u);
  ASSERT_TRUE(t.SegmentSealed(0));
  ASSERT_TRUE(t.SegmentEncoded(0));
  EXPECT_EQ(t.SegmentDimEncoding(0, 0), ColEncoding::kRle);
  EXPECT_EQ(t.SegmentDimEncoding(0, 1), ColEncoding::kDict);
  EXPECT_EQ(t.SegmentMeasureEncoding(0, 0), ColEncoding::kPlain);
  EXPECT_EQ(t.SegmentMeasureEncoding(0, 1), ColEncoding::kFor);
  EXPECT_EQ(std::string(storage::EncodingName(t.SegmentDimEncoding(0, 0))),
            "rle");
  // Per-column bytes sum to the segment total, and the segment shrank.
  size_t cols = t.SegmentDimBytes(0, 0) + t.SegmentDimBytes(0, 1) +
                t.SegmentMeasureBytes(0, 0) + t.SegmentMeasureBytes(0, 1);
  EXPECT_EQ(cols, t.SegmentBytes(0));
  EXPECT_LT(t.SegmentBytes(0),
            256 * (2 * sizeof(ValueId) + 2 * sizeof(int64_t)));
  EXPECT_LE(t.Bytes(), t.RowEquivalentBytes());
  // Logical reads are unchanged, through both the point reads and the row
  // iterator.
  for (RowId r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(t.Coord(r, 0), static_cast<ValueId>(r / 64));
    EXPECT_EQ(t.Coord(r, 1), static_cast<ValueId>((r % 3) * 70000));
    EXPECT_EQ(t.Measure(r, 0), static_cast<int64_t>(r) * 1'000'000'007 + 7);
    EXPECT_EQ(t.Measure(r, 1), 500 + static_cast<int64_t>(r % 100));
  }
  RowId seen = 0;
  t.ForEachRow(0, t.num_rows(), [&](RowId r, const FactTable::RowRef& row) {
    EXPECT_EQ(row.coord(0), t.Coord(r, 0));
    EXPECT_EQ(row.coord(1), t.Coord(r, 1));
    EXPECT_EQ(row.measure(0), t.Measure(r, 0));
    ++seen;
  });
  EXPECT_EQ(seen, t.num_rows());
}

TEST(ColumnarTest, BatchIterationCrossesChunkAndSegmentBoundaries) {
  // Segments larger than kBatchRows force chunking inside a segment; the
  // scan range straddles batch and segment boundaries.
  const size_t rows = FactTable::kBatchRows * 2 + 700;
  FactTable t = MakeEncodableTable(rows, FactTable::kBatchRows + 500);
  const RowId begin = FactTable::kBatchRows - 37;
  const RowId end = rows - 13;
  RowId expect = begin;
  t.ForEachBatch(begin, end, [&](const FactTable::BatchView& b) {
    ASSERT_EQ(b.first_row(), expect);
    ASSERT_GT(b.rows(), 0u);
    ASSERT_LE(b.rows(), FactTable::kBatchRows);
    ASSERT_EQ(b.num_dims(), 2u);
    for (size_t i = 0; i < b.rows(); ++i) {
      const RowId r = b.first_row() + i;
      EXPECT_EQ(b.dim_col(0)[i], t.Coord(r, 0));
      EXPECT_EQ(b.dim_col(1)[i], t.Coord(r, 1));
      EXPECT_EQ(b.meas_col(0)[i], t.Measure(r, 0));
    }
    expect += b.rows();
  });
  EXPECT_EQ(expect, end);
}

TEST(ColumnarTest, TombstonedRowsInsideAChunkAreSkipped) {
  FactTable t = MakeEncodableTable(/*rows=*/96, /*segment_rows=*/32);
  // Tombstone a few rows of the first (sealed, encoded) segment — below the
  // compaction ratio so the tombstones stay resident.
  std::vector<bool> erase(96, false);
  erase[3] = erase[10] = erase[17] = true;
  std::vector<ValueId> survivors0, survivors1;
  std::vector<int64_t> survivors_m;
  for (RowId r = 0; r < 96; ++r) {
    if (erase[r]) continue;
    survivors0.push_back(t.Coord(r, 0));
    survivors1.push_back(t.Coord(r, 1));
    survivors_m.push_back(t.Measure(r, 0));
  }
  ASSERT_TRUE(t.EraseRows(erase).ok());
  ASSERT_EQ(t.num_rows(), 93u);
  ASSERT_GT(t.SegmentTombstones(0), 0u);  // really deferred, not compacted
  RowId next = 0;
  t.ForEachBatch(0, t.num_rows(), [&](const FactTable::BatchView& b) {
    for (size_t i = 0; i < b.rows(); ++i) {
      const RowId r = b.first_row() + i;
      ASSERT_EQ(r, next);
      EXPECT_EQ(b.dim_col(0)[i], survivors0[r]);
      EXPECT_EQ(b.dim_col(1)[i], survivors1[r]);
      EXPECT_EQ(b.meas_col(0)[i], survivors_m[r]);
      ++next;
    }
  });
  EXPECT_EQ(next, t.num_rows());
}

TEST(ColumnarTest, EmptyAndFullyPrunedScans) {
  FactTable empty(2, 1);
  size_t calls = 0;
  empty.ForEachBatch(0, 0, [&](const FactTable::BatchView&) { ++calls; });
  EXPECT_EQ(calls, 0u);

  // A skip callback that rejects every chunk (no survivors anywhere) must
  // elide every callback — the late-materialization contract.
  FactTable t = MakeEncodableTable(/*rows=*/200, /*segment_rows=*/64);
  size_t skipped = 0;
  t.ForEachBatch(
      0, t.num_rows(), [&](const FactTable::BatchView&) { ++calls; },
      [&](RowId, size_t n) {
        skipped += n;
        return true;
      });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(skipped, t.num_rows());
}

TEST(ColumnarTest, StorageByteGaugesSplit) {
  auto& reg = obs::MetricsRegistry::Global();
  const int64_t row0 = reg.GetGauge("dwred_storage_bytes_row").Value();
  const int64_t col0 = reg.GetGauge("dwred_storage_bytes_columnar").Value();
  const int64_t sav0 = reg.GetGauge("dwred_storage_bytes_saved").Value();
  {
    FactTable t = MakeEncodableTable(/*rows=*/512, /*segment_rows=*/256);
    const int64_t drow =
        reg.GetGauge("dwred_storage_bytes_row").Value() - row0;
    const int64_t dcol =
        reg.GetGauge("dwred_storage_bytes_columnar").Value() - col0;
    const int64_t dsav =
        reg.GetGauge("dwred_storage_bytes_saved").Value() - sav0;
    EXPECT_EQ(drow, static_cast<int64_t>(t.RowEquivalentBytes()));
    EXPECT_EQ(dcol, static_cast<int64_t>(t.Bytes()));
    EXPECT_EQ(dsav, drow - dcol);
    EXPECT_GT(dsav, 0);  // the encodable table really saved bytes
  }
  // Destruction withdraws the contribution.
  EXPECT_EQ(reg.GetGauge("dwred_storage_bytes_row").Value(), row0);
  EXPECT_EQ(reg.GetGauge("dwred_storage_bytes_columnar").Value(), col0);
  EXPECT_EQ(reg.GetGauge("dwred_storage_bytes_saved").Value(), sav0);
}

TEST(ColumnarTest, ApproxBytesCountsColumnarBuffers) {
  FactTable t = MakeEncodableTable(/*rows=*/512, /*segment_rows=*/128);
  // Capacity-based accounting must cover at least the resident payload plus
  // the manifest overhead — a budget charged ApproxBytes can never hold more
  // resident data than it was charged for (the PR-8 undercount class).
  EXPECT_GE(t.ApproxBytes(), t.Bytes());
  EXPECT_GT(t.ApproxBytes(), 0u);

  // The MO admission path: the query cache charges capacity, names and
  // provenance, never just the logical fact payload.
  IspExample ex = MakeIspExample();
  EXPECT_GE(ex.mo->ApproxBytes(), ex.mo->FactBytes());
  ex.mo->SetFactName(0, "a rather long fact name that occupies heap bytes");
  ex.mo->SetProvenance(0, {0, 1, 2, 3}, 0);
  EXPECT_GT(ex.mo->ApproxBytes(),
            ex.mo->FactBytes() + 4 * sizeof(FactId));
}

TEST(ColumnarTest, EvalBatchBitwiseMatchesEval) {
  IspExample ex = MakeIspExample();
  const MultidimensionalObject& mo = *ex.mo;
  const int64_t now = DaysFromCivil({2000, 7, 1});
  auto pred = ParsePredicate(
      mo, "Time.day <= 2000/5/31 OR URL.domain = 'cnn.com'");
  ASSERT_TRUE(pred.ok()) << pred.status().message();
  auto prog = vm::PredProgram::Compile(mo, *pred.value(),
                                       vm::SpecAtomOracle(mo, now));
  ASSERT_TRUE(prog.has_value()) << "paper-example predicate must compile";

  const size_t ndims = mo.num_dimensions();
  const size_t n = mo.num_facts();
  ASSERT_GT(n, 0u);
  std::vector<ValueId> cols(ndims * n);
  std::vector<const ValueId*> colp(ndims);
  for (size_t d = 0; d < ndims; ++d) colp[d] = cols.data() + d * n;
  for (size_t f = 0; f < n; ++f) {
    for (size_t d = 0; d < ndims; ++d) {
      cols[d * n + f] = mo.Coord(f, static_cast<DimensionId>(d));
    }
  }
  std::vector<double> out(n);
  vm::PredProgram::BatchScratch scratch;
  prog->EvalBatch(colp.data(), n, out.data(), &scratch);
  for (size_t f = 0; f < n; ++f) {
    EXPECT_EQ(out[f], prog->Eval(mo.FactCoords(f)))  // bitwise: exact doubles
        << "lane " << f << " diverged from the row interpreter";
  }
}

}  // namespace
}  // namespace dwred
