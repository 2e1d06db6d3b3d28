#pragma once

// Columnar star-schema fact storage — the physical substrate of the subcube
// implementation strategy (paper Section 7). A FactTable stores facts of one
// fixed granularity as an append-only collection of immutable *sealed
// segments* plus one mutable tail segment (docs/STORAGE.md). Each segment
// holds dense columns — one ValueId column per dimension (the foreign keys of
// a star schema) and one int64 column per measure — capped at a fixed row
// budget, and carries per-column zone maps (min/max ValueId per dimension,
// min/max per measure, tombstone count) over its live rows. The scan layer
// (src/scan) prunes whole segments against these zone maps before a scan ever
// touches the columns, and uses segments as the natural parallel shard unit.
//
// Sealing is also the compression point (docs/STORAGE.md "Columnar layout"):
// every segment's columns are re-encoded at seal time — per column, the
// cheapest of plain / dictionary / run-length / frame-of-reference by byte
// count (storage/column.h) — and consumers iterate chunk-at-a-time through
// ForEachBatch, which exposes each column of up to kBatchRows rows as a flat
// pointer (zero-copy for plain columns, decoded into scratch otherwise).
// The encoding is physical only: logical row order, ToMO / snapshot / digest
// bytes, and every query result are independent of it, at any thread count —
// the segment layout is deliberately never serialized, exactly like the
// segment manifest.
//
// Rows are addressed by *logical* RowId: the position among live rows in
// insertion order. Segmentation and tombstones are purely physical — they
// never change the logical row order, so serialized images (io/recovery) and
// MO materializations are byte-identical to the flat layout this class
// replaced. Deletion is tombstone-then-compact: EraseRows marks rows dead and
// rewrites a segment only once its tombstone ratio crosses
// kCompactTombstoneRatio (segments left with no live row are dropped).
//
// The table supports the operations the strategy needs: bulk append,
// predicate scans, physical deletion of migrated rows, cell-level compaction
// (the "aggregated one final time" step of Section 7.2), and byte-level
// accounting for the storage-gain experiments.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "mdm/mo.h"
#include "storage/column.h"

namespace dwred {

/// Logical row index within a FactTable (position among live rows).
using RowId = uint64_t;

/// FNV-1a hash over a cell key (one ValueId per dimension) — the one hash
/// every cell-keyed map in the system uses: reduction grouping
/// (reduce/semantics.cc), schema reduction (reduce/schema_reduction.cc),
/// subcube compaction (CompactCells), and query grouping
/// (query/operators.cc).
struct CellKeyHash {
  size_t operator()(const std::vector<ValueId>& v) const {
    size_t h = 0xcbf29ce484222325ull;
    for (ValueId x : v) {
      h ^= x;
      h *= 0x100000001b3ull;
    }
    return h;
  }
};

/// Columnar fact storage of one subcube. Live tables report their aggregate
/// row/byte footprint through the dwred_storage_fact_rows /
/// dwred_storage_fact_bytes gauges, and the encoded-vs-row byte split
/// through dwred_storage_bytes_{row,columnar,saved}.
class FactTable {
 public:
  /// Row budget of one segment when the constructor is not given one and the
  /// DWRED_SEGMENT_ROWS environment variable is unset.
  static constexpr size_t kDefaultSegmentRows = 4096;
  /// Validation range of DWRED_SEGMENT_ROWS (values outside are clamped with
  /// an obs warning, the DWRED_THREADS convention).
  static constexpr size_t kMinSegmentRows = 16;
  static constexpr size_t kMaxSegmentRows = size_t{1} << 22;
  /// Tombstone fraction (dead / physical rows) at which EraseRows rewrites a
  /// segment in place instead of deferring.
  static constexpr double kCompactTombstoneRatio = 0.25;
  /// Rows per ForEachBatch chunk: big enough to amortize the per-batch
  /// dispatch, small enough that one batch's decoded columns stay cache-hot.
  static constexpr size_t kBatchRows = 1024;

  /// `segment_rows` caps the rows per segment; 0 means DWRED_SEGMENT_ROWS
  /// when set (validated and clamped), else kDefaultSegmentRows. Tests and
  /// benches pass small budgets to exercise many segments. The budget is
  /// physical layout only — it never changes logical bytes.
  FactTable(size_t num_dims, size_t num_measures, size_t segment_rows = 0);
  ~FactTable();

  FactTable(const FactTable& other);
  FactTable& operator=(const FactTable& other);
  FactTable(FactTable&& other) noexcept;
  FactTable& operator=(FactTable&& other) noexcept;

  size_t num_rows() const { return num_rows_; }
  size_t num_dims() const { return ndims_; }
  size_t num_measures() const { return nmeas_; }
  size_t segment_rows() const { return segment_rows_; }

  /// Monotonic mutation counter: advances whenever the logical row content
  /// changes (Append/AppendFrom, rows actually erased by EraseRows, cells
  /// actually folded by CompactCells). Copies inherit the source's counter.
  /// The cache layer (src/cache) compares it across an epoch-pinned read to
  /// assert the snapshot-isolation contract: a table observed under the
  /// shared lock must not move while the query runs.
  uint64_t content_version() const { return content_version_; }

  /// Appends one row to the tail segment (sealing it — and encoding its
  /// columns when the columnar path is enabled — when it reaches the row
  /// budget).
  RowId Append(std::span<const ValueId> coords,
               std::span<const int64_t> measures);

  /// Appends `rows` rows given row-major (`coords`: rows × num_dims,
  /// `measures`: rows × num_measures): the segments, zone maps and seal
  /// points of `rows` Append calls, with the footprint gauges updated once.
  void AppendRows(size_t rows, std::span<const ValueId> coords,
                  std::span<const int64_t> measures);

  ValueId Coord(RowId r, size_t d) const {
    auto [s, p] = Locate(r);
    const Segment& seg = segs_[s];
    return seg.encoded ? seg.edims[d].At(p) : seg.dims[d][p];
  }
  int64_t Measure(RowId r, size_t m) const {
    auto [s, p] = Locate(r);
    const Segment& seg = segs_[s];
    return seg.encoded ? seg.emeas[m].At(p) : seg.meas[m][p];
  }

  /// Copies a row's coordinates into `out` (size num_dims).
  void ReadCoords(RowId r, ValueId* out) const;

  /// Deletes the rows whose flag is set (paper: reduction ends in physical
  /// deletion of the detail facts). Rows are tombstoned per segment; a
  /// segment is rewritten once its tombstone ratio reaches
  /// kCompactTombstoneRatio and dropped once no live row remains. Logical
  /// row ids are invalidated (the survivors renumber in order). Fails with
  /// InvalidArgument when the bitmap's size does not match the current row
  /// count (deleting against a stale bitmap would silently drop the wrong
  /// facts).
  Status EraseRows(const std::vector<bool>& erase);

  /// Merges rows with identical coordinates by folding measures with `aggs`
  /// (one AggFn per measure). Used after subcube migration, where data
  /// arriving from several parents may populate the same cell. Keeps the
  /// first occurrence of each cell (so the logical order is the
  /// first-occurrence order, as before segmentation) and rebuilds the
  /// segment manifest. Returns the number of rows folded away; fails with
  /// InvalidArgument when `aggs` does not supply one function per measure.
  Result<size_t> CompactCells(std::span<const AggFn> aggs);

  /// Exact resident bytes of the stored column payloads — encoded size for
  /// encoded segments, row-equivalent size for plain ones (tombstoned rows
  /// included until their segment is compacted).
  size_t Bytes() const { return data_bytes_; }

  /// What the same physical rows would occupy un-encoded (the PR-4 layout):
  /// one ValueId per dimension + one int64 per measure per physical row.
  /// Bytes() <= RowEquivalentBytes() always — encodings are only kept when
  /// they win.
  size_t RowEquivalentBytes() const { return phys_rows_ * RowWidth(); }

  /// Capacity-based heap footprint for memory budgets (the PR-8 rule:
  /// budgets count capacity, not size) — includes encoded payloads, code and
  /// run buffers, tombstone bitmaps, live-row indexes, and zone maps.
  size_t ApproxBytes() const;

  /// Materializes the rows as an MO over the given dimensions and measure
  /// types (shared with the rest of the warehouse) so the algebraic query
  /// operators apply directly.
  MultidimensionalObject ToMO(
      const std::string& fact_type,
      const std::vector<std::shared_ptr<Dimension>>& dims,
      const std::vector<MeasureType>& measures) const;

  /// Appends every fact of an MO (granularities are the caller's concern).
  /// Fails with InvalidArgument when the MO's dimension or measure count
  /// does not match the table's column layout.
  Status AppendFrom(const MultidimensionalObject& mo);

  // --- Segment manifest (scan planner, dwredctl storage, tests) -----------

  size_t num_segments() const { return segs_.size(); }
  /// Logical id of the segment's first live row.
  RowId SegmentBegin(size_t s) const { return starts_[s]; }
  size_t SegmentLiveRows(size_t s) const { return segs_[s].live; }
  size_t SegmentPhysicalRows(size_t s) const { return segs_[s].phys; }
  size_t SegmentTombstones(size_t s) const { return segs_[s].dead_count; }
  bool SegmentSealed(size_t s) const { return segs_[s].sealed; }
  /// True when the segment's columns live in encoded form (seal-time choice;
  /// storage/column.h).
  bool SegmentEncoded(size_t s) const { return segs_[s].encoded; }
  /// Per-column physical encoding (kPlain for un-encoded segments).
  storage::ColEncoding SegmentDimEncoding(size_t s, size_t d) const {
    return segs_[s].encoded ? segs_[s].edims[d].encoding()
                            : storage::ColEncoding::kPlain;
  }
  storage::ColEncoding SegmentMeasureEncoding(size_t s, size_t m) const {
    return segs_[s].encoded ? segs_[s].emeas[m].encoding()
                            : storage::ColEncoding::kPlain;
  }
  /// Resident payload bytes of one column / one whole segment.
  size_t SegmentDimBytes(size_t s, size_t d) const {
    return segs_[s].encoded ? segs_[s].edims[d].DataBytes()
                            : segs_[s].phys * sizeof(ValueId);
  }
  size_t SegmentMeasureBytes(size_t s, size_t m) const {
    return segs_[s].encoded ? segs_[s].emeas[m].DataBytes()
                            : segs_[s].phys * sizeof(int64_t);
  }
  size_t SegmentBytes(size_t s) const { return SegmentDataBytesOf(segs_[s]); }
  /// Zone maps over the segment's live rows (every segment has >= 1).
  ValueId SegmentDimMin(size_t s, size_t d) const { return segs_[s].dmin[d]; }
  ValueId SegmentDimMax(size_t s, size_t d) const { return segs_[s].dmax[d]; }
  int64_t SegmentMeasureMin(size_t s, size_t m) const {
    return segs_[s].mmin[m];
  }
  int64_t SegmentMeasureMax(size_t s, size_t m) const {
    return segs_[s].mmax[m];
  }

  // --- Batch iteration (the vectorized scan substrate) --------------------

  /// A borrowed view of up to kBatchRows consecutive live rows during
  /// ForEachBatch: each column is a flat pointer over the batch's rows, in
  /// logical row order (lane i is logical row first_row() + i). Pointers
  /// alias segment storage when possible (plain dense columns) and the
  /// view's decode scratch otherwise; either way they are valid only for the
  /// duration of the callback.
  class BatchView {
   public:
    size_t rows() const { return rows_; }
    RowId first_row() const { return first_; }
    size_t num_dims() const { return dims_.size(); }
    const ValueId* dim_col(size_t d) const { return dims_[d]; }
    const int64_t* meas_col(size_t m) const { return meas_[m]; }
    /// All dimension columns at once — the shape vm::PredProgram::EvalBatch
    /// consumes.
    const ValueId* const* dim_cols() const { return dims_.data(); }
    /// All measure columns at once (empty under ForEachDimBatch).
    const int64_t* const* meas_cols() const { return meas_.data(); }

   private:
    friend class FactTable;
    std::vector<const ValueId*> dims_;
    std::vector<const int64_t*> meas_;
    std::vector<ValueId> dscratch_;  ///< [ndims][kBatchRows], lazily sized
    std::vector<int64_t> mscratch_;  ///< [nmeas][kBatchRows], lazily sized
    size_t rows_ = 0;
    RowId first_ = 0;
  };

  /// Sequential chunk-at-a-time scan of the live rows [begin, end) in
  /// logical order: `fn(const BatchView&)` sees consecutive batches of up to
  /// kBatchRows rows (batches never span segments). `skip(first, n)` is
  /// consulted *before* a batch's columns are materialized — returning true
  /// elides the decode entirely and fn is not called, which is what makes
  /// late materialization actually skip work for survivor-free chunks.
  /// The table must not be mutated during the scan.
  template <typename Fn, typename Skip>
  void ForEachBatch(RowId begin, RowId end, Fn&& fn, Skip&& skip) const {
    ForEachBatchImpl(begin, end, fn, skip, /*need_measures=*/true);
  }
  template <typename Fn>
  void ForEachBatch(RowId begin, RowId end, Fn&& fn) const {
    ForEachBatchImpl(begin, end, fn, NeverSkip, /*need_measures=*/true);
  }
  /// Same, but materializes only the dimension columns (meas_col is null) —
  /// the weigh/plan passes that never read measures skip that decode.
  template <typename Fn>
  void ForEachDimBatch(RowId begin, RowId end, Fn&& fn) const {
    ForEachBatchImpl(begin, end, fn, NeverSkip, /*need_measures=*/false);
  }

  /// A borrowed view of one live row during ForEachRow.
  class RowRef {
   public:
    ValueId coord(size_t d) const { return dims_[d][i_]; }
    int64_t measure(size_t m) const { return meas_[m][i_]; }

   private:
    friend class FactTable;
    const ValueId* const* dims_ = nullptr;
    const int64_t* const* meas_ = nullptr;
    size_t i_ = 0;
  };

  /// Sequential scan of the live rows [begin, end) in logical order,
  /// skipping tombstones — implemented over ForEachBatch, so encoded
  /// segments are decoded a chunk at a time, never per row. `fn` is called
  /// as fn(RowId logical, const RowRef& row); the view is valid only for the
  /// duration of the call. The table must not be mutated during the scan.
  template <typename Fn>
  void ForEachRow(RowId begin, RowId end, Fn&& fn) const {
    RowRef ref;
    ForEachBatchImpl(
        begin, end,
        [&](const BatchView& b) {
          ref.dims_ = b.dims_.data();
          ref.meas_ = b.meas_.data();
          const RowId first = b.first_;
          for (size_t i = 0; i < b.rows_; ++i) {
            ref.i_ = i;
            fn(first + i, ref);
          }
        },
        NeverSkip, /*need_measures=*/true);
  }

 private:
  /// One physical segment: dense columns over at most segment_rows_ rows,
  /// a tombstone bitmap (empty when no row is dead), and zone maps over the
  /// live rows. A segment's columns live either in `dims`/`meas` (plain:
  /// the mutable tail, or sealed with the columnar path disabled) or in
  /// `edims`/`emeas` (encoded at seal time), never both.
  struct Segment {
    std::vector<std::vector<ValueId>> dims;   ///< [ndims][physical rows]
    std::vector<std::vector<int64_t>> meas;   ///< [nmeas][physical rows]
    std::vector<storage::EncodedColumn<ValueId>> edims;  ///< encoded form
    std::vector<storage::EncodedColumn<int64_t>> emeas;
    std::vector<uint8_t> dead;                ///< empty <=> no tombstones
    std::vector<uint32_t> live_phys;          ///< live ordinal -> physical row
    size_t phys = 0;                          ///< physical rows (live + dead)
    size_t live = 0;
    size_t dead_count = 0;
    bool sealed = false;
    bool encoded = false;
    std::vector<ValueId> dmin, dmax;          ///< per-dimension zone map
    std::vector<int64_t> mmin, mmax;          ///< per-measure zone map
  };

  static bool NeverSkip(RowId, size_t) { return false; }

  template <typename Fn, typename Skip>
  void ForEachBatchImpl(RowId begin, RowId end, Fn&& fn, Skip&& skip,
                        bool need_measures) const {
    if (begin >= end) return;
    BatchView b;
    b.dims_.resize(ndims_);
    b.meas_.resize(need_measures ? nmeas_ : 0);
    size_t s = static_cast<size_t>(
        std::upper_bound(starts_.begin(), starts_.end(),
                         static_cast<size_t>(begin)) -
        starts_.begin() - 1);
    for (RowId r = begin; r < end; ++s) {
      const Segment& seg = segs_[s];
      size_t lo = static_cast<size_t>(r - starts_[s]);
      const size_t hi = std::min<size_t>(
          seg.live, static_cast<size_t>(end - starts_[s]));
      while (lo < hi) {
        const size_t n = std::min(kBatchRows, hi - lo);
        b.first_ = starts_[s] + lo;
        b.rows_ = n;
        if (!skip(b.first_, n)) {
          FillBatch(seg, lo, n, need_measures, &b);
          fn(static_cast<const BatchView&>(b));
        }
        lo += n;
      }
      r = starts_[s] + hi;
    }
  }

  /// Materializes batch columns: zero-copy pointers for dense plain columns,
  /// chunk decode / tombstone gather into the view's scratch otherwise.
  void FillBatch(const Segment& seg, size_t lo, size_t n, bool need_measures,
                 BatchView* b) const;

  /// (segment, physical row) of logical row `r`.
  std::pair<size_t, size_t> Locate(RowId r) const;
  /// Bytes per physical row in the un-encoded layout.
  size_t RowWidth() const {
    return ndims_ * sizeof(ValueId) + nmeas_ * sizeof(int64_t);
  }
  /// Resident payload bytes of one segment.
  size_t SegmentDataBytesOf(const Segment& s) const;
  /// Seals the tail; encodes its columns when the columnar path is enabled.
  void SealSegment(Segment& s);
  /// Moves a segment's columns into their cheapest encodings (column.h).
  void EncodeSegment(Segment& s) const;
  /// Materializes an encoded segment back to plain columns (compaction).
  void DecodeSegment(Segment& s) const;
  /// Recomputes a segment's zone maps over its live rows.
  void RecomputeZones(Segment& s) const;
  /// Rewrites a segment's columns dropping tombstoned rows (re-encoding
  /// sealed segments when the columnar path is enabled).
  void CompactSegment(Segment& s) const;
  /// Recomputes starts_, num_rows_, phys_rows_ and data_bytes_ from the
  /// segments.
  void RecomputeIndex();

  /// Re-reports this table's contribution to the process-wide footprint
  /// gauges after a mutation (`row_delta` rows added/removed; byte deltas
  /// are derived from Bytes()/RowEquivalentBytes() against the last reported
  /// values).
  void UpdateFootprint(int64_t row_delta);
  /// Withdraws this table's whole contribution from the footprint gauges.
  void ReleaseFootprint();

  size_t ndims_ = 0;
  size_t nmeas_ = 0;
  size_t segment_rows_ = kDefaultSegmentRows;
  size_t num_rows_ = 0;   ///< live rows across all segments
  size_t phys_rows_ = 0;  ///< physical rows (live + tombstoned)
  size_t data_bytes_ = 0;  ///< resident column payload bytes (== Bytes())
  std::vector<Segment> segs_;
  std::vector<size_t> starts_;  ///< logical id of each segment's first row
  size_t reported_bytes_ = 0;   ///< bytes currently credited to the gauges
  size_t reported_row_bytes_ = 0;  ///< row-equivalent bytes credited
  uint64_t content_version_ = 0;  ///< see content_version()
};

}  // namespace dwred
