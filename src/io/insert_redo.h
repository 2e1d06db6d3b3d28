#pragma once

// The redo payload of a journaled insert (docs/DURABILITY.md "Insert
// redo"): how DurableWarehouse::InsertFacts writes a batch into its intent
// record, and how planning and recovery replay read it back.
//
// Coordinates are stored symbolically — a value's category and name, a time
// granule's unit and index, or ⊤ — never as ValueIds: EnsureTimeValue
// materializes time values on demand, so a replay from an older snapshot
// re-interns them in the same order but not necessarily with the ids a
// particular live process saw. Each symbolic value is one tagged entry:
//
//   tag 0: plain value  (u32 category, str name)
//   tag 1: time granule (u8 unit, i64 index)
//   tag 2: the dimension's ⊤
//
// JournalOpKind::kInsertFacts (op kind 6), the form InsertFacts writes:
//
//   u32 nrows, u32 ndims, u32 nmeas
//   per dimension: u32 count, then that many distinct entries in
//                  first-occurrence row order (the batch's dictionary)
//   per dimension: nrows × u32, each row's index into that dictionary
//   per measure:   nrows × i64
//
// JournalOpKind::kInsertRows (op kind 1), read only — the form earlier
// builds wrote:
//
//   u32 nrows, u32 ndims, u32 nmeas
//   per row: one entry per dimension, then nmeas × i64
//
// Both decode to the same ResolvedBatch. Resolution interns time values in
// dictionary order, which is the order their first occurrences appear in
// the rows: the order the row form interned them, and the order the live
// insert did.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "io/journal.h"
#include "mdm/mo.h"

namespace dwred {

/// An insert batch resolved against the warehouse's dimensions: every
/// coordinate at its dimension's bottom category or ⊤.
struct ResolvedBatch {
  size_t rows = 0;
  std::vector<ValueId> cells;     ///< rows × dimensions, row-major
  std::vector<int64_t> measures;  ///< rows × measures, row-major
};

/// Encodes `batch` as a kInsertFacts payload. Fails with InvalidArgument
/// when a coordinate names no value of its dimension.
Result<std::string> EncodeInsertRedo(const MultidimensionalObject& batch);

/// Decodes a kInsertFacts or kInsertRows payload against the warehouse's
/// dimensions and measure count. A malformed payload — cut short, trailing
/// bytes, an unknown tag, a dictionary index out of range, a shape that is
/// not the warehouse's — is a ParseError and touches no dimension. A
/// well-formed payload with a value above its dimension's bottom category
/// (other than ⊤) is an InvalidArgument, and one naming an unknown plain
/// value is NotFound; neither interns anything. Otherwise the batch's new
/// time values are interned, in dictionary order.
Result<ResolvedBatch> DecodeInsertRedo(
    JournalOpKind kind, std::string_view aux,
    const std::vector<std::shared_ptr<Dimension>>& dims, size_t num_measures);

}  // namespace dwred
