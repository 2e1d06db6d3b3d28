#pragma once

// The multidimensional object (paper Section 3): an MO is (S, F, D, R, M) —
// schema, facts, dimensions, fact-dimension relations, measures. Here the MO
// owns its fact set in structure-of-arrays layout (one ValueId per dimension
// per fact — the single fact-dimension relation entry the model mandates —
// and one int64 per measure per fact); dimensions are shared_ptr so reduced
// MOs, query results and subcubes share the dimension instances, mirroring
// the paper's "the reduced object has the same schema and dimensions".
//
// Facts carry optional display names (the paper's fact_0 ... fact_6),
// provenance (the constituent original facts of a reduced fact), and the id
// of the action *responsible* for their current granularity — Section 4
// requires being able to tell users why data is aggregated the way it is.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "mdm/dimension.h"
#include "mdm/schema.h"

namespace dwred {

/// A dimensional fact base: facts characterized by one value per dimension,
/// carrying one value per measure.
class MultidimensionalObject {
 public:
  /// Creates an empty MO over the given dimensions and measures.
  MultidimensionalObject(std::string fact_type,
                         std::vector<std::shared_ptr<Dimension>> dims,
                         std::vector<MeasureType> measures);

  const std::string& fact_type() const { return fact_type_; }
  size_t num_dimensions() const { return dims_.size(); }
  size_t num_measures() const { return measures_.size(); }
  size_t num_facts() const { return num_facts_; }

  const std::shared_ptr<Dimension>& dimension(DimensionId d) const {
    return dims_[d];
  }
  const std::vector<std::shared_ptr<Dimension>>& dimensions() const {
    return dims_;
  }
  const MeasureType& measure_type(MeasureId m) const { return measures_[m]; }
  const std::vector<MeasureType>& measure_types() const { return measures_; }

  /// Finds a dimension / measure index by name.
  Result<DimensionId> DimensionByName(std::string_view name) const;
  Result<MeasureId> MeasureByName(std::string_view name) const;

  /// Appends a fact mapped to `coords[d]` in each dimension d with measure
  /// values `measures[m]`. Coordinates may be at any granularity (reduction
  /// and subcube migration insert aggregated facts); use AddBottomFact for
  /// user-level inserts, which the model requires to be at bottom levels.
  Result<FactId> AddFact(std::span<const ValueId> coords,
                         std::span<const int64_t> measures);

  /// AddFact + check that every coordinate lies in its dimension's bottom
  /// category (or is ⊤, the model's stand-in for "unknown").
  Result<FactId> AddBottomFact(std::span<const ValueId> coords,
                               std::span<const int64_t> measures);

  /// Pre-sizes fact storage (coords, measures, names) for `additional` more
  /// facts — the bulk-materialization entry for operators that know their
  /// output cardinality up front.
  void ReserveFacts(size_t additional) {
    coords_.reserve(coords_.size() + additional * dims_.size());
    meas_.reserve(meas_.size() + additional * measures_.size());
    fact_names_.reserve(fact_names_.size() + additional);
  }

  /// AddFact minus the per-coordinate validation, for coordinates copied
  /// verbatim from an already-validated row of a same-schema source (the
  /// selection operators' survivor materialization).
  FactId AppendFactUnchecked(std::span<const ValueId> coords,
                             std::span<const int64_t> measures) {
    FactId id = num_facts_++;
    coords_.insert(coords_.end(), coords.begin(), coords.end());
    meas_.insert(meas_.end(), measures.begin(), measures.end());
    return id;
  }

  /// AppendFactUnchecked for a whole batch: `coords` holds `rows` cells and
  /// `measures` their measure rows, both row-major.
  void AppendFactsUnchecked(size_t rows, std::span<const ValueId> coords,
                            std::span<const int64_t> measures) {
    num_facts_ += rows;
    coords_.insert(coords_.end(), coords.begin(), coords.end());
    meas_.insert(meas_.end(), measures.begin(), measures.end());
  }

  /// Every fact's cell, row-major (num_facts × num_dimensions).
  std::span<const ValueId> coord_rows() const { return coords_; }
  /// Every fact's measure row, row-major (num_facts × num_measures).
  std::span<const int64_t> measure_rows() const { return meas_; }

  /// The fact's value in dimension d (the single pair (f, v) in R_d).
  ValueId Coord(FactId f, DimensionId d) const {
    return coords_[f * dims_.size() + d];
  }
  /// The fact's whole direct cell (one ValueId per dimension, contiguous).
  std::span<const ValueId> FactCoords(FactId f) const {
    return {coords_.data() + f * dims_.size(), dims_.size()};
  }
  int64_t Measure(FactId f, MeasureId m) const {
    return meas_[f * measures_.size() + m];
  }
  /// The fact's whole measure row (one value per measure, contiguous).
  std::span<const int64_t> FactMeasures(FactId f) const {
    return {meas_.data() + f * measures_.size(), measures_.size()};
  }

  /// Overwrites a measure value in place (used by reduction and aggregation
  /// to fold partial aggregates into a group's output fact).
  void SetMeasure(FactId f, MeasureId m, int64_t value) {
    meas_[f * measures_.size() + m] = value;
  }
  /// Mutable view of the fact's measure row — the in-place accumulator for
  /// precompiled measure folds (vm::FoldProgram).
  std::span<int64_t> MutableFactMeasures(FactId f) {
    return {meas_.data() + f * measures_.size(), measures_.size()};
  }

  /// f ~> v in dimension d: the fact is characterized by v (directly related
  /// or an ancestor of the directly related value).
  bool Characterizes(FactId f, DimensionId d, ValueId v) const {
    return dims_[d]->ValueLeq(Coord(f, d), v);
  }

  /// The paper's Gran(f): the tuple of category types of the fact's direct
  /// values, one per dimension.
  std::vector<CategoryId> Gran(FactId f) const;

  // --- Presentation & provenance ------------------------------------------

  /// Optional display name; "fact_<id>" when unset.
  void SetFactName(FactId f, std::string name);
  std::string FactName(FactId f) const;

  /// Records which original facts a reduced fact aggregates (irreversibility
  /// bookkeeping) and which action was responsible.
  void SetProvenance(FactId f, std::vector<FactId> sources,
                     ActionId responsible);
  const std::vector<FactId>* Provenance(FactId f) const;
  ActionId ResponsibleAction(FactId f) const;

  /// Approximate fact-store footprint in bytes (coords + measures), used for
  /// storage-gain accounting in benches. Dimension footprints are shared and
  /// reported separately. Deliberately *size*-based: this is the logical
  /// storage-gain metric, independent of allocator slack and physical
  /// encodings (FactTable::Bytes reports the resident columnar footprint).
  size_t FactBytes() const {
    return coords_.size() * sizeof(ValueId) + meas_.size() * sizeof(int64_t);
  }

  /// What the allocator actually holds for this MO: the *capacity* of every
  /// buffer plus names and provenance. Cache admission charges this (the
  /// size-only FactBytes let the query-cache budget admit more than it
  /// should — the same undercount ScanSpec::ApproxBytes fixes).
  size_t ApproxBytes() const;

  /// One-line rendering of a fact: name, coordinates, measure values.
  std::string FormatFact(FactId f) const;

 private:
  std::string fact_type_;
  std::vector<std::shared_ptr<Dimension>> dims_;
  std::vector<MeasureType> measures_;

  size_t num_facts_ = 0;
  std::vector<ValueId> coords_;  // num_facts x num_dimensions
  std::vector<int64_t> meas_;    // num_facts x num_measures

  std::vector<std::string> fact_names_;           // sparse; "" = default
  std::vector<std::vector<FactId>> provenance_;   // sparse
  std::vector<ActionId> responsible_;             // sparse; kNoAction default
};

}  // namespace dwred
