#pragma once

// The algebraic query operators over (possibly reduced) MOs — paper
// Section 6: selection with the conservative/liberal/weighted approaches
// (eq. (36)), projection (eq. (37)), and aggregate formation (Definition 6)
// with the availability approach (default), plus the strict and LUB
// approaches the paper enumerates. The disaggregated approach (imprecise
// answers via disaggregation, ref [13] of the paper) is out of scope and
// documented as such.

#include "query/compare.h"
#include "spec/action.h"
#include "vm/compiled_scan.h"

namespace dwred {

/// Result of a selection: the restricted MO and, under the weighted
/// approach, one certainty weight per returned fact.
struct SelectionResult {
  MultidimensionalObject mo;
  std::vector<double> weights;  ///< empty unless weighted
};

/// σ[p](O): facts characterized by values satisfying p, under the given
/// approach. Fact names, provenance and responsible actions are preserved.
/// A non-null `compiled` (a vm::PredProgram of `pred` under `approach` at
/// `now_day`) replaces the per-fact tree walk with bytecode table lookups;
/// results are byte-identical either way (docs/COMPILATION.md).
Result<SelectionResult> Select(const MultidimensionalObject& mo,
                               const PredExpr& pred, int64_t now_day,
                               SelectionApproach approach =
                                   SelectionApproach::kConservative,
                               const std::shared_ptr<const vm::PredProgram>&
                                   compiled = nullptr);

/// The fused scan-and-select of the pruned query path: evaluates σ[pred]
/// directly over the plan's rows of a fact table, with no intermediate MO.
/// Byte-identical to Select(t.ToMO(...), pred, ...) whenever the plan was
/// built from a sound ScanSpec of `pred`: facts are emitted in ascending
/// logical row order under their table-scan names ("fact_<logical row>"),
/// so output does not depend on pruning or thread count. `compiled` as in
/// Select; when null every row is weighed by the tree interpreter. A null
/// `pred` selects every planned row (weight 1).
Result<SelectionResult> SelectFromScan(
    const FactTable& t, const scan::ScanPlan& plan, const PredExpr* pred,
    int64_t now_day, SelectionApproach approach, const std::string& fact_type,
    const std::vector<std::shared_ptr<Dimension>>& dims,
    const std::vector<MeasureType>& measures,
    const std::shared_ptr<const vm::PredProgram>& compiled = nullptr);

/// π[dims][measures](O): retains the given dimensions and measures; the fact
/// set is unchanged (duplicate value combinations are kept, as in star
/// schemas).
Result<MultidimensionalObject> Project(const MultidimensionalObject& mo,
                                       const std::vector<DimensionId>& dims,
                                       const std::vector<MeasureId>& measures);

/// How aggregate formation treats facts already above the requested level
/// (paper Section 6.3).
enum class AggregationApproach : uint8_t {
  kAvailability,  ///< aggregate each fact to the finest available level >= desired
  kStrict,        ///< drop facts above the desired level
  kLub,           ///< aggregate everything to the LUB of desired + available
  /// Split facts above the desired level uniformly across their materialized
  /// descendant cells at that level. Answers have the requested granularity
  /// but are *imprecise* (the paper's fourth approach): SUM measures are
  /// split with exact integer totals (remainders go to the leading cells);
  /// MIN/MAX are copied, which can only widen their true range. Facts with
  /// no materialized descendants fall back to the availability behaviour.
  kDisaggregated,
};

const char* AggregationApproachName(AggregationApproach a);

/// α[C_1j1, ..., C_njn](O) (Definition 6): groups facts by their values at
/// the requested granularity — facts mapped directly to higher-granularity
/// values group at those values (Group_high) — and folds measures with their
/// default aggregate functions.
/// `rollup` optionally supplies the per-dimension rollup tables compiled for
/// `target` (vm::RollupProgram, cached per epoch+granularity by the subcube
/// manager); ignored under the LUB approach, whose effective categories are
/// data-dependent. When absent the walk is table-compiled locally only if
/// the fact count amortizes the compilation, else evaluated per fact.
Result<MultidimensionalObject> AggregateFormation(
    const MultidimensionalObject& mo, const std::vector<CategoryId>& target,
    AggregationApproach approach = AggregationApproach::kAvailability,
    bool track_provenance = true,
    const std::shared_ptr<const vm::RollupProgram>& rollup = nullptr);

/// α's availability rule (Section 6.3) applied to column batches: a
/// coordinate whose category sits at or below target[d] rolls up to its
/// ancestor there; any other coordinate stays as it is (the finest available
/// level at or above the target). `tables` (a vm::RollupProgram compiled for
/// `target`; may be null) replaces the Leq/Rollup walk with one lookup per
/// coordinate. A row with a coordinate the tables do not cover (interned
/// after compilation; counted in dwred_vm_fallbacks), or every row when no
/// tables compiled, walks the hierarchy instead — with identical results.
class AvailabilityRollup {
 public:
  AvailabilityRollup(std::vector<std::shared_ptr<Dimension>> dims,
                     std::vector<CategoryId> target,
                     std::shared_ptr<const vm::RollupProgram> tables);

  /// Rolls lane i < n of `cols` (cols[d][i]: dimension d) into out[d][i].
  void RollColumns(const ValueId* const* cols, size_t n,
                   ValueId* const* out) const;
  /// Rolls one cell (one coordinate per dimension) into `out`.
  void RollCell(const ValueId* in, ValueId* out) const;

  const vm::RollupProgram* tables() const { return tables_.get(); }

 private:
  /// The walk the tables replace, for one coordinate.
  ValueId Walk(size_t d, ValueId v) const;

  std::vector<std::shared_ptr<Dimension>> dims_;
  std::vector<CategoryId> target_;
  std::shared_ptr<const vm::RollupProgram> tables_;
};

/// The α[target] fold of the fused query operators (AggregateFromScan and
/// the stale subcube evaluation, docs/COMPILATION.md): lanes of column
/// batches whose weight is > 0 roll up to `target` under the availability
/// approach and fold into their output group in arrival order. Groups appear
/// in first-occurrence order and measures combine with CombineMeasure, so
/// the result is byte-identical to
///   AggregateFormation(<the folded lanes as an MO>, target, kAvailability,
///                      /*track_provenance=*/false, rollup).
/// With rollup tables and cell keys that fit 64 bits, each dimension's table
/// is pre-shifted into its packed key field, so a lane's group key is one
/// gather + OR per dimension and the group probe hashes one integer;
/// otherwise groups key on the rolled cell vector.
class AvailabilityFold {
 public:
  AvailabilityFold(const std::string& fact_type,
                   const std::vector<std::shared_ptr<Dimension>>& dims,
                   const std::vector<MeasureType>& measures,
                   const std::vector<CategoryId>& target,
                   std::shared_ptr<const vm::RollupProgram> rollup);
  ~AvailabilityFold();
  AvailabilityFold(const AvailabilityFold&) = delete;
  AvailabilityFold& operator=(const AvailabilityFold&) = delete;

  /// Folds every lane i < n with w[i] > 0: cols[d][i] and meas[m][i] are the
  /// lane's coordinates and measures.
  void Fold(const ValueId* const* cols, const int64_t* const* meas, size_t n,
            const double* w);

  /// The folded groups. The fold is spent afterwards.
  MultidimensionalObject Take();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The fully fused σ→α of the compiled query path: selection weights are
/// computed over the plan's rows and each surviving row's rolled-up cell is
/// folded straight into its output group (AvailabilityFold), skipping the
/// intermediate selection MO entirely. Byte-identical to
///   AggregateFormation(SelectFromScan(t, plan, pred, now_day, approach,
///                      ..., compiled).mo, target, kAvailability,
///                      /*track_provenance=*/false, rollup)
/// because rows are visited in the same ascending logical order, so group
/// discovery order and measure fold order are unchanged
/// (docs/COMPILATION.md). Availability approach only — the only one the
/// subcube query path combines with. `compiled` may be null (per-row tree
/// interpretation) and so may `rollup` (per-row walks); a null `pred` folds
/// every planned row with weight 1.
Result<MultidimensionalObject> AggregateFromScan(
    const FactTable& t, const scan::ScanPlan& plan, const PredExpr* pred,
    int64_t now_day, SelectionApproach approach, const std::string& fact_type,
    const std::vector<std::shared_ptr<Dimension>>& dims,
    const std::vector<MeasureType>& measures,
    const std::vector<CategoryId>& target,
    const std::shared_ptr<const vm::PredProgram>& compiled,
    const std::shared_ptr<const vm::RollupProgram>& rollup);

/// The paper's Group_high (eq. (38)), exposed for tests: all facts
/// characterized by every value of `cell` and mapped *directly* to those cell
/// values whose category exceeds the target granularity.
std::vector<FactId> GroupHigh(const MultidimensionalObject& mo,
                              std::span<const ValueId> cell,
                              std::span<const CategoryId> target);

}  // namespace dwred
