#pragma once

// Reduction semantics (paper Section 4.2 auxiliaries and Definition 2): at a
// time t, every fact is assigned the maximum granularity specified for it
// (Spec_gran / Max_<=p), mapped to the cell of dimension values at that
// granularity (Cell), grouped with the other facts of the same cell, and the
// groups' measures folded with the measures' default (distributive) aggregate
// functions. The detail facts are physically deleted — the reduced MO is a
// new fact set over the same schema and dimensions.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "spec/action.h"

namespace dwred {

namespace vm {
class PredProgram;
}  // namespace vm

/// The paper's Spec_gran + Max_<=p: the maximum of the fact's own granularity
/// and the granularities of every action whose predicate the fact's direct
/// cell satisfies at `now_day`. Also reports which action supplied the
/// maximum (kNoAction when the fact's own granularity wins) and, via
/// `deleted`, whether a satisfied *deletion* action dominates (the Section 8
/// extension; deletion sits above every granularity).
/// Fails (Internal) if the satisfied granularities are not totally ordered —
/// impossible for specifications that passed the NonCrossing check.
Result<std::vector<CategoryId>> MaxSpecGran(const MultidimensionalObject& mo,
                                            const ReductionSpecification& spec,
                                            FactId f, int64_t now_day,
                                            ActionId* responsible = nullptr,
                                            bool* deleted = nullptr);

/// The paper's Cell(f, t): the tuple of dimension values, at MaxSpecGran's
/// granularity, that the fact will be aggregated to.
Result<std::vector<ValueId>> CellOf(const MultidimensionalObject& mo,
                                    const ReductionSpecification& spec,
                                    FactId f, int64_t now_day);

/// Where Definition 2 puts one fact (CellAssigner::Assign).
struct CellAssignment {
  FactId fact = 0;
  bool deleted = false;  ///< a satisfied deletion action removes the fact
  bool changed = false;  ///< Cell(f, t) differs from the fact's direct cell
  /// The action MaxSpecGran reports responsible (kNoAction: the fact's own
  /// granularity wins).
  ActionId responsible = kNoAction;
  /// Cell(f, t); the fact's direct cell when it is deleted. Valid during the
  /// callback only.
  std::span<const ValueId> cell;
};

/// The production implementation of Definition 2's assignment, shared by
/// Reduce's shards and the durable reduce digest (io/recovery.cc): the
/// specification's action predicates compiled once (src/vm), then facts
/// assigned chunk-at-a-time. Byte-identical to MaxSpecGran + CellOf per fact
/// (tests/vm_differential_test.cc). Read-only once built, so shards share one.
class CellAssigner {
 public:
  CellAssigner(const MultidimensionalObject& mo,
               const ReductionSpecification& spec, int64_t now_day);

  /// Assigns facts [begin, end) in fact order: each chunk is transposed to
  /// columns, every compiled action evaluated over it (EvalBatch), then each
  /// fact runs MaxSpecGran on its precomputed lanes and rolls up to
  /// Cell(f, t). Calls `visit` once per fact; stops at the first fact whose
  /// assignment fails and returns that error.
  Status Assign(FactId begin, FactId end,
                const std::function<void(const CellAssignment&)>& visit) const;

 private:
  const MultidimensionalObject& mo_;
  const ReductionSpecification& spec_;
  int64_t now_day_;
  /// One program per action; null slots interpret.
  std::vector<std::shared_ptr<const vm::PredProgram>> progs_;
};

/// The paper's AggLevel_i (eq. (13)): the maximum aggregation level specified
/// in dimension `dim` for a given cell at `now_day` (bottom when no action
/// covers the cell).
Result<CategoryId> AggLevel(const MultidimensionalObject& mo,
                            const ReductionSpecification& spec,
                            DimensionId dim, std::span<const ValueId> cell,
                            int64_t now_day);

/// Statistics of one reduction pass.
struct ReduceStats {
  size_t input_facts = 0;
  size_t output_facts = 0;
  size_t facts_aggregated = 0;  ///< inputs whose granularity changed
  size_t facts_deleted = 0;     ///< inputs removed by deletion actions
};

/// Reduction options.
struct ReduceOptions {
  /// Assign merged facts names derived from their original constituents
  /// ("fact_03" for the merge of fact_0 and fact_3, as in the paper's
  /// figures) and record provenance + responsible action. Disable for bulk
  /// benchmarks.
  bool track_provenance = true;
};

/// Definition 2: the reduced MO at `now_day`. Shares schema and dimensions
/// with the input.
Result<MultidimensionalObject> Reduce(const MultidimensionalObject& mo,
                                      const ReductionSpecification& spec,
                                      int64_t now_day,
                                      const ReduceOptions& options = {},
                                      ReduceStats* stats = nullptr);

}  // namespace dwred
