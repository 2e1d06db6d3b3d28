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
#include <string_view>
#include <unordered_map>
#include <vector>

#include "spec/action.h"
#include "storage/fact_table.h"
#include "vm/program.h"

namespace dwred {

/// Definition 2's decision for one fact at a time t: Spec_gran and its
/// maximum under <=_p, from the fact's own granularity and the actions its
/// direct cell satisfies.
struct SpecGran {
  /// Two satisfied granularities are not totally ordered — impossible for a
  /// specification that passed the NonCrossing check. The fields below are
  /// then unset; NonCrossingError reports the fact.
  bool crossing = false;
  /// A satisfied deletion action dominates (the Section 8 extension;
  /// deletion sits above every granularity): the fact is removed.
  bool deleted = false;
  /// The action that supplied the maximum: the deletion action when
  /// `deleted`, kNoAction when no action is satisfied.
  ActionId responsible = kNoAction;
  /// Spec_gran's maximum: per dimension, the LUB of the fact's own category
  /// and the responsible action's, so a ⊤-mapped coordinate ("unknown
  /// value") stays at ⊤ while the others aggregate. The fact's own
  /// granularity when it is deleted.
  std::vector<CategoryId> gran;
};

/// The Internal error of a SpecGran::crossing decision, naming `what`.
Status NonCrossingError(std::string_view what);

/// The SpecGran of one direct cell at `now_day`, every action predicate
/// evaluated by the tree interpreter (EvalPredOnCell): the interpreted
/// oracle of CellAssigner::Decide.
SpecGran SpecGranOfCell(const MultidimensionalObject& mo,
                        const ReductionSpecification& spec,
                        std::span<const ValueId> cell, int64_t now_day);

/// The paper's Spec_gran + Max_<=p for one fact, interpreted (SpecGranOfCell
/// of its direct cell): the granularity, plus the responsible action and
/// whether a deletion action claims the fact. Fails (Internal) if the
/// satisfied granularities are not totally ordered.
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
  /// The responsible action (SpecGran::responsible).
  ActionId responsible = kNoAction;
  /// Cell(f, t); the fact's direct cell when it is deleted. Valid during the
  /// callback only.
  std::span<const ValueId> cell;
};

/// One compiled 0/1 program per specification action (src/vm); a null slot
/// interprets that action.
using ActionPrograms = std::vector<std::shared_ptr<const vm::PredProgram>>;

/// Compiles `spec`'s action predicates at `now_day` against `mo`'s
/// dimensions. A set `memo` stands between each action and its compilation:
/// it receives the predicate and the compile step and returns the program to
/// use (the subcube manager looks the predicate up in its program LRU).
using CompileStep = std::function<std::shared_ptr<const vm::PredProgram>()>;
ActionPrograms CompileActionPrograms(
    const MultidimensionalObject& mo, const ReductionSpecification& spec,
    int64_t now_day,
    const std::function<std::shared_ptr<const vm::PredProgram>(
        const PredExpr&, const CompileStep&)>& memo = nullptr);

/// The production implementation of Definition 2's assignment, and the only
/// code that decides where a fact goes: Reduce's shards and the durable
/// reduce digest assign through Assign; the subcube planner (Synchronize,
/// the stale-query route, the specification change, the durable synchronize
/// digest) decides through Decide. Equal to SpecGranOfCell per fact
/// (tests/vm_differential_test.cc). Read-only once built, so shards share
/// one.
class CellAssigner {
 public:
  /// Compiles the action programs itself.
  CellAssigner(const MultidimensionalObject& mo,
               const ReductionSpecification& spec, int64_t now_day);
  CellAssigner(const MultidimensionalObject& mo,
               const ReductionSpecification& spec, int64_t now_day,
               ActionPrograms progs);

  const ActionPrograms& programs() const { return progs_; }

  /// One shard's state across the chunks it decides. Not shared between
  /// threads.
  struct Shard {
    /// One decision per distinct (category tuple, satisfied actions) key,
    /// numbered from 0 in first-seen order; `memo` maps a key to its number.
    std::vector<SpecGran> decisions;
    std::unordered_map<std::vector<uint32_t>, uint32_t, CellKeyHash> memo;
    // Reused buffers: the lane key, the chunk's lanes and a row's cell.
    std::vector<uint32_t> key;
    std::vector<double> lanes;
    std::vector<ValueId> cell;
    vm::PredProgram::BatchScratch scratch;
  };

  /// Decides the n <= FactTable::kBatchRows lanes of a column chunk
  /// (`cols[d]` is dimension d's column). Every compiled action runs once
  /// over the chunk (EvalBatch); a lane its program cannot answer
  /// (kOutOfRange), and an action without a program, is interpreted on that
  /// row. Lane k's satisfied actions count up to the first deletion action,
  /// which decides the fact alone. Writes lane k's decision number to
  /// ids[k].
  void Decide(const ValueId* const* cols, size_t n, Shard* shard,
              uint32_t* ids) const;

  /// Assigns facts [begin, end) in fact order: each chunk is transposed to
  /// columns and decided, then each fact rolls up to Cell(f, t). Calls
  /// `visit` once per fact; stops at the first fact whose assignment fails
  /// and returns that error.
  Status Assign(FactId begin, FactId end,
                const std::function<void(const CellAssignment&)>& visit) const;

 private:
  const MultidimensionalObject& mo_;
  const ReductionSpecification& spec_;
  int64_t now_day_;
  ActionPrograms progs_;
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
