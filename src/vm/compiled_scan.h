#pragma once

// CompiledScan: a PredProgram bound to its per-row interpreter fallback,
// evaluating whole shards without touching the predicate AST
// (docs/COMPILATION.md). The selection operators (Select, SelectFromScan,
// AggregateFromScan) hold one of these per predicate and call Weigh* —
// behind the existing ScanSpec planning entry points, so pruning, sharding,
// and the byte-identical determinism contract are untouched.

#include <functional>
#include <memory>
#include <vector>

#include "scan/scan.h"
#include "storage/fact_table.h"
#include "vm/program.h"

namespace dwred::vm {

/// Interpreter evaluation of one direct cell — the per-row fallback when a
/// coordinate postdates the compiled tables (or no program compiled at all).
using RowEval = std::function<double(const ValueId*)>;

class CompiledScan {
 public:
  /// `prog` may be null (compile rejection): every row then goes through
  /// `fallback`. The fallback must match the program's semantics exactly —
  /// bind EvalQueryPredOnCoords for selection weights or EvalPredOnCell for
  /// 0/1 spec predicates.
  CompiledScan(std::shared_ptr<const PredProgram> prog, RowEval fallback)
      : prog_(std::move(prog)), fallback_(std::move(fallback)) {}

  /// Fills `weights` (indexed by logical row id, sized to `t`; rows outside
  /// the plan keep weight 0 — pruning guarantees they cannot match) by
  /// evaluating every planned row, shard-parallel on the global pool: each
  /// shard runs WeighBatch chunk-at-a-time over the segment columns.
  /// Deterministic: each shard writes a disjoint range.
  void WeighTable(const FactTable& t, const scan::ScanPlan& plan,
                  std::vector<double>* weights) const;

  /// Fills `weights` (one slot per fact) over an MO's facts, shard-parallel.
  /// Row-major fact chunks are transposed into column scratch and
  /// batch-evaluated.
  void WeighMo(const MultidimensionalObject& mo,
               std::vector<double>* weights) const;

  /// Evaluates one column batch into out[0..b.rows()): EvalBatch across the
  /// lanes, then the per-row interpreter fallback for out-of-range lanes
  /// (or for every lane when no program compiled).
  void WeighBatch(const FactTable::BatchView& b, double* out,
                  PredProgram::BatchScratch* scratch) const {
    WeighColumns(b.dim_cols(), b.num_dims(), b.rows(), out, scratch);
  }

  /// WeighBatch over caller-built columns: `cols[d]` holds lane i's
  /// coordinate of dimension d for i < n (e.g. a batch already rolled up to
  /// a subcube's granularity).
  void WeighColumns(const ValueId* const* cols, size_t ndims, size_t n,
                    double* out, PredProgram::BatchScratch* scratch) const;

 private:
  std::shared_ptr<const PredProgram> prog_;
  RowEval fallback_;
};

}  // namespace dwred::vm
