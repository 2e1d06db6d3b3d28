#pragma once

// Bytecode compilation of selection predicates and measure folds (the
// ROADMAP's "compile the hot tree walks" lever; see docs/COMPILATION.md).
//
// The hot loops of Reduce, Synchronize, and query selection all evaluate one
// predicate tree per row. Every atom of that tree depends on exactly one
// direct coordinate (EvalAtomOnCell / EvalQueryAtomOnValue read only
// cell[atom.dim]), so an atom is fully described by a per-ValueId weight
// table over its dimension's extent. PredProgram::Compile materializes those
// tables once — by asking the caller-supplied atom oracle for every interned
// value — and lowers the connective structure to a flat accumulator/stack
// bytecode whose short-circuit jumps and floating-point fold order replicate
// the interpreter *exactly*:
//
//   AND: left-fold product, short-circuit on 0.0   (kPush/kAnd/kJumpIfZero)
//   OR:  left-fold max,     short-circuit on 1.0   (kPush/kOr/kJumpIfOne)
//   NOT: 1 - w                                     (kNot)
//
// so compiled weights are bitwise identical to EvalQueryPredOnFact (weighted
// approach included) and, with a 0/1 oracle, to EvalPredOnCell. The tree is
// compiled as-is — NOT through the DNF transform — because weighted
// semantics are not DNF-invariant (max-of-products changes the weight of a
// negated disjunction); DNF stays where it always was, in ScanSpec pruning.
//
// Compilation is best-effort: a dimension too large to enumerate
// (> kMaxTableValues, matching ScanSpec's enumeration cap) or a tree deeper
// than the fixed evaluation stack yields nullopt and the caller falls back
// to the interpreter (counted by dwred_vm_fallbacks). Eval defends against
// coordinates interned *after* compilation (the epoch contract makes this a
// cache-keying bug, but exactness beats trust): an out-of-range coordinate
// returns kOutOfRange and the caller interprets that one row.
//
// The compiled path is the only production path. The tree interpreter keeps
// two roles: the per-row fallback described above, and the oracle the
// differential tests compare against (src/testing/reference.h).
//
// Observability: dwred_vm_compiles / dwred_vm_cache_hits / dwred_vm_fallbacks
// counters; OpProfile carries a `compiled` flag.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mdm/mo.h"
#include "mdm/schema.h"
#include "scan/scan.h"
#include "spec/predicate.h"

namespace dwred::vm {

/// Bumps dwred_vm_fallbacks: an eligible site evaluated via the interpreter
/// (compile rejection or an out-of-range coordinate).
void CountFallback();
/// Bumps dwred_vm_cache_hits: a compiled program served from the cache.
void CountCacheHit();

/// A predicate compiled to flat bytecode over per-ValueId atom weight tables.
/// Immutable after compilation; safe to share read-only across the parallel
/// shard fan-out.
class PredProgram {
 public:
  /// Enumeration cap per atom table (same bound as ScanSpec compilation).
  static constexpr size_t kMaxTableValues = 1 << 16;
  /// Fixed evaluation stack; one slot per unfinished AND/OR fold.
  static constexpr size_t kMaxStackDepth = 64;
  /// Eval sentinel: a coordinate postdates compilation — interpret this row.
  static constexpr double kOutOfRange = -1.0;

  /// Lowers `pred` against the dimensions of `ctx`, with per-(atom, value)
  /// weights supplied by `oracle` (bind query/compare's EvalQueryAtomOnValue
  /// for selection weights, or SpecAtomOracle below for 0/1 spec
  /// predicates). Returns nullopt — caller falls back to the interpreter —
  /// when some atom's dimension exceeds kMaxTableValues or the tree needs
  /// more than kMaxStackDepth pending folds. Counts dwred_vm_compiles on
  /// success, dwred_vm_fallbacks on rejection.
  static std::optional<PredProgram> Compile(const MultidimensionalObject& ctx,
                                            const PredExpr& pred,
                                            const scan::AtomOracle& oracle);

  /// Evaluates the program on one row's direct cell (one ValueId per
  /// dimension of the compiling context). Returns the selection weight in
  /// [0, 1], or kOutOfRange when a coordinate is not covered by the compiled
  /// tables.
  double Eval(const ValueId* coords) const;
  double Eval(std::span<const ValueId> coords) const {
    return Eval(coords.data());
  }

  /// Reused buffers of EvalBatch — allocate one per scan shard, not per
  /// batch.
  struct BatchScratch {
    std::vector<double> stack;  ///< [max stack depth][lane]
    std::vector<uint8_t> oor;   ///< per-lane out-of-range flag
  };

  /// Evaluates the program over a column chunk of `n` rows: `cols[d]` holds
  /// lane i's coordinate of dimension d (the FactTable::BatchView::dim_cols
  /// shape) and `out[i]` receives lane i's weight — bitwise identical to
  /// Eval on that row's cell — or kOutOfRange when some coordinate of the
  /// lane is not covered by the compiled tables.
  ///
  /// The batch interpreter runs op-at-a-time across all lanes and treats the
  /// short-circuit jumps as no-ops, which is exact, not approximate: atom
  /// weights live in [0, 1] with no NaN and no -0.0, so once a lane's
  /// accumulator short-circuits an AND at 0.0 every further kAnd leaves it
  /// at 0.0 (0.0 * w == 0.0 for w in [0, 1]), and symmetrically 1.0 absorbs
  /// under kOr's max — executing the instructions the row path would have
  /// jumped over cannot change the lane's bits. An out-of-range coordinate
  /// inside a region the row path would have skipped merely over-flags the
  /// lane: the caller's per-row interpreter fallback recomputes the exact
  /// same weight the row path returns.
  void EvalBatch(const ValueId* const* cols, size_t n, double* out,
                 BatchScratch* scratch) const;

  /// Heap accounting for the compiled-program cache (counts capacity, like
  /// ScanSpec::ApproxBytes).
  size_t ApproxBytes() const;

  size_t num_instructions() const { return code_.size(); }
  size_t num_tables() const { return tables_.size(); }

 private:
  enum class Op : uint8_t {
    kConst,       ///< acc = arg ? 1.0 : 0.0
    kLoadTable,   ///< acc = table[arg][coords[table.dim]]
    kNot,         ///< acc = 1.0 - acc
    kPush,        ///< push(acc)
    kAnd,         ///< acc = pop() * acc        (interpreter's w *= kid)
    kOr,          ///< acc = max(pop(), acc)    (interpreter's w = max(w, kid))
    kJumpIfZero,  ///< if (acc == 0.0) ip = arg (AND short-circuit)
    kJumpIfOne,   ///< if (acc == 1.0) ip = arg (OR short-circuit)
  };
  struct Instr {
    Op op;
    uint32_t arg = 0;
  };
  struct Table {
    uint32_t dim = 0;     ///< dimension whose coordinate indexes the table
    uint32_t offset = 0;  ///< first weight in weights_
    uint32_t size = 0;    ///< extent covered at compile time
  };

  struct Compiler;

  std::vector<Instr> code_;
  std::vector<Table> tables_;
  std::vector<double> weights_;  ///< all atom tables, concatenated
  uint32_t max_depth_ = 0;  ///< deepest pending-fold stack Eval can reach
};

/// A 0/1 atom oracle over spec predicates: EvalAtomOnCell probed one
/// interned value at a time. `ctx` must outlive the returned oracle (use it
/// only within the compile call).
scan::AtomOracle SpecAtomOracle(const MultidimensionalObject& ctx,
                                int64_t now_day);

/// The per-row measure fold compiled to a flat aggregate list: one
/// CombineMeasure dispatch resolved per measure, applied with no per-row
/// MeasureType lookups. Trivially exact — it calls the same CombineMeasure.
class FoldProgram {
 public:
  static FoldProgram Compile(std::span<const MeasureType> measures);

  /// acc[m] = CombineMeasure(fn[m], acc[m], in[m]) for every measure.
  void Fold(int64_t* acc, const int64_t* in) const {
    for (size_t m = 0; m < fns_.size(); ++m) {
      acc[m] = CombineMeasure(fns_[m], acc[m], in[m]);
    }
  }

  size_t num_measures() const { return fns_.size(); }

 private:
  std::vector<AggFn> fns_;
};

/// Aggregate formation's per-fact hierarchy walks — one Leq + Rollup pair
/// per dimension per row — compiled to per-dimension lookup tables over the
/// dimension's extent: entry[v] is v's unique ancestor at the requested
/// category, or kNotBelow when v's category does not sit at or below it (the
/// caller applies its aggregation approach's rule for that case). Same
/// enumeration cap, fallback contract, and out-of-range defense as
/// PredProgram; byte-exact because the tables are filled by the very walks
/// they replace.
class RollupProgram {
 public:
  /// Table sentinel: the value's category is not <= the requested category.
  static constexpr ValueId kNotBelow = kInvalidValue;

  /// Builds one table per dimension targeting `want[d]`. Returns nullopt —
  /// caller walks per fact — when a dimension exceeds
  /// PredProgram::kMaxTableValues. Counts dwred_vm_compiles / fallbacks.
  static std::optional<RollupProgram> Compile(
      const std::vector<std::shared_ptr<Dimension>>& dims,
      std::span<const CategoryId> want);

  /// Maps one row's direct cell to its target cell. Returns false when some
  /// coordinate postdates compilation (caller walks that one row).
  bool Map(const ValueId* coords, ValueId* out) const {
    for (size_t d = 0; d < sizes_.size(); ++d) {
      const ValueId v = coords[d];
      if (v >= sizes_[d]) return false;
      out[d] = table_[offsets_[d] + v];
    }
    return true;
  }

  /// Raw per-dimension table access, for callers that pre-combine the tables
  /// into their own lookup structures (the columnar fused fold pre-shifts
  /// each dimension's rolled values into packed cell-key fields). A value id
  /// >= TableSize(d) postdates compilation — same contract as Map returning
  /// false.
  size_t TableSize(size_t d) const { return sizes_[d]; }
  ValueId TableAt(size_t d, ValueId v) const { return table_[offsets_[d] + v]; }

  size_t ApproxBytes() const;

 private:
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> sizes_;
  std::vector<ValueId> table_;  ///< all per-dimension tables, concatenated
};

}  // namespace dwred::vm
