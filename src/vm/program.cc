#include "vm/program.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace dwred::vm {

namespace {

obs::Counter& CompilesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dwred_vm_compiles", "predicate programs compiled to bytecode");
  return c;
}

obs::Counter& CacheHitsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dwred_vm_cache_hits", "compiled predicate programs served from cache");
  return c;
}

obs::Counter& FallbacksCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dwred_vm_fallbacks",
      "eligible evaluations that used the tree interpreter instead of the VM");
  return c;
}

}  // namespace

void CountFallback() { FallbacksCounter().Increment(); }
void CountCacheHit() { CacheHitsCounter().Increment(); }

// Recursive lowering. `depth` tracks slots of the fixed evaluation stack in
// use at the emit point (one per unfinished AND/OR fold); jump targets are
// backpatched to the first instruction after the connective's last kid.
struct PredProgram::Compiler {
  const MultidimensionalObject& ctx;
  const scan::AtomOracle& oracle;
  PredProgram p;
  bool ok = true;
  uint32_t depth = 0;
  // Structurally identical atoms (same dim/category/op/operands render the
  // same) share one table — DNF-shaped inputs repeat atoms heavily.
  std::map<std::string, uint32_t> table_index;

  Compiler(const MultidimensionalObject& c, const scan::AtomOracle& o)
      : ctx(c), oracle(o) {}

  uint32_t InternTable(const Atom& a) {
    std::string key = a.ToString(ctx);
    auto it = table_index.find(key);
    if (it != table_index.end()) return it->second;
    const Dimension& dim = *ctx.dimension(a.dim);
    const size_t extent = dim.num_values();
    if (extent > kMaxTableValues) {
      ok = false;
      return 0;
    }
    Table t;
    t.dim = static_cast<uint32_t>(a.dim);
    t.offset = static_cast<uint32_t>(p.weights_.size());
    t.size = static_cast<uint32_t>(extent);
    p.weights_.reserve(p.weights_.size() + extent);
    for (size_t v = 0; v < extent; ++v) {
      p.weights_.push_back(oracle(a, dim, static_cast<ValueId>(v)));
    }
    const uint32_t id = static_cast<uint32_t>(p.tables_.size());
    p.tables_.push_back(t);
    table_index.emplace(std::move(key), id);
    return id;
  }

  void Emit(const PredExpr& e) {
    if (!ok) return;
    switch (e.kind) {
      case PredExpr::Kind::kTrue:
        p.code_.push_back({Op::kConst, 1});
        return;
      case PredExpr::Kind::kFalse:
        p.code_.push_back({Op::kConst, 0});
        return;
      case PredExpr::Kind::kAtom: {
        const uint32_t t = InternTable(e.atom);
        if (!ok) return;
        p.code_.push_back({Op::kLoadTable, t});
        return;
      }
      case PredExpr::Kind::kNot:
        Emit(*e.kids[0]);
        p.code_.push_back({Op::kNot, 0});
        return;
      case PredExpr::Kind::kAnd:
      case PredExpr::Kind::kOr: {
        // Mirrors the interpreter's left fold with short-circuit checks
        // *after every kid*, including the first:
        //   kid0; J? end; (Push; kid_i; And/Or; J? end)*
        const bool is_and = e.kind == PredExpr::Kind::kAnd;
        const Op jump = is_and ? Op::kJumpIfZero : Op::kJumpIfOne;
        const Op fold = is_and ? Op::kAnd : Op::kOr;
        std::vector<size_t> patch;
        Emit(*e.kids[0]);
        if (!ok) return;
        patch.push_back(p.code_.size());
        p.code_.push_back({jump, 0});
        for (size_t i = 1; i < e.kids.size(); ++i) {
          p.code_.push_back({Op::kPush, 0});
          ++depth;
          if (depth > kMaxStackDepth) {
            ok = false;
            return;
          }
          p.max_depth_ = std::max(p.max_depth_, depth);
          Emit(*e.kids[i]);
          if (!ok) return;
          p.code_.push_back({fold, 0});
          --depth;
          if (i + 1 < e.kids.size()) {
            patch.push_back(p.code_.size());
            p.code_.push_back({jump, 0});
          }
        }
        const uint32_t end = static_cast<uint32_t>(p.code_.size());
        for (size_t at : patch) p.code_[at].arg = end;
        return;
      }
    }
  }
};

std::optional<PredProgram> PredProgram::Compile(
    const MultidimensionalObject& ctx, const PredExpr& pred,
    const scan::AtomOracle& oracle) {
  Compiler c(ctx, oracle);
  c.Emit(pred);
  if (!c.ok) {
    FallbacksCounter().Increment();
    return std::nullopt;
  }
  CompilesCounter().Increment();
  return std::move(c.p);
}

double PredProgram::Eval(const ValueId* coords) const {
  double stack[kMaxStackDepth];
  size_t sp = 0;
  double acc = 0.0;
  const Instr* code = code_.data();
  const size_t n = code_.size();
  for (size_t ip = 0; ip < n; ++ip) {
    const Instr in = code[ip];
    switch (in.op) {
      case Op::kConst:
        acc = in.arg != 0 ? 1.0 : 0.0;
        break;
      case Op::kLoadTable: {
        const Table& t = tables_[in.arg];
        const ValueId v = coords[t.dim];
        if (v >= t.size) return kOutOfRange;
        acc = weights_[t.offset + v];
        break;
      }
      case Op::kNot:
        acc = 1.0 - acc;
        break;
      case Op::kPush:
        stack[sp++] = acc;
        break;
      case Op::kAnd:
        acc = stack[--sp] * acc;
        break;
      case Op::kOr:
        acc = std::max(stack[--sp], acc);
        break;
      case Op::kJumpIfZero:
        if (acc == 0.0) ip = static_cast<size_t>(in.arg) - 1;
        break;
      case Op::kJumpIfOne:
        if (acc == 1.0) ip = static_cast<size_t>(in.arg) - 1;
        break;
    }
  }
  return acc;
}

void PredProgram::EvalBatch(const ValueId* const* cols, size_t n, double* out,
                            BatchScratch* scratch) const {
  // Lanes accumulate in place in `out`; the pending-fold stack gets one
  // n-wide row per depth level. Jumps are no-ops — see the header proof.
  scratch->stack.resize(static_cast<size_t>(max_depth_) * n);
  scratch->oor.assign(n, 0);
  double* stack = scratch->stack.data();
  uint8_t* oor = scratch->oor.data();
  size_t sp = 0;
  for (const Instr in : code_) {
    switch (in.op) {
      case Op::kConst: {
        const double v = in.arg != 0 ? 1.0 : 0.0;
        for (size_t i = 0; i < n; ++i) out[i] = v;
        break;
      }
      case Op::kLoadTable: {
        const Table& t = tables_[in.arg];
        const ValueId* col = cols[t.dim];
        const double* w = weights_.data() + t.offset;
        const uint32_t size = t.size;
        for (size_t i = 0; i < n; ++i) {
          const ValueId v = col[i];
          if (v >= size) {
            oor[i] = 1;
            out[i] = 0.0;
          } else {
            out[i] = w[v];
          }
        }
        break;
      }
      case Op::kNot:
        for (size_t i = 0; i < n; ++i) out[i] = 1.0 - out[i];
        break;
      case Op::kPush: {
        double* slot = stack + sp * n;
        for (size_t i = 0; i < n; ++i) slot[i] = out[i];
        ++sp;
        break;
      }
      case Op::kAnd: {
        const double* slot = stack + --sp * n;
        for (size_t i = 0; i < n; ++i) out[i] = slot[i] * out[i];
        break;
      }
      case Op::kOr: {
        const double* slot = stack + --sp * n;
        for (size_t i = 0; i < n; ++i) out[i] = std::max(slot[i], out[i]);
        break;
      }
      case Op::kJumpIfZero:
      case Op::kJumpIfOne:
        break;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (oor[i]) out[i] = kOutOfRange;
  }
}

size_t PredProgram::ApproxBytes() const {
  return sizeof(PredProgram) + code_.capacity() * sizeof(Instr) +
         tables_.capacity() * sizeof(Table) +
         weights_.capacity() * sizeof(double);
}

scan::AtomOracle SpecAtomOracle(const MultidimensionalObject& ctx,
                                int64_t now_day) {
  return [&ctx, now_day](const Atom& a, const Dimension& dim,
                         ValueId v) -> double {
    // EvalAtomOnCell reads only cell[a.dim]; every other slot is inert.
    std::vector<ValueId> cell(ctx.num_dimensions(), 0);
    cell[a.dim] = v;
    (void)dim;
    return EvalAtomOnCell(a, ctx, cell, now_day) ? 1.0 : 0.0;
  };
}

std::optional<RollupProgram> RollupProgram::Compile(
    const std::vector<std::shared_ptr<Dimension>>& dims,
    std::span<const CategoryId> want) {
  RollupProgram p;
  p.offsets_.reserve(dims.size());
  p.sizes_.reserve(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    const Dimension& dim = *dims[d];
    const size_t extent = dim.num_values();
    if (extent > PredProgram::kMaxTableValues) {
      FallbacksCounter().Increment();
      return std::nullopt;
    }
    p.offsets_.push_back(static_cast<uint32_t>(p.table_.size()));
    p.sizes_.push_back(static_cast<uint32_t>(extent));
    p.table_.reserve(p.table_.size() + extent);
    for (size_t v = 0; v < extent; ++v) {
      const auto vv = static_cast<ValueId>(v);
      ValueId entry = kNotBelow;
      if (dim.type().Leq(dim.value_category(vv), want[d])) {
        entry = dim.Rollup(vv, want[d]);
        // Same invariant the per-fact walk asserts: a value at or below the
        // requested category always has an ancestor there.
        DWRED_CHECK(entry != kInvalidValue);
      }
      p.table_.push_back(entry);
    }
  }
  CompilesCounter().Increment();
  return p;
}

size_t RollupProgram::ApproxBytes() const {
  return sizeof(RollupProgram) +
         (offsets_.capacity() + sizes_.capacity()) * sizeof(uint32_t) +
         table_.capacity() * sizeof(ValueId);
}

FoldProgram FoldProgram::Compile(std::span<const MeasureType> measures) {
  FoldProgram p;
  p.fns_.reserve(measures.size());
  for (const MeasureType& m : measures) p.fns_.push_back(m.agg);
  return p;
}

}  // namespace dwred::vm
