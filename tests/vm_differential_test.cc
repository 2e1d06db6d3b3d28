// Differential fuzz harness for the compiled, columnar production path: the
// bytecode VM (src/vm), the batch scans over encoded segments, and the fused
// query operators must be *bitwise* indistinguishable from the tree
// interpreter. Three layers of evidence, all seeded and deterministic:
//
//   1. per-row weights and rollup tables — for hundreds of (schema, spec,
//      predicate, approach) cases drawn through the real generator
//      (src/testing/spec_gen) and the real parser, every fact's compiled
//      weight equals the interpreter's double bit for bit (EXPECT_EQ on
//      doubles is exact equality), under the 0/1 spec semantics and all
//      three query selection approaches; and every RollupProgram table entry
//      equals the Leq/Rollup hierarchy walk it replaces;
//   2. end-to-end oracles at 1 and 8 pool threads — subcube queries, both
//      synchronized and stale, equal the interpreter-only ReferenceQuery
//      (src/testing/reference.h); every PlanSynchronize target equals the
//      interpreted ResponsibleCube of its row, and every migrating row's
//      planned cell its Dimension::Rollup to the target cube's granularity;
//      Reduce's output cells are
//      exactly the interpreted CellOf of the surviving input facts, with the
//      folded measures; the one Spec_gran assignment agrees with an
//      independent AggLevel (eq. 13) oracle on every category, deletion and
//      plan target; a specification change's bytes are pinned; and the bytes
//      agree across thread counts;
//   3. liveness — the VM path demonstrably ran (dwred_vm_compiles moved), and
//      a predicate the compiler rejects reaches the interpreter fallback
//      (dwred_vm_fallbacks moved) with unchanged results.

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chrono/civil.h"
#include "exec/thread_pool.h"
#include "io/snapshot.h"
#include "net/command.h"
#include "obs/metrics.h"
#include "query/compare.h"
#include "reduce/semantics.h"
#include "spec/parser.h"
#include "subcube/manager.h"
#include "testing/reference.h"
#include "testing/spec_gen.h"
#include "vm/program.h"
#include "workload/clickstream.h"
#include "workload/retail.h"

namespace dwred {
namespace {

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name, "").Value();
}

/// Restores the process-wide pool to its default size on every exit path,
/// so a failure at 8 threads does not leak that size into later tests.
struct PoolSizeGuard {
  ~PoolSizeGuard() { exec::ThreadPool::ResetGlobal(2); }
};

/// Full-fidelity serialization of an MO (coordinates, measures, names,
/// provenance) — any divergence shows up as a string mismatch.
std::string Fingerprint(const MultidimensionalObject& mo) {
  std::ostringstream out;
  out << mo.num_facts() << "\n";
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    out << f << "|" << mo.FactName(f) << "|";
    for (size_t d = 0; d < mo.num_dimensions(); ++d) {
      out << mo.Coord(f, static_cast<DimensionId>(d)) << ",";
    }
    out << "|";
    for (size_t m = 0; m < mo.num_measures(); ++m) {
      out << mo.Measure(f, static_cast<MeasureId>(m)) << ",";
    }
    out << "|" << mo.ResponsibleAction(f) << "|";
    if (const std::vector<FactId>* prov = mo.Provenance(f)) {
      for (FactId s : *prov) out << s << ",";
    }
    out << "\n";
  }
  return out.str();
}

std::string CubeFingerprint(const SubcubeManager& m) {
  std::ostringstream out;
  for (size_t i = 0; i < m.num_subcubes(); ++i) {
    const FactTable& t = m.subcube(i).table;
    out << "cube " << i << " rows " << t.num_rows() << "\n";
    for (RowId r = 0; r < t.num_rows(); ++r) {
      for (size_t d = 0; d < t.num_dims(); ++d) out << t.Coord(r, d) << ",";
      out << "|";
      for (size_t mm = 0; mm < t.num_measures(); ++mm) {
        out << t.Measure(r, mm) << ",";
      }
      out << "\n";
    }
  }
  return out.str();
}

/// The generated action predicates plus boolean compositions of them — the
/// compositions drive the connective bytecode (kPush/kAnd/kOr/kNot and both
/// short-circuit jumps) far harder than flat action predicates alone.
std::vector<std::shared_ptr<PredExpr>> PredicateCorpus(
    const ReductionSpecification& spec) {
  std::vector<std::shared_ptr<PredExpr>> preds;
  for (const Action& a : spec.actions()) preds.push_back(a.predicate);
  const size_t n = preds.size();
  if (n >= 2) {
    preds.push_back(PredExpr::And({preds[0], PredExpr::Not(preds[1])}));
    preds.push_back(PredExpr::Or({preds[0], preds[1]}));
    preds.push_back(
        PredExpr::Not(PredExpr::Or({preds[1], PredExpr::Not(preds[0])})));
  }
  if (n >= 3) {
    preds.push_back(
        PredExpr::Or({preds[0], PredExpr::And({preds[1], preds[2]})}));
    preds.push_back(PredExpr::And(
        {PredExpr::Or({preds[0], preds[1]}), PredExpr::Not(preds[2])}));
  }
  preds.push_back(PredExpr::And({PredExpr::True(), preds[0]}));
  preds.push_back(PredExpr::Or({PredExpr::False(), preds[n - 1]}));
  return preds;
}

/// One (schema, spec, predicate, approach) case: compile `pred` under every
/// semantics and require bitwise weight equality with the interpreter on
/// every fact. Adds the number of cases (compiled programs) to `*cases`.
void CheckPredicate(const MultidimensionalObject& mo, const PredExpr& pred,
                    int64_t now, int* cases) {
  // 0/1 spec semantics vs EvalPredOnFact.
  if (auto prog =
          vm::PredProgram::Compile(mo, pred, vm::SpecAtomOracle(mo, now))) {
    ++*cases;
    for (FactId f = 0; f < mo.num_facts(); ++f) {
      const double w = prog->Eval(mo.FactCoords(f));
      ASSERT_NE(w, vm::PredProgram::kOutOfRange) << "stale table";
      ASSERT_EQ(w != 0.0, EvalPredOnFact(pred, mo, f, now))
          << "spec semantics diverged on fact " << f << " for "
          << pred.ToString(mo) << " at now=" << now;
    }
  }
  // Query semantics vs EvalQueryPredOnFact under all three approaches.
  for (SelectionApproach ap :
       {SelectionApproach::kConservative, SelectionApproach::kLiberal,
        SelectionApproach::kWeighted}) {
    auto prog = vm::PredProgram::Compile(mo, pred, QueryAtomOracle(now, ap));
    if (!prog) continue;
    ++*cases;
    for (FactId f = 0; f < mo.num_facts(); ++f) {
      const double got = prog->Eval(mo.FactCoords(f));
      ASSERT_NE(got, vm::PredProgram::kOutOfRange) << "stale table";
      const double want = EvalQueryPredOnFact(pred, mo, f, now, ap);
      ASSERT_EQ(got, want)  // exact: EXPECT_EQ on doubles is bitwise here
          << SelectionApproachName(ap) << " weight diverged on fact " << f
          << " for " << pred.ToString(mo) << " at now=" << now;
    }
  }
}

ReductionSpecification MustSpec(Result<ReductionSpecification> r) {
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r.value());
}

// Layer 1: ≥500 seeded per-row weight cases across two schemas (clickstream
// and retail), sound-chain and random specs, flat and composed predicates,
// spec + {conservative, liberal, weighted} semantics.
TEST(VmDifferential, PerRowWeightsMatchInterpreterAcrossSeeds) {
  int64_t compiles_before = CounterValue("dwred_vm_compiles");
  int cases = 0;
  for (uint64_t seed = 1; seed <= 24 && !::testing::Test::HasFatalFailure();
       ++seed) {
    // Alternate schemas so the corpus spans 2-dim and 3-dim universes.
    std::unique_ptr<MultidimensionalObject> mo_hold;
    int64_t start = 0;
    if (seed % 2 == 0) {
      ClickstreamConfig cfg;
      cfg.seed = 100 + seed;
      cfg.num_domains = 4 + static_cast<size_t>(seed % 5);
      cfg.urls_per_domain = 3;
      cfg.num_clicks = 220;
      cfg.span_days = 2 * 365;
      ClickstreamWorkload w = MakeClickstream(cfg);
      mo_hold = std::move(w.mo);
      start = DaysFromCivil(cfg.start);
    } else {
      RetailConfig cfg;
      cfg.seed = 200 + seed;
      cfg.num_categories = 3;
      cfg.brands_per_category = 2 + static_cast<size_t>(seed % 3);
      cfg.skus_per_brand = 3;
      cfg.num_sales = 220;
      cfg.span_days = 2 * 365;
      RetailWorkload w = MakeRetail(cfg);
      mo_hold = std::move(w.mo);
      start = DaysFromCivil(cfg.start);
    }
    const MultidimensionalObject& mo = *mo_hold;

    dwred::testing::SpecGenOptions opts;
    opts.num_actions = 3;
    opts.sound_chain = seed % 3 != 0;  // random mode every third seed
    opts.deletion_prob = 0.25;
    ReductionSpecification spec =
        MustSpec(dwred::testing::GenerateSpec(mo, seed, opts));
    ASSERT_GT(spec.size(), 0u);

    const int64_t now = start + 200 + static_cast<int64_t>((seed * 97) % 500);
    for (const std::shared_ptr<PredExpr>& p : PredicateCorpus(spec)) {
      CheckPredicate(mo, *p, now, &cases);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(cases, 500) << "differential corpus shrank below the gate";
  EXPECT_GT(CounterValue("dwred_vm_compiles"), compiles_before)
      << "no program ever compiled — the harness is not testing the VM";
}

// Layer 1b: every RollupProgram table entry, for every category of every
// dimension of both seeded schemas, equals the walk it replaces — v's
// ancestor via Dimension::Rollup when DimensionType::Leq holds, kNotBelow
// otherwise. The query oracle walks the hierarchy itself, so this is the
// direct check on the tables production aggregation reads.
TEST(VmDifferential, RollupTablesMatchHierarchyWalksAcrossSeeds) {
  int entries = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::vector<std::shared_ptr<Dimension>> dims;
    if (seed % 2 == 0) {
      ClickstreamConfig cfg;
      cfg.seed = 100 + seed;
      cfg.num_domains = 4 + static_cast<size_t>(seed % 5);
      cfg.num_clicks = 50;
      dims = MakeClickstream(cfg).mo->dimensions();
    } else {
      RetailConfig cfg;
      cfg.seed = 200 + seed;
      cfg.brands_per_category = 2 + static_cast<size_t>(seed % 3);
      cfg.num_sales = 50;
      dims = MakeRetail(cfg).mo->dimensions();
    }
    size_t max_cats = 0;
    for (const auto& d : dims) {
      max_cats = std::max(max_cats, d->type().num_categories());
    }
    for (size_t k = 0; k < max_cats; ++k) {
      std::vector<CategoryId> want(dims.size());
      for (size_t d = 0; d < dims.size(); ++d) {
        want[d] = static_cast<CategoryId>(k % dims[d]->type().num_categories());
      }
      auto prog = vm::RollupProgram::Compile(dims, want);
      ASSERT_TRUE(prog.has_value()) << "seeded dimensions fit the table cap";
      for (size_t d = 0; d < dims.size(); ++d) {
        const Dimension& dim = *dims[d];
        ASSERT_EQ(prog->TableSize(d), dim.num_values());
        for (ValueId v = 0; v < dim.num_values(); ++v, ++entries) {
          const ValueId walked =
              dim.type().Leq(dim.value_category(v), want[d])
                  ? dim.Rollup(v, want[d])
                  : vm::RollupProgram::kNotBelow;
          ASSERT_EQ(prog->TableAt(d, v), walked)
              << "seed=" << seed << " dim=" << d << " value=" << v
              << " category=" << want[d];
        }
      }
    }
  }
  EXPECT_GT(entries, 1000) << "rollup table corpus shrank";
}

// Layer 2a: Reduce against the interpreted Definition 2 oracle — every
// surviving input fact's CellOf names an output cell, the output holds no
// other cells, and each cell's measures are its members' fold — and the
// bytes agree at 1 and 8 threads.
TEST(VmDifferential, ReduceMatchesInterpretedCellsAcrossThreads) {
  ClickstreamConfig cfg;
  cfg.seed = 61;
  cfg.num_domains = 10;
  cfg.urls_per_domain = 4;
  cfg.num_clicks = 3000;
  cfg.span_days = 3 * 365;
  ClickstreamWorkload w = MakeClickstream(cfg);
  int64_t start = DaysFromCivil(cfg.start);
  const MultidimensionalObject& mo = *w.mo;

  // Seeds whose shared filters cover a large share of the facts (a domain
  // and a whole domain group); NOW runs past the data so the oldest tier's
  // deletion action fires.
  size_t facts_deleted = 0;
  size_t facts_merged = 0;
  PoolSizeGuard pool_guard;
  for (uint64_t seed : {23u, 40u}) {
    dwred::testing::SpecGenOptions opts;
    opts.num_actions = 3;
    opts.sound_chain = true;
    opts.deletion_prob = 1.0;
    ReductionSpecification spec =
        MustSpec(dwred::testing::GenerateSpec(mo, seed, opts));
    for (int64_t now : {start + 500, start + 1100, start + 1500}) {
      // The oracle: interpreted cell assignment, measures folded per cell.
      std::map<std::vector<ValueId>, std::vector<int64_t>> want;
      for (FactId f = 0; f < mo.num_facts(); ++f) {
        bool deleted = false;
        ASSERT_TRUE(MaxSpecGran(mo, spec, f, now, nullptr, &deleted).ok());
        if (deleted) {
          ++facts_deleted;
          continue;
        }
        auto cell = CellOf(mo, spec, f, now);
        ASSERT_TRUE(cell.ok()) << cell.status().message();
        std::span<const int64_t> meas = mo.FactMeasures(f);
        auto [it, fresh] = want.try_emplace(
            cell.value(), std::vector<int64_t>(meas.begin(), meas.end()));
        if (fresh) continue;
        ++facts_merged;
        for (size_t m = 0; m < meas.size(); ++m) {
          it->second[m] = CombineMeasure(
              mo.measure_type(static_cast<MeasureId>(m)).agg, it->second[m],
              meas[m]);
        }
      }

      std::string baseline;
      for (int threads : {1, 8}) {
        exec::ThreadPool::ResetGlobal(threads);
        auto reduced = Reduce(mo, spec, now);
        ASSERT_TRUE(reduced.ok()) << reduced.status().message();
        const MultidimensionalObject& out = reduced.value();
        ASSERT_EQ(out.num_facts(), want.size())
            << "seed=" << seed << " now=" << now << " threads=" << threads;
        for (FactId f = 0; f < out.num_facts(); ++f) {
          std::span<const ValueId> c = out.FactCoords(f);
          auto it = want.find(std::vector<ValueId>(c.begin(), c.end()));
          ASSERT_NE(it, want.end())
              << "output cell of " << out.FactName(f)
              << " is no input fact's interpreted cell";
          std::span<const int64_t> got = out.FactMeasures(f);
          EXPECT_EQ(std::vector<int64_t>(got.begin(), got.end()), it->second)
              << "measures of " << out.FactName(f) << " diverged";
        }
        std::string bytes = SaveWarehouse(out, spec);
        if (baseline.empty()) {
          baseline = std::move(bytes);
        } else {
          EXPECT_EQ(bytes, baseline) << "threads=" << threads
                                     << " seed=" << seed << " diverged";
        }
      }
    }
  }
  EXPECT_GT(facts_deleted, 0u) << "no fact exercised a deletion action";
  EXPECT_GT(facts_merged, 0u) << "no two facts shared a reduced cell";
}

/// ⊤-mapped rows ("unknown value", Section 3) whose routing took one of
/// ResponsibleCube's fallback branches, classified from public state only:
/// no cube has a ⊤ granularity, so such a row's cell granularity matches no
/// cube.
struct FallbackRows {
  /// "Responsible action's cube": an action claims the row.
  int64_t action_cube = 0;
  /// "Last resort: cube 0": no action claims the row.
  int64_t last_resort = 0;
};

void ClassifyFallback(const SubcubeManager& m, std::span<const ValueId> cell,
                      int64_t now, size_t cube, FallbackRows* out) {
  const MultidimensionalObject& ctx = m.context();
  bool top = false;
  for (size_t d = 0; d < cell.size(); ++d) {
    top = top || cell[d] == ctx.dimension(static_cast<DimensionId>(d))
                                ->top_value();
  }
  if (!top || cube == SubcubeManager::kDeletedCell) return;
  bool claimed = false;
  for (const Action& a : m.spec().actions()) {
    claimed = claimed || EvalPredOnCell(*a.predicate, ctx, cell, now);
  }
  if (claimed) {
    ++out->action_cube;
  } else if (cube == 0) {
    ++out->last_resort;
  }
}

/// Every row's planned target equals the interpreted ResponsibleCube of its
/// cell, and every migrating row's planned cell is its cell rolled up the
/// hierarchy (Dimension::Rollup) to the target cube's granularity — a
/// coordinate already above it (⊤-mapped) stays as it is. `rolled` counts the
/// migrating rows checked.
void ExpectPlanMatchesInterpreter(const SubcubeManager& m, int64_t now,
                                  FallbackRows* fallbacks, int64_t* rolled) {
  auto plan = m.PlanSynchronize(now);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan.value().epoch, m.epoch());
  ASSERT_EQ(plan.value().cubes.size(), m.num_subcubes());
  std::vector<ValueId> cell;
  for (size_t i = 0; i < m.num_subcubes(); ++i) {
    const FactTable& t = m.subcube(i).table;
    const size_t nd = t.num_dims();
    const CubeSyncPlan& cube_plan = plan.value().cubes[i];
    ASSERT_EQ(cube_plan.target.size(), t.num_rows());
    ASSERT_EQ(cube_plan.rolled.size(), t.num_rows() * nd);
    cell.resize(nd);
    for (RowId r = 0; r < t.num_rows(); ++r) {
      for (size_t d = 0; d < nd; ++d) cell[d] = t.Coord(r, d);
      auto want = m.ResponsibleCube(cell, now);
      ASSERT_TRUE(want.ok()) << want.status().message();
      const size_t to = cube_plan.target[r];
      ASSERT_EQ(to, want.value())
          << "cube " << i << " row " << r << " at now=" << now;
      ClassifyFallback(m, cell, now, to, fallbacks);
      if (to == i || to == SubcubeManager::kDeletedCell) continue;
      ++*rolled;
      const std::vector<CategoryId>& gran = m.subcube(to).granularity;
      for (size_t d = 0; d < nd; ++d) {
        const Dimension& dim = *m.context().dimension(static_cast<DimensionId>(d));
        ValueId up = dim.Rollup(cell[d], gran[d]);
        if (up == kInvalidValue &&
            dim.type().Leq(gran[d], dim.value_category(cell[d]))) {
          up = cell[d];
        }
        ASSERT_EQ(cube_plan.rolled[r * nd + d], up)
            << "cube " << i << " row " << r << " dim " << d << " to cube "
            << to << " at now=" << now;
      }
    }
  }
}

/// Query equals the interpreter oracle on `m` for one (pred, target, now,
/// synchronized) point; returns the query's fingerprint.
std::string ExpectQueryMatchesReference(const SubcubeManager& m,
                                        const PredExpr* pred,
                                        const std::vector<CategoryId>* target,
                                        int64_t now, bool assume_synced,
                                        bool parallel) {
  auto q = m.Query(pred, target, now, assume_synced, parallel);
  EXPECT_TRUE(q.ok()) << q.status().message();
  auto ref =
      dwred::testing::ReferenceQuery(m, pred, target, now, assume_synced);
  EXPECT_TRUE(ref.ok()) << ref.status().message();
  if (!q.ok() || !ref.ok()) return "";
  const std::string got = Fingerprint(q.value());
  EXPECT_EQ(got, Fingerprint(ref.value()))
      << "query diverged from the interpreter oracle at now=" << now
      << " synced=" << assume_synced
      << " target=" << (target != nullptr) << " pred=" << (pred != nullptr);
  return got;
}

/// ⊤-mapped copies of the first `n` clicks: even ones lose their URL, odd
/// ones their day.
MultidimensionalObject TopMappedClicks(const ClickstreamWorkload& w,
                                       size_t n) {
  const MultidimensionalObject& mo = *w.mo;
  MultidimensionalObject out(mo.fact_type(), mo.dimensions(),
                             mo.measure_types());
  std::vector<ValueId> cell(mo.num_dimensions());
  for (FactId f = 0; f < n && f < mo.num_facts(); ++f) {
    std::span<const ValueId> c = mo.FactCoords(f);
    cell.assign(c.begin(), c.end());
    const size_t d = f % 2 == 0 ? 1 : 0;  // dims are {Time, URL}
    cell[d] = mo.dimension(static_cast<DimensionId>(d))->top_value();
    EXPECT_TRUE(out.AddFact(cell, mo.FactMeasures(f)).ok());
  }
  return out;
}

// Layer 2b: Synchronize (including the deletion path) and subcube queries —
// synchronized and stale rewrites, with and without a predicate or target —
// against the interpreter oracles at 1 and 8 threads. The warehouse also
// holds ⊤-mapped facts, and a second, hand-written specification claims
// URL-⊤ facts by time alone, so routing reaches ResponsibleCube's
// "responsible action's cube" and "last resort: cube 0" branches — both in
// the plan check and in every stale query at the same NOW.
TEST(VmDifferential, SubcubeMatchesInterpreterOracleAcrossThreads) {
  ClickstreamConfig cfg;
  cfg.seed = 67;
  cfg.num_domains = 10;
  cfg.urls_per_domain = 4;
  cfg.num_clicks = 2500;
  cfg.span_days = 3 * 365;
  ClickstreamWorkload w = MakeClickstream(cfg);
  int64_t start = DaysFromCivil(cfg.start);
  const MultidimensionalObject unknown = TopMappedClicks(w, 300);

  // Seed 40's shared filter is a whole domain group; the last NOW runs past
  // the data so the deletion action claims the oldest rows.
  dwred::testing::SpecGenOptions opts;
  opts.num_actions = 3;
  opts.sound_chain = true;
  opts.deletion_prob = 1.0;  // drive ResponsibleCube's deletion branch
  std::vector<ReductionSpecification> specs;
  specs.push_back(MustSpec(dwred::testing::GenerateSpec(*w.mo, 40, opts)));
  // A time-only window: URL-⊤ facts satisfy it, and their granularity
  // (month, ⊤) names no cube. Rows that age out of the window unclaimed
  // (outside .com) stay in the month cube, but ⊤-mapped ones take the last
  // resort — so rows of one segment with the same satisfied actions route
  // apart on their category tuple alone.
  ReductionSpecification by_time;
  for (const char* text :
       {"p(a[Time.month, URL.domain] s[NOW - 24 months <= Time.month <= "
        "NOW - 6 months](O))",
        "p(a[Time.quarter, URL.domain_grp] s[URL.domain_grp = .com AND "
        "Time.quarter <= NOW - 8 quarters](O))"}) {
    auto a = ParseAction(*w.mo, text);
    ASSERT_TRUE(a.ok()) << a.status().message();
    by_time.Add(std::move(a.value()));
  }
  specs.push_back(std::move(by_time));

  auto pred = ParsePredicate(*w.mo, "Time.month >= NOW - 30 months");
  ASSERT_TRUE(pred.ok()) << pred.status().message();
  auto target = ParseGranularityList(*w.mo, "Time.month, URL.domain");
  ASSERT_TRUE(target.ok()) << target.status().message();

  FallbackRows fallbacks;
  int64_t rolled = 0;
  PoolSizeGuard pool_guard;
  for (const ReductionSpecification& spec : specs) {
    const bool deletes = std::any_of(
        spec.actions().begin(), spec.actions().end(),
        [](const Action& a) { return a.deletes; });
    std::string baseline;
    for (int threads : {1, 8}) {
      exec::ThreadPool::ResetGlobal(threads);
      const bool parallel = threads > 1;
      auto mgr = SubcubeManager::Create(
          "Click", {w.time_dim, w.url_dim},
          std::vector<MeasureType>(w.mo->measure_types()), spec);
      ASSERT_TRUE(mgr.ok()) << mgr.status().message();
      SubcubeManager& m = mgr.value();
      ASSERT_TRUE(m.InsertBottomFacts(*w.mo).ok());
      ASSERT_TRUE(m.InsertBottomFacts(unknown).ok());

      std::string fp;
      auto query = [&](const PredExpr* p,
                       const std::vector<CategoryId>* t, int64_t now,
                       bool assume_synced) {
        fp += "query@" + std::to_string(now) + "/" +
              std::to_string(assume_synced);
        fp += p != nullptr ? "/pred" : "/-";
        fp += t != nullptr ? "/target\n" : "/-\n";
        fp += ExpectQueryMatchesReference(m, p, t, now, assume_synced,
                                          parallel);
      };
      // Query the unsynchronized warehouse first (stale rewrite + per-row
      // responsibility routing) in every shape, then synchronize, querying
      // after each pass.
      const int64_t deleted = CounterValue("dwred_subcube_sync_rows_deleted");
      for (int64_t now : {start + 400, start + 900, start + 1500}) {
        for (bool assume_synced : {false, true}) {
          query(pred.value().get(), &target.value(), now, assume_synced);
        }
        query(pred.value().get(), nullptr, now, false);
        query(nullptr, &target.value(), now, false);
        if (::testing::Test::HasFailure()) return;
        ExpectPlanMatchesInterpreter(m, now, &fallbacks, &rolled);
        if (::testing::Test::HasFatalFailure()) return;
        auto migrated = m.Synchronize(now);
        ASSERT_TRUE(migrated.ok()) << migrated.status().message();
        fp += "sync@" + std::to_string(now) + "\n" + CubeFingerprint(m);
        // The synchronized shapes: fused σ→α and σ alone, pruned by the
        // predicate or over every segment without one.
        query(pred.value().get(), &target.value(), now, true);
        query(pred.value().get(), nullptr, now, true);
        query(nullptr, &target.value(), now, true);
        query(nullptr, nullptr, now, true);
        query(nullptr, nullptr, now, false);
      }
      if (deletes) {
        EXPECT_GT(CounterValue("dwred_subcube_sync_rows_deleted"), deleted)
            << "no synchronization exercised the deletion path";
      }
      if (baseline.empty()) {
        baseline = std::move(fp);
      } else {
        EXPECT_EQ(fp, baseline) << "threads=" << threads << " diverged";
      }
    }
  }
  EXPECT_GT(fallbacks.action_cube, 0)
      << "no ⊤-mapped row reached the responsible action's cube branch";
  EXPECT_GT(fallbacks.last_resort, 0)
      << "no ⊤-mapped row reached the last-resort cube 0 branch";
  EXPECT_GT(rolled, 0) << "no planned row migrated";
}

/// The clicks, every eighth one followed by a ⊤-mapped copy (alternately
/// without its URL and without its day), so ⊤-mapped facts share column
/// chunks and satisfied actions with ordinary ones.
MultidimensionalObject InterleaveTopMapped(const MultidimensionalObject& mo) {
  MultidimensionalObject out(mo.fact_type(), mo.dimensions(),
                             mo.measure_types());
  std::vector<ValueId> cell(mo.num_dimensions());
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    std::span<const ValueId> c = mo.FactCoords(f);
    cell.assign(c.begin(), c.end());
    EXPECT_TRUE(out.AddFact(cell, mo.FactMeasures(f)).ok());
    if (f % 8 != 0) continue;
    const size_t d = f % 16 == 0 ? 1 : 0;  // dims are {Time, URL}
    cell[d] = mo.dimension(static_cast<DimensionId>(d))->top_value();
    EXPECT_TRUE(out.AddFact(cell, mo.FactMeasures(f)).ok());
  }
  return out;
}

/// Spec_gran by eq. (13), independent of the production assignment: per
/// dimension, the LUB of the cell's own category and AggLevel_d of the cell
/// (AggLevel runs its own loop over the actions). Returns whether some
/// deletion action holds on the cell under the tree interpreter.
bool AggLevelOracle(const MultidimensionalObject& ctx,
                    const ReductionSpecification& spec,
                    std::span<const ValueId> cell, int64_t now,
                    std::vector<CategoryId>* want) {
  bool deleted = false;
  for (const Action& a : spec.actions()) {
    deleted = deleted ||
              (a.deletes && EvalPredOnCell(*a.predicate, ctx, cell, now));
  }
  want->resize(cell.size());
  for (size_t d = 0; d < cell.size(); ++d) {
    const auto dd = static_cast<DimensionId>(d);
    const DimensionType& type = ctx.dimension(dd)->type();
    auto level = AggLevel(ctx, spec, dd, cell, now);
    EXPECT_TRUE(level.ok()) << level.status().message();
    (*want)[d] = type.Lub(ctx.dimension(dd)->value_category(cell[d]),
                          level.ok() ? level.value() : type.bottom());
  }
  return deleted;
}

// Layer 2c: the one Spec_gran assignment against the AggLevel oracle. Every
// fact Reduce's assignment does not delete lands at Lub(Gran(f),
// AggLevel(direct cell)) in every dimension — through CellAssigner, CellOf
// and Reduce's output cells alike; a fact is deleted exactly when a deletion
// action holds on its direct cell; and every synchronize target whose
// Spec_gran names a cube is that cube. ⊤-mapped facts are interleaved with
// the ordinary ones, and the specifications overlap comparable tiers.
TEST(VmDifferential, SpecGranMatchesAggLevelOracle) {
  ClickstreamConfig cfg;
  cfg.seed = 61;
  cfg.num_domains = 10;
  cfg.urls_per_domain = 4;
  cfg.num_clicks = 2500;
  cfg.span_days = 3 * 365;
  ClickstreamWorkload w = MakeClickstream(cfg);
  const int64_t start = DaysFromCivil(cfg.start);
  const MultidimensionalObject mo = InterleaveTopMapped(*w.mo);

  dwred::testing::SpecGenOptions opts;
  opts.num_actions = 3;
  opts.sound_chain = true;
  opts.deletion_prob = 1.0;
  std::vector<ReductionSpecification> specs;
  for (uint64_t seed : {23u, 40u}) {
    specs.push_back(MustSpec(dwred::testing::GenerateSpec(mo, seed, opts)));
  }
  ReductionSpecification by_time;
  for (const char* text :
       {"p(a[Time.month, URL.domain] s[NOW - 24 months <= Time.month <= "
        "NOW - 6 months](O))",
        "p(a[Time.quarter, URL.domain_grp] s[URL.domain_grp = .com AND "
        "Time.quarter <= NOW - 6 quarters](O))"}) {
    auto a = ParseAction(mo, text);
    ASSERT_TRUE(a.ok()) << a.status().message();
    by_time.Add(std::move(a.value()));
  }
  specs.push_back(std::move(by_time));

  int64_t deleted = 0;
  int64_t lifted_top = 0;   // ⊤-mapped facts an action lifted elsewhere
  int64_t overlapping = 0;  // facts two aggregation actions claim at once
  int64_t planned = 0;      // plan targets checked against a named cube
  std::vector<CategoryId> want;
  PoolSizeGuard pool_guard;
  exec::ThreadPool::ResetGlobal(4);
  for (const ReductionSpecification& spec : specs) {
    for (int64_t now : {start + 500, start + 1100, start + 1500}) {
      // Reduce's assignment and the interpreted CellOf, fact by fact.
      std::map<std::vector<ValueId>, int> want_cells;
      size_t want_deleted = 0;
      const CellAssigner assigner(mo, spec, now);
      ASSERT_TRUE(assigner
                      .Assign(0, mo.num_facts(),
                              [&](const CellAssignment& a) {
                                std::span<const ValueId> direct =
                                    mo.FactCoords(a.fact);
                                const bool del = AggLevelOracle(
                                    mo, spec, direct, now, &want);
                                ASSERT_EQ(a.deleted, del)
                                    << "fact " << a.fact << " at now=" << now;
                                if (del) {
                                  ++want_deleted;
                                  return;
                                }
                                int claims = 0;
                                for (const Action& act : spec.actions()) {
                                  claims += EvalPredOnCell(*act.predicate, mo,
                                                           direct, now);
                                }
                                overlapping += claims > 1;
                                auto cell = CellOf(mo, spec, a.fact, now);
                                ASSERT_TRUE(cell.ok());
                                std::vector<ValueId> rolled(direct.size());
                                for (size_t d = 0; d < direct.size(); ++d) {
                                  const Dimension& dim = *mo.dimension(
                                      static_cast<DimensionId>(d));
                                  rolled[d] = dim.Rollup(direct[d], want[d]);
                                  ASSERT_EQ(dim.value_category(a.cell[d]),
                                            want[d])
                                      << "fact " << a.fact << " dim " << d
                                      << " at now=" << now;
                                  ASSERT_EQ(dim.value_category(cell.value()[d]),
                                            want[d]);
                                  lifted_top += direct[d] == dim.top_value() &&
                                                a.changed;
                                }
                                ++want_cells[rolled];
                              })
                      .ok());
      if (::testing::Test::HasFatalFailure()) return;
      deleted += static_cast<int64_t>(want_deleted);

      // Reduce's output is exactly the oracle's cells.
      ReduceStats stats;
      auto reduced = Reduce(mo, spec, now, {}, &stats);
      ASSERT_TRUE(reduced.ok()) << reduced.status().message();
      EXPECT_EQ(stats.facts_deleted, want_deleted) << "now=" << now;
      std::map<std::vector<ValueId>, int> got_cells;
      for (FactId f = 0; f < reduced.value().num_facts(); ++f) {
        std::span<const ValueId> c = reduced.value().FactCoords(f);
        ++got_cells[std::vector<ValueId>(c.begin(), c.end())];
      }
      ASSERT_EQ(got_cells.size(), want_cells.size()) << "now=" << now;
      for (const auto& [cell, n] : want_cells) {
        EXPECT_EQ(got_cells.count(cell), 1u) << "now=" << now;
      }
    }

    // The synchronize plan, before every pass of a warehouse that ages.
    auto mgr = SubcubeManager::Create(
        "Click", mo.dimensions(), std::vector<MeasureType>(mo.measure_types()),
        spec);
    ASSERT_TRUE(mgr.ok()) << mgr.status().message();
    SubcubeManager& m = mgr.value();
    ASSERT_TRUE(m.InsertBottomFacts(mo).ok());
    for (int64_t now : {start + 500, start + 1100, start + 1500}) {
      auto plan = m.PlanSynchronize(now);
      ASSERT_TRUE(plan.ok()) << plan.status().message();
      std::vector<ValueId> cell;
      for (size_t i = 0; i < m.num_subcubes(); ++i) {
        const FactTable& t = m.subcube(i).table;
        cell.resize(t.num_dims());
        for (RowId r = 0; r < t.num_rows(); ++r) {
          for (size_t d = 0; d < t.num_dims(); ++d) cell[d] = t.Coord(r, d);
          const size_t to = plan.value().cubes[i].target[r];
          const bool del = AggLevelOracle(m.context(), spec, cell, now, &want);
          ASSERT_EQ(to == SubcubeManager::kDeletedCell, del)
              << "cube " << i << " row " << r << " at now=" << now;
          if (del) continue;
          for (size_t k = 0; k < m.num_subcubes(); ++k) {
            if (m.subcube(k).granularity != want) continue;
            ++planned;
            ASSERT_EQ(m.subcube(to).granularity, want)
                << "cube " << i << " row " << r << " at now=" << now;
          }
        }
      }
      ASSERT_TRUE(m.ApplySynchronize(plan.value()).ok());
    }
  }
  EXPECT_GT(deleted, 0) << "no fact exercised a deletion action";
  EXPECT_GT(lifted_top, 0) << "no ⊤-mapped fact was lifted by an action";
  EXPECT_GT(overlapping, 0) << "no fact satisfied two actions at once";
  EXPECT_GT(planned, 0) << "no plan target named a cube of its Spec_gran";
}

/// WarehouseCrc of `spec`'s warehouse over `facts` after a synchronize at
/// `sync_day` and a change to `next` at `change_day`.
uint32_t SpecChangeCrc(const MultidimensionalObject& facts,
                       const ReductionSpecification& spec,
                       const ReductionSpecification& next, int64_t sync_day,
                       int64_t change_day) {
  auto mgr = SubcubeManager::Create(
      facts.fact_type(), facts.dimensions(),
      std::vector<MeasureType>(facts.measure_types()), spec);
  EXPECT_TRUE(mgr.ok()) << mgr.status().message();
  if (!mgr.ok()) return 0;
  SubcubeManager& m = mgr.value();
  EXPECT_TRUE(m.InsertBottomFacts(facts).ok());
  EXPECT_TRUE(m.Synchronize(sync_day).ok());
  Status changed = m.ChangeSpecification(next, change_day);
  EXPECT_TRUE(changed.ok()) << changed.message();
  return net::WarehouseCrc(m);
}

// Layer 2d: a specification change moves every old cube's rows into the new
// layout; its bytes are pinned on two seeded fixtures at 1 and 8 threads —
// clickstream with interleaved ⊤-mapped facts, changing to a chain whose
// oldest tier deletes, and retail changing between two chains. The
// constants were computed before the spec change shared the synchronize
// planner.
TEST(VmDifferential, SpecChangeBytesArePinned) {
  dwred::testing::SpecGenOptions keep;
  keep.num_actions = 3;
  keep.sound_chain = true;
  keep.deletion_prob = 0.0;
  dwred::testing::SpecGenOptions drop = keep;
  drop.deletion_prob = 1.0;

  ClickstreamConfig ccfg;
  ccfg.seed = 67;
  ccfg.num_domains = 10;
  ccfg.urls_per_domain = 4;
  ccfg.num_clicks = 2500;
  ccfg.span_days = 3 * 365;
  ClickstreamWorkload clicks = MakeClickstream(ccfg);
  const MultidimensionalObject click_facts = InterleaveTopMapped(*clicks.mo);
  const int64_t click_start = DaysFromCivil(ccfg.start);
  const ReductionSpecification click_old =
      MustSpec(dwred::testing::GenerateSpec(click_facts, 23, keep));
  const ReductionSpecification click_new =
      MustSpec(dwred::testing::GenerateSpec(click_facts, 40, drop));
  ASSERT_TRUE(std::any_of(click_new.actions().begin(),
                          click_new.actions().end(),
                          [](const Action& a) { return a.deletes; }));

  RetailConfig rcfg;
  rcfg.seed = 203;
  rcfg.num_categories = 3;
  rcfg.brands_per_category = 3;
  rcfg.skus_per_brand = 3;
  rcfg.num_sales = 2500;
  rcfg.span_days = 3 * 365;
  RetailWorkload retail = MakeRetail(rcfg);
  const int64_t retail_start = DaysFromCivil(rcfg.start);
  const ReductionSpecification retail_old =
      MustSpec(dwred::testing::GenerateSpec(*retail.mo, 5, keep));
  const ReductionSpecification retail_new =
      MustSpec(dwred::testing::GenerateSpec(*retail.mo, 8, keep));

  PoolSizeGuard pool_guard;
  for (int threads : {1, 8}) {
    exec::ThreadPool::ResetGlobal(threads);
    EXPECT_EQ(SpecChangeCrc(click_facts, click_old, click_new,
                            click_start + 900, click_start + 1500),
              1950991492u)
        << "clickstream, threads=" << threads;
    EXPECT_EQ(SpecChangeCrc(*retail.mo, retail_old, retail_new,
                            retail_start + 500, retail_start + 1000),
              2810409720u)
        << "retail, threads=" << threads;
  }
}

/// An alternating, right-nested AND/OR chain `levels` connectives deep:
/// a AND (b OR (a AND (b OR ... (a AND b)))), which means a AND b. Each
/// level holds one pending fold on the VM's evaluation stack.
std::shared_ptr<PredExpr> DeepChain(std::shared_ptr<PredExpr> a,
                                    std::shared_ptr<PredExpr> b, int levels) {
  std::shared_ptr<PredExpr> e = b;
  for (int level = levels; level-- > 0;) {
    e = level % 2 == 0 ? PredExpr::And({a, e}) : PredExpr::Or({b, e});
  }
  return e;
}

// Layer 3b: a predicate deeper than kMaxStackDepth is the one way into the
// null-program scan path. Compile must reject it, the fallback counter must
// move, EXPLAIN must report the interpreter, and every query shape must
// still equal the oracle.
TEST(VmDifferential, CompileRejectionFallsBackToInterpreterEndToEnd) {
  ClickstreamConfig cfg;
  cfg.seed = 71;
  cfg.num_domains = 8;
  cfg.urls_per_domain = 3;
  cfg.num_clicks = 1500;
  cfg.span_days = 3 * 365;
  ClickstreamWorkload w = MakeClickstream(cfg);
  int64_t start = DaysFromCivil(cfg.start);

  dwred::testing::SpecGenOptions opts;
  opts.num_actions = 3;
  opts.sound_chain = true;
  ReductionSpecification spec =
      MustSpec(dwred::testing::GenerateSpec(*w.mo, 40, opts));

  auto a = ParsePredicate(*w.mo, "Time.month >= NOW - 12 months");
  ASSERT_TRUE(a.ok()) << a.status().message();
  auto b = ParsePredicate(*w.mo, "URL.domain_grp = .com");
  ASSERT_TRUE(b.ok()) << b.status().message();
  const int levels = static_cast<int>(vm::PredProgram::kMaxStackDepth) + 1;
  std::shared_ptr<PredExpr> deep = DeepChain(a.value(), b.value(), levels);
  auto target = ParseGranularityList(*w.mo, "Time.month, URL.domain");
  ASSERT_TRUE(target.ok()) << target.status().message();

  const int64_t now = start + 900;
  ASSERT_FALSE(vm::PredProgram::Compile(
                   *w.mo, *deep,
                   QueryAtomOracle(now, SelectionApproach::kConservative))
                   .has_value())
      << "a " << levels << "-level chain must exceed the evaluation stack";

  PoolSizeGuard pool_guard;
  for (int threads : {1, 8}) {
    exec::ThreadPool::ResetGlobal(threads);
    const bool parallel = threads > 1;
    auto mgr = SubcubeManager::Create(
        "Click", {w.time_dim, w.url_dim},
        std::vector<MeasureType>(w.mo->measure_types()), spec);
    ASSERT_TRUE(mgr.ok()) << mgr.status().message();
    SubcubeManager& m = mgr.value();
    ASSERT_TRUE(m.InsertBottomFacts(*w.mo).ok());

    const int64_t fallbacks = CounterValue("dwred_vm_fallbacks");
    ExpectQueryMatchesReference(m, deep.get(), &target.value(), now,
                                /*assume_synced=*/false, parallel);
    // EXPLAIN of the stale shape: the query reports its own (rejected)
    // selection program, not the routing pass's compiled action programs,
    // and attributes the rows its folds read plus the rows it routed.
    int64_t stored = 0;
    for (size_t i = 0; i < m.num_subcubes(); ++i) {
      stored += static_cast<int64_t>(m.subcube(i).table.num_rows());
    }
    obs::OpProfile stale_prof;
    auto stale = m.Query(deep.get(), &target.value(), now + 1,
                         /*assume_synchronized=*/false, parallel, nullptr,
                         &stale_prof);
    ASSERT_TRUE(stale.ok()) << stale.status().message();
    EXPECT_EQ(stale_prof.op, "subcube.query");
    EXPECT_EQ(stale_prof.result_facts,
              static_cast<int64_t>(stale.value().num_facts()));
    EXPECT_FALSE(stale_prof.compiled);
    EXPECT_NE(stale_prof.Render().find("no (tree interpreter)"),
              std::string::npos);
    int64_t routed = -1;
    for (const auto& [name, value] : stale_prof.counters) {
      if (name == "rows_routed") routed = value;
    }
    EXPECT_EQ(routed, stored);
    int64_t read = 0;
    for (const obs::SubcubeProfile& sc : stale_prof.subcubes) {
      read += sc.rows_scanned;
    }
    EXPECT_EQ(read, stale_prof.rows_scanned);
    EXPECT_GT(read, 0);
    obs::OpProfile sync_prof;
    ASSERT_TRUE(m.Synchronize(now, &sync_prof).ok());
    EXPECT_TRUE(sync_prof.compiled) << "the spec's actions all compile";
    ExpectQueryMatchesReference(m, deep.get(), &target.value(), now, true,
                                parallel);
    ExpectQueryMatchesReference(m, deep.get(), nullptr, now, true, parallel);
    EXPECT_GT(CounterValue("dwred_vm_fallbacks"), fallbacks)
        << "the rejected predicate never reached the interpreter fallback";

    obs::OpProfile prof;
    auto explained = m.Query(deep.get(), &target.value(), now + 1,
                             /*assume_synchronized=*/true, parallel, nullptr,
                             &prof);
    ASSERT_TRUE(explained.ok()) << explained.status().message();
    EXPECT_FALSE(prof.compiled);
    EXPECT_NE(prof.ToJson().find("\"compiled\":false"), std::string::npos);
  }
}

}  // namespace
}  // namespace dwred
