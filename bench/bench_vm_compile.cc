// B12 — the predicate/fold bytecode VM (docs/COMPILATION.md): selection
// predicates and per-row measure folds are compiled to compact programs
// (src/vm) and evaluated by an interpreter loop that never touches the AST.
//
// The compiled path is the only production path, so the rows time it cold
// (result + program caches disabled, so every iteration recompiles and
// re-evaluates) and warm (the result served from the LRU) across pool sizes
// {1, 2, 4, 8}. The `snapshot_crc` counter is identical for every row and
// thread count, and tools/bench_diff.py checks it against the committed
// baseline rows (bench/results/vm_compile_sweep.json), whose interpreted
// (vm=0) rows record the historical comparison.

#include "bench_common.h"

#include <cstdlib>
#include <sstream>

#include "exec/thread_pool.h"
#include "io/atomic_file.h"
#include "subcube/manager.h"

namespace dwred::bench {
namespace {

struct Warehouse {
  std::shared_ptr<Dimension> time_dim, url_dim;
  std::unique_ptr<SubcubeManager> mgr;
  std::shared_ptr<PredExpr> pred;
  std::vector<CategoryId> gran;
  int64_t t;
};

// Same canonical warehouse as bench_query_cache: 30 monthly batches reduced
// under the three-tier policy, queried at 2002/7/1 with a two-atom
// conjunction (one enumerable URL atom, one NOW-relative time window).
Warehouse MakeWarehouse(size_t per_month) {
  Warehouse wh;
  ClickstreamWorkload w = MakeWorkload(0);
  wh.time_dim = w.time_dim;
  wh.url_dim = w.url_dim;
  ReductionSpecification spec = TakeOrAbort(MakePolicy(*w.mo, 3));
  wh.mgr = std::make_unique<SubcubeManager>(
      SubcubeManager::Create("Click", w.mo->dimensions(),
                             std::vector<MeasureType>(w.mo->measure_types()),
                             spec)
          .take());
  uint64_t seed = 17;
  for (int m = 0; m < 30; ++m) {
    int year = 2000 + m / 12, month = m % 12 + 1;
    int64_t lo = DaysFromCivil({year, month, 1});
    int64_t hi = DaysFromCivil({year, month, DaysInMonth(year, month)});
    MultidimensionalObject batch =
        MakeClickBatch(w.time_dim, w.url_dim, lo, hi, per_month, ++seed);
    (void)wh.mgr->InsertBottomFacts(batch);
    (void)wh.mgr->Synchronize(hi + 1);
  }
  wh.t = DaysFromCivil({2002, 7, 1});
  (void)wh.mgr->Synchronize(wh.t);
  wh.pred = ParsePredicate(wh.mgr->context(),
                           "URL.domain_grp = .com AND "
                           "NOW - 24 months <= Time.month")
                .take();
  wh.gran =
      ParseGranularityList(wh.mgr->context(), "Time.month, URL.domain_grp")
          .take();
  return wh;
}

/// CRC32 over a full-fidelity serialization of the result — the differential
/// check: every variant and thread count must report the same value.
uint32_t SnapshotCrc(const MultidimensionalObject& mo) {
  std::ostringstream out;
  out << mo.num_facts() << "\n";
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    out << mo.FactName(f) << "|";
    for (size_t d = 0; d < mo.num_dimensions(); ++d) {
      out << mo.Coord(f, static_cast<DimensionId>(d)) << ",";
    }
    out << "|";
    for (size_t m = 0; m < mo.num_measures(); ++m) {
      out << mo.Measure(f, static_cast<MeasureId>(m)) << ",";
    }
    out << "\n";
  }
  return Crc32(out.str());
}

// `cold` disables the PR-5 LRU entirely (results AND compiled programs), so
// each iteration pays compile + full per-subcube evaluation; warm rows serve
// the result from the cache.
void RunVmQuery(benchmark::State& state, bool cold, int threads) {
  if (cold) {
    ::setenv("DWRED_CACHE_DISABLED", "1", 1);
  } else {
    ::unsetenv("DWRED_CACHE_DISABLED");
  }
  Warehouse wh = MakeWarehouse(static_cast<size_t>(state.range(0)));
  exec::ThreadPool::ResetGlobal(threads);
  const bool parallel = threads > 1;
  uint32_t crc = 0;
  for (auto _ : state) {
    auto r = wh.mgr->Query(wh.pred.get(), &wh.gran, wh.t,
                           /*assume_synchronized=*/true, parallel);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    crc = SnapshotCrc(r.value());
    benchmark::DoNotOptimize(crc);
  }
  state.counters["snapshot_crc"] = static_cast<double>(crc);
  state.counters["threads"] = threads;
  state.counters["cold"] = cold ? 1 : 0;
  state.SetItemsProcessed(state.iterations());
  exec::ThreadPool::ResetGlobal(0);
  ::unsetenv("DWRED_CACHE_DISABLED");
}

// The headline row: serial cold path.
void BM_VmQueryColdCompiled(benchmark::State& state) {
  RunVmQuery(state, /*cold=*/true, /*threads=*/1);
}
BENCHMARK(BM_VmQueryColdCompiled)->Arg(10000)->Unit(benchmark::kMillisecond);

// Thread sweep x cold/warm: eight rows in the sidecar, one snapshot_crc.
// Arguments are (facts per month, threads, 1, cold); the constant third
// argument keeps the row names of the committed baseline's compiled rows.
void BM_VmQuerySweep(benchmark::State& state) {
  RunVmQuery(state, state.range(3) != 0, static_cast<int>(state.range(1)));
}
BENCHMARK(BM_VmQuerySweep)
    ->ArgsProduct({{10000}, {1, 2, 4, 8}, {1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dwred::bench
