// B5 — querying the subcube warehouse (paper Section 7.3): per-subcube
// evaluation plus one final combining aggregation, in both the synchronized
// state and the un-synchronized state (Figure 9's rewrite, which additionally
// pulls rows from every strictly-finer cube and filters by current
// responsibility).
//
// Expected shape: the synchronized path's cost tracks resident rows; the
// un-synchronized path first routes every stored row once (the synchronize
// plan, read-only) and then folds each cube's routed rows, so it costs more —
// the price of querying without waiting for synchronization. Every row is
// cold: the bench disables the result and program caches itself, since every
// iteration after the first would otherwise be a result-cache hit.

#include "bench_common.h"

#include <cstdlib>

#include "exec/thread_pool.h"
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

Warehouse MakeWarehouse(size_t per_month, bool leave_unsynced) {
  ::setenv("DWRED_CACHE_DISABLED", "1", 1);
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
  uint64_t seed = 3;
  for (int m = 0; m < 30; ++m) {
    int year = 2000 + m / 12, month = m % 12 + 1;
    int64_t lo = DaysFromCivil({year, month, 1});
    int64_t hi = DaysFromCivil({year, month, DaysInMonth(year, month)});
    MultidimensionalObject batch =
        MakeClickBatch(w.time_dim, w.url_dim, lo, hi, per_month, ++seed);
    (void)wh.mgr->InsertBottomFacts(batch);
    // Synchronize after every month except (optionally) the last few, so the
    // un-synchronized variant is at most one tier-level behind.
    if (!leave_unsynced || m < 24) {
      (void)wh.mgr->Synchronize(hi + 1);
    }
  }
  wh.t = DaysFromCivil({2002, 7, 1});
  wh.pred = ParsePredicate(wh.mgr->context(),
                           "URL.domain_grp = .com AND "
                           "NOW - 24 months <= Time.month")
                .take();
  wh.gran =
      ParseGranularityList(wh.mgr->context(), "Time.month, URL.domain_grp")
          .take();
  return wh;
}

void BM_QuerySynchronized(benchmark::State& state) {
  Warehouse wh = MakeWarehouse(static_cast<size_t>(state.range(0)), false);
  (void)wh.mgr->Synchronize(wh.t);
  for (auto _ : state) {
    auto r = wh.mgr->Query(wh.pred.get(), &wh.gran, wh.t, true);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value().num_facts());
  }
  size_t rows = 0;
  for (size_t i = 0; i < wh.mgr->num_subcubes(); ++i) {
    rows += wh.mgr->subcube(i).table.num_rows();
  }
  state.counters["resident_rows"] = static_cast<double>(rows);
}

BENCHMARK(BM_QuerySynchronized)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_QuerySynchronizedParallel(benchmark::State& state) {
  // Section 7.3's "separately and in parallel": one thread per subcube.
  Warehouse wh = MakeWarehouse(static_cast<size_t>(state.range(0)), false);
  (void)wh.mgr->Synchronize(wh.t);
  for (auto _ : state) {
    auto r = wh.mgr->Query(wh.pred.get(), &wh.gran, wh.t, true,
                           /*parallel=*/true);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value().num_facts());
  }
}

BENCHMARK(BM_QuerySynchronizedParallel)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_QueryUnsynchronized(benchmark::State& state) {
  Warehouse wh = MakeWarehouse(static_cast<size_t>(state.range(0)), true);
  for (auto _ : state) {
    auto r = wh.mgr->Query(wh.pred.get(), &wh.gran, wh.t, false);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value().num_facts());
  }
  size_t rows = 0;
  for (size_t i = 0; i < wh.mgr->num_subcubes(); ++i) {
    rows += wh.mgr->subcube(i).table.num_rows();
  }
  state.counters["resident_rows"] = static_cast<double>(rows);
}

BENCHMARK(BM_QueryUnsynchronized)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Thread-count sweep (PR 3): the parallel per-subcube fan-out plus the
// sharded Select/AggregateFormation underneath it, at pool sizes 1..8. One
// invocation records the sweep in the JSON sidecar (see bench_main.cc).
void BM_QueryThreadSweep(benchmark::State& state) {
  const size_t per_month = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Warehouse wh = MakeWarehouse(per_month, false);
  (void)wh.mgr->Synchronize(wh.t);
  exec::ThreadPool::ResetGlobal(threads);
  for (auto _ : state) {
    auto r = wh.mgr->Query(wh.pred.get(), &wh.gran, wh.t, true,
                           /*parallel=*/true);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value().num_facts());
  }
  state.counters["threads"] = threads;
  exec::ThreadPool::ResetGlobal(0);
}

BENCHMARK(BM_QueryThreadSweep)
    ->ArgsProduct({{10000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dwred::bench
