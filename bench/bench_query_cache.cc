// B11 — the epoch-versioned query-result cache (docs/CACHING.md): repeated
// queries against an unchanged warehouse epoch are served from the LRU
// instead of re-running the per-subcube evaluation pipeline.
//
// Expected shape: the warm-cache path costs one LRU lookup plus one MO copy,
// so repeated-query throughput is well over the 5x acceptance bar against
// the cache-disabled baseline; the `snapshot_crc` counter is identical for
// every variant and thread count — the cache never changes bytes, only cost.
// The sweep records cache on/off across pool sizes {1, 2, 4, 8} in the JSON
// sidecar (DWRED_BENCH_SIDECAR, bench_main.cc).

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

void RunRepeatedQuery(benchmark::State& state, bool cache_enabled,
                      int threads) {
  if (cache_enabled) {
    ::unsetenv("DWRED_CACHE_DISABLED");
  } else {
    ::setenv("DWRED_CACHE_DISABLED", "1", 1);
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
  state.counters["cache"] = cache_enabled ? 1 : 0;
  state.SetItemsProcessed(state.iterations());
  exec::ThreadPool::ResetGlobal(0);
  ::unsetenv("DWRED_CACHE_DISABLED");
}

void BM_RepeatedQueryWarmCache(benchmark::State& state) {
  RunRepeatedQuery(state, /*cache_enabled=*/true, /*threads=*/1);
}
BENCHMARK(BM_RepeatedQueryWarmCache)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_RepeatedQueryNoCache(benchmark::State& state) {
  RunRepeatedQuery(state, /*cache_enabled=*/false, /*threads=*/1);
}
BENCHMARK(BM_RepeatedQueryNoCache)->Arg(10000)->Unit(benchmark::kMillisecond);

// Thread sweep x cache on/off: eight rows in the sidecar, one snapshot_crc.
// Wall-clock rates, since pool workers do the threads > 1 rows' work.
void BM_RepeatedQuerySweep(benchmark::State& state) {
  RunRepeatedQuery(state, state.range(2) != 0,
                   static_cast<int>(state.range(1)));
}
BENCHMARK(BM_RepeatedQuerySweep)
    ->ArgsProduct({{10000}, {1, 2, 4, 8}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dwred::bench
