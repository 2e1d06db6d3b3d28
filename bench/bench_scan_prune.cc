// B10 — zone-map pruning on the segmented fact store (docs/STORAGE.md): a
// selective predicate over the synchronized retail warehouse lets the scan
// planner drop whole segments whose time zone maps miss the queried window,
// before any row is touched. The no-prune baseline runs the same query with
// a window that covers the full history, so every segment survives planning
// and the delta is pure pruning benefit.
//
// Facts are inserted sorted by day (with the day span preregistered so
// ValueIds ascend chronologically) — the layout an incrementally-loaded
// warehouse converges to — giving sealed segments tight time zone maps,
// RLE-compressed date runs and dict-packed low-cardinality dimensions.
//
// Every row is cold: the bench disables the result and program caches
// itself, so each iteration plans, compiles and scans. Rows report
// `snapshot_crc` (identical across thread counts; tools/bench_diff.py checks
// it against bench/results/scan_prune_sweep.json) and the sealed segments'
// resident bytes against their row-equivalent size (B13).

#include "bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <optional>

#include "exec/thread_pool.h"
#include "scan/scan.h"
#include "storage/fact_table.h"
#include "subcube/manager.h"

namespace dwred::bench {
namespace {

struct RetailWarehouse {
  RetailWorkload w;
  std::unique_ptr<SubcubeManager> mgr;
  std::vector<CategoryId> gran;
  int64_t t;
};

RetailWarehouse MakeRetailWarehouse(size_t n) {
  RetailWarehouse wh;
  wh.w = MakeRetailWorkload(n, /*preregister_days=*/true);
  const MultidimensionalObject& mo = *wh.w.mo;
  ReductionSpecification spec = TakeOrAbort(MakeRetailPolicy(mo));
  wh.mgr = std::make_unique<SubcubeManager>(
      SubcubeManager::Create("Sale", mo.dimensions(),
                             std::vector<MeasureType>(mo.measure_types()),
                             spec)
          .take());

  // Re-insert the sales sorted by day. Preregistration made day ValueIds
  // ascend with calendar date, so coordinate order is chronological order.
  std::vector<FactId> order(mo.num_facts());
  std::iota(order.begin(), order.end(), FactId{0});
  std::stable_sort(order.begin(), order.end(), [&](FactId a, FactId b) {
    return mo.Coord(a, 0) < mo.Coord(b, 0);
  });
  MultidimensionalObject sorted("Sale", mo.dimensions(),
                                std::vector<MeasureType>(mo.measure_types()));
  std::vector<ValueId> c(mo.num_dimensions());
  std::vector<int64_t> m(mo.num_measures());
  for (FactId f : order) {
    for (DimensionId d = 0; d < mo.num_dimensions(); ++d) {
      c[d] = mo.Coord(f, d);
    }
    for (MeasureId i = 0; i < mo.num_measures(); ++i) {
      m[i] = mo.Measure(f, i);
    }
    TakeOrAbort(sorted.AddBottomFact(c, m));
  }
  Status st = wh.mgr->InsertBottomFacts(sorted);
  if (!st.ok()) {
    std::fprintf(stderr, "benchmark setup failed: %s\n", st.ToString().c_str());
    std::abort();
  }

  wh.t = DaysFromCivil({2002, 1, 1});
  TakeOrAbort(wh.mgr->Synchronize(wh.t));
  wh.gran = ParseGranularityList(wh.mgr->context(),
                                 "Time.month, Product.category, Store.region")
                .take();
  return wh;
}

double ScanCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name, "").Value();
}

/// Resident vs row-equivalent bytes summed over the warehouse's *sealed*
/// segments (the tail stays plain by design and would dilute the ratio).
void SealedBytes(const SubcubeManager& m, size_t* resident, size_t* row_eq) {
  *resident = 0;
  *row_eq = 0;
  for (size_t i = 0; i < m.num_subcubes(); ++i) {
    const FactTable& t = m.subcube(i).table;
    const size_t row_width =
        t.num_dims() * sizeof(ValueId) + t.num_measures() * sizeof(int64_t);
    for (size_t s = 0; s < t.num_segments(); ++s) {
      if (!t.SegmentSealed(s)) continue;
      *resident += t.SegmentBytes(s);
      *row_eq += t.SegmentPhysicalRows(s) * row_width;
    }
  }
}

void RunQuerySweep(benchmark::State& state, const char* pred_text) {
  const size_t facts = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  ::setenv("DWRED_CACHE_DISABLED", "1", 1);
  RetailWarehouse wh = MakeRetailWarehouse(facts);
  std::shared_ptr<PredExpr> pred =
      ParsePredicate(wh.mgr->context(), pred_text).take();
  exec::ThreadPool::ResetGlobal(threads);

  const double scanned0 = ScanCounter("dwred_scan_segments_scanned");
  const double pruned0 = ScanCounter("dwred_scan_segments_pruned");
  const double skipped0 = ScanCounter("dwred_scan_rows_skipped");
  std::optional<MultidimensionalObject> result;
  for (auto _ : state) {
    auto r = wh.mgr->Query(pred.get(), &wh.gran, wh.t,
                           /*assume_synchronized=*/true, /*parallel=*/true);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    result = r.take();
    benchmark::DoNotOptimize(result->num_facts());
  }
  const double iters = static_cast<double>(state.iterations());
  size_t sealed = 0, sealed_row = 0;
  SealedBytes(*wh.mgr, &sealed, &sealed_row);
  state.counters["threads"] = threads;
  state.counters["result_facts"] = static_cast<double>(result->num_facts());
  state.counters["snapshot_crc"] = static_cast<double>(SnapshotCrc(*result));
  state.counters["bytes_sealed"] = static_cast<double>(sealed);
  state.counters["bytes_sealed_row"] = static_cast<double>(sealed_row);
  state.counters["segments_scanned"] =
      (ScanCounter("dwred_scan_segments_scanned") - scanned0) / iters;
  state.counters["segments_pruned"] =
      (ScanCounter("dwred_scan_segments_pruned") - pruned0) / iters;
  state.counters["rows_skipped"] =
      (ScanCounter("dwred_scan_rows_skipped") - skipped0) / iters;
  state.SetItemsProcessed(static_cast<int64_t>(facts) * state.iterations());
  exec::ThreadPool::ResetGlobal(0);  // back to the DWRED_THREADS default
  ::unsetenv("DWRED_CACHE_DISABLED");
}

// Selective window: 2000 H1 sits entirely in the quarter tier, so the bottom
// cube, the month cube, and most quarter/year segments are pruned outright.
void BM_RetailQueryPrunedSweep(benchmark::State& state) {
  RunQuerySweep(state, "2000/1/1 <= Time.day <= 2000/6/30");
}

// Wall-clock rates: with threads > 1 the pool workers do the scan, so the
// main thread's CPU time would understate the work and overstate the rate.
BENCHMARK(BM_RetailQueryPrunedSweep)
    ->ArgsProduct({{1000000}, {1, 2, 4, 8}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Baseline: the same query shape over a window covering the full history.
// Planning still runs, but the allowed-value sets admit every zone map, so
// segments_pruned stays 0 and every row is scanned.
void BM_RetailQueryNoPruneBaseline(benchmark::State& state) {
  RunQuerySweep(state, "1999/1/1 <= Time.day <= 2002/12/31");
}

BENCHMARK(BM_RetailQueryNoPruneBaseline)
    ->ArgsProduct({{1000000}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dwred::bench
