// B13 — columnar segment layout with vectorized scan (docs/STORAGE.md
// "Columnar layout"): sealed segments hold per-column dictionary/RLE/
// frame-of-reference encodings chosen at seal time, and the scan consumers
// evaluate compiled predicates chunk-at-a-time (vm::PredProgram::EvalBatch)
// with late materialization. This bench pins both on the cold, unpruned
// retail warehouse:
//
//   * speed — caches disabled, full-history window so zone-map pruning keeps
//     every segment, across pool sizes {1, 2, 4, 8};
//   * space — `bytes_sealed` vs `bytes_sealed_row`: resident bytes of the
//     sealed segments against what the same rows cost un-encoded.
//
// `snapshot_crc` must be identical across every thread count, and
// tools/bench_diff.py checks it against the committed baseline rows
// (bench/results/columnar_scan_sweep.json), whose row-path (columnar=0)
// rows record the historical comparison.

#include "bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "exec/thread_pool.h"
#include "io/atomic_file.h"
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

// The bench_scan_prune fixture: day-sorted retail facts (preregistered day
// ids ascend chronologically) reduced under the three-tier policy and
// synchronized — the layout an incrementally-loaded warehouse converges to,
// where date runs RLE-compress and low-cardinality dimensions dict-pack.
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

// Cold (result/program caches disabled), unpruned (full-history window, so
// every segment survives planning and the time is pure scan-path cost).
void RunColumnarQuery(benchmark::State& state, int threads) {
  ::setenv("DWRED_CACHE_DISABLED", "1", 1);
  RetailWarehouse wh = MakeRetailWarehouse(static_cast<size_t>(state.range(0)));
  std::shared_ptr<PredExpr> pred =
      ParsePredicate(wh.mgr->context(), "1999/1/1 <= Time.day <= 2002/12/31")
          .take();
  exec::ThreadPool::ResetGlobal(threads);
  const bool parallel = threads > 1;
  uint32_t crc = 0;
  for (auto _ : state) {
    auto r = wh.mgr->Query(pred.get(), &wh.gran, wh.t,
                           /*assume_synchronized=*/true, parallel);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    crc = SnapshotCrc(r.value());
    benchmark::DoNotOptimize(crc);
  }
  size_t sealed = 0, sealed_row = 0;
  SealedBytes(*wh.mgr, &sealed, &sealed_row);
  state.counters["snapshot_crc"] = static_cast<double>(crc);
  state.counters["threads"] = threads;
  state.counters["cold"] = 1;
  state.counters["bytes_sealed"] = static_cast<double>(sealed);
  state.counters["bytes_sealed_row"] = static_cast<double>(sealed_row);
  state.counters["compression_x"] =
      sealed == 0 ? 0.0
                  : static_cast<double>(sealed_row) / static_cast<double>(sealed);
  state.SetItemsProcessed(static_cast<int64_t>(state.range(0)) *
                          state.iterations());
  exec::ThreadPool::ResetGlobal(0);  // back to the DWRED_THREADS default
  ::unsetenv("DWRED_CACHE_DISABLED");
}

// The headline row: serial cold unpruned scan.
void BM_ColumnarScanColdColumnar(benchmark::State& state) {
  RunColumnarQuery(state, /*threads=*/1);
}
BENCHMARK(BM_ColumnarScanColdColumnar)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// Thread sweep: four rows in the sidecar, one snapshot_crc. Arguments are
// (facts, threads, 1); the constant last argument keeps the row names of the
// committed baseline's columnar rows.
void BM_ColumnarScanSweep(benchmark::State& state) {
  RunColumnarQuery(state, static_cast<int>(state.range(1)));
}
BENCHMARK(BM_ColumnarScanSweep)
    ->ArgsProduct({{1000000}, {1, 2, 4, 8}, {1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dwred::bench
