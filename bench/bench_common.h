#pragma once

// Shared fixtures for the benchmark harness: canonical retention policies
// over the click-stream workload, sized per benchmark parameter. All
// generation is seeded and deterministic.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "io/atomic_file.h"
#include "obs/logging.h"
#include "obs/metrics.h"
#include "reduce/semantics.h"
#include "reduce/soundness.h"
#include "spec/parser.h"
#include "workload/clickstream.h"
#include "workload/retail.h"

namespace dwred::bench {

/// Tiered retention policies, by increasing aggressiveness. Tier text
/// mirrors the paper's examples; every set is Growing + NonCrossing.
inline const char* kTierMonth =
    "a[Time.month, URL.domain] s["
    "NOW - 12 months <= Time.month <= NOW - 6 months]";
inline const char* kTierQuarter =
    "a[Time.quarter, URL.domain] s["
    "NOW - 36 months <= Time.quarter AND Time.quarter <= NOW - 12 months]";
inline const char* kTierYear =
    "a[Time.year, URL.domain_grp] s[Time.year <= NOW - 36 months]";

/// Builds a policy with the first `tiers` tiers (0..3) against `mo`.
inline Result<ReductionSpecification> MakePolicy(
    const MultidimensionalObject& mo, int tiers) {
  ReductionSpecification spec;
  const char* texts[] = {kTierMonth, kTierQuarter, kTierYear};
  // Later tiers are prerequisites of earlier ones (Growing): install the
  // suffix of the list of length `tiers`, from the coarsest up.
  for (int i = 3 - tiers; i < 3; ++i) {
    auto a = ParseAction(mo, texts[i], "tier" + std::to_string(i + 1));
    if (!a.ok()) {
      DWRED_LOG(Error) << "tier " << (i + 1) << " failed to parse: "
                       << texts[i] << " — " << a.status().ToString();
      return a.status();
    }
    spec.Add(a.take());
  }
  return spec;
}

/// Registers an atexit hook that writes the metrics registry's JSON snapshot
/// to $DWRED_METRICS_SIDECAR (when set). Instantiate one at namespace scope
/// in a benchmark binary; runs after benchmark::Shutdown so the dump covers
/// every iteration.
struct MetricsSidecarAtExit {
  MetricsSidecarAtExit() {
    std::atexit([] {
      const char* path = std::getenv("DWRED_METRICS_SIDECAR");
      if (path == nullptr || path[0] == '\0') return;
      std::FILE* f = std::fopen(path, "w");
      if (f == nullptr) {
        std::fprintf(stderr, "metrics sidecar: cannot open %s\n", path);
        return;
      }
      std::string json = obs::MetricsRegistry::Global().RenderJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    });
  }
};

inline MetricsSidecarAtExit g_metrics_sidecar;

/// Unwraps a Result in benchmark setup code. Benchmarks have no error
/// channel, so a failed setup still dies — but the decision now sits at the
/// harness edge, not inside MakePolicy.
template <typename T>
inline T TakeOrAbort(Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "benchmark setup failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  return r.take();
}

/// CRC32 over a full-fidelity serialization of a query result — the
/// differential check: every variant and thread count of a bench row must
/// report the same value, and tools/bench_diff.py compares it against the
/// committed baselines exactly.
inline uint32_t SnapshotCrc(const MultidimensionalObject& mo) {
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

/// Canonical 3-year click workload with `n` facts.
inline ClickstreamWorkload MakeWorkload(size_t n) {
  ClickstreamConfig cfg;
  cfg.num_clicks = n;
  cfg.start = {1999, 1, 1};
  cfg.span_days = 3 * 365;
  cfg.num_domains = 200;
  cfg.urls_per_domain = 20;
  return MakeClickstream(cfg);
}

/// The 1M-fact (by default) retail workload from the acceptance criteria:
/// three dimensions, two non-time hierarchies, SUM measures.
inline RetailWorkload MakeRetailWorkload(size_t n,
                                         bool preregister_days = false) {
  RetailConfig cfg;
  cfg.seed = 41;
  cfg.num_sales = n;
  cfg.start = {1999, 1, 1};
  cfg.span_days = 3 * 365;
  cfg.preregister_days = preregister_days;
  return MakeRetail(cfg);
}

/// Three-tier Growing + NonCrossing retention policy over the retail schema.
inline Result<ReductionSpecification> MakeRetailPolicy(
    const MultidimensionalObject& mo) {
  ReductionSpecification spec;
  const char* texts[] = {
      "a[Time.year, Product.category, Store.region] s["
      "Time.year <= NOW - 36 months]",
      "a[Time.quarter, Product.category, Store.region] s["
      "NOW - 36 months <= Time.quarter AND Time.quarter <= NOW - 12 months]",
      "a[Time.month, Product.brand, Store.city] s["
      "NOW - 12 months <= Time.month <= NOW - 6 months]",
  };
  for (int i = 0; i < 3; ++i) {
    DWRED_ASSIGN_OR_RETURN(Action a,
                           ParseAction(mo, texts[i], "t" + std::to_string(i)));
    spec.Add(std::move(a));
  }
  return spec;
}

}  // namespace dwred::bench
