// e2e_harness — the end-to-end benchmark (bench/e2e/README.md).
//
//   e2e_harness --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//               [--smoke]
//
// Runs one workload and prints, as the last line of stdout, one JSON object:
// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value":
// .., "unit": ..}}} — the end-to-end metrics, or with --trace 1 the per-layer
// metrics. Checks and progress go to stderr. The daemon under test is the
// dwredd beside this binary; snapshots and journals go under work/ and span
// dumps under traces/ there. Exit codes: 0 all checks passed, 1 a check or
// operation failed, 2 usage.

#include <stdlib.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include "common/strings.h"
#include "e2e.h"
#include "net/client.h"

extern char** environ;

using namespace dwred;
using namespace dwred::e2e;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json's "end_to_end" and "per_layer" lists (the smoke
// test checks they agree).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"op_p50_us", "us"},
    {"op_p95_us", "us"},       {"ops_per_s", "1/s"},
    {"stored_bytes_per_fact", "B"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.client_encode_us", "us"},
    {"net.server_decode_us", "us"},
    {"net.render_us", "us"},
    {"net.server_encode_us", "us"},
    {"net.client_decode_us", "us"},
    {"net.response_bytes", "B"},
    {"net.wire_overhead_us", "us"},
    {"net.bytes_read", "B/req"},
    {"net.bytes_written", "B/req"},
    {"net.insert_rtt_ms", "ms"},
    {"net.sync_rtt_ms", "ms"},
    {"ingest.writer_lag_ms", "ms"},
    {"spec.parse_us", "us"},
    {"cache.lookup_us", "us"},
    {"cache.query_hit_ratio", "ratio"},
    {"cache.scanspec_hit_ratio", "ratio"},
    {"cache.invalidations", "count"},
    {"cache.evictions", "count"},
    {"subcube.query_us", "us"},
    {"subcube.plan_us", "us"},
    {"subcube.subqueries_us", "us"},
    {"subcube.materialize_us", "us"},
    {"subcube.unstaged_us", "us"},
    {"subcube.fan_out", "count"},
    {"subcube.insert_ms", "ms"},
    {"subcube.sync_ms", "ms"},
    {"subcube.sync.plan_ms", "ms"},
    {"subcube.sync.apply_ms", "ms"},
    {"subcube.sync.compact_ms", "ms"},
    {"subcube.sync_rows_migrated", "count"},
    {"scan.us", "us"},
    {"scan.segments_scanned", "count"},
    {"scan.segments_pruned", "count"},
    {"scan.rows_scanned", "count"},
    {"scan.rows_skipped", "count"},
    {"scan.prune_ratio", "ratio"},
    {"query.aggregate_us", "us"},
    {"query.aggregate_sync_us", "us"},
    {"query.aggregate_unsync_us", "us"},
    {"query.result_facts", "count"},
    {"vm.compiles_per_query", "count"},
    {"vm.cache_hit_ratio", "ratio"},
    {"vm.fallbacks_per_query", "count"},
    {"storage.bytes_row", "B"},
    {"storage.bytes_columnar", "B"},
    {"storage.bytes_saved", "B"},
    {"storage.fact_rows", "count"},
    {"io.csv_decode_ms", "ms"},
    {"io.durable_insert_ms", "ms"},
    {"io.sync_pass_ms", "ms"},
    {"io.checkpoint_ms", "ms"},
    {"io.recover_ms", "ms"},
    {"io.recover_ops_replayed", "count"},
    {"io.fsync_count", "count"},
    {"io.fsync_us", "us"},
    {"io.journal_bytes", "B/fact"},
    {"io.snapshot_bytes", "B/fact"},
    {"io.disk_bytes_per_fact", "B"},
    {"io.ingest_facts_per_s", "facts/s"},
    {"exec.tasks", "count"},
    {"exec.steals", "count"},
    {"runtime.admission_waits", "count"},
    {"runtime.shed", "count"},
    {"runtime.aborts", "count"},
    {"setup.generate_s", "s"},
    {"setup.snapshot_s", "s"},
    {"setup.boot_s", "s"},
    {"setup.first_sync_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.self_us", "us"},
    {"trace.wall_us", "us"},
    {"unattributed_us", "us"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: e2e_harness --workload <dashboard|adhoc|ingest_sync|"
               "durable_ingest> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n"
               "                   [--smoke]\n");
}

/// Accepts both "--key value" and "--key=value".
bool ParseArgs(int argc, char** argv, Options* opt, bool* seconds_given) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string key = arg, value;
    bool has_value = false;
    if (size_t eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    auto take = [&]() -> bool {
      if (has_value) return true;
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };
    if (key == "--smoke") {
      opt->smoke = true;
    } else if (key == "--trace") {
      // A bare --trace means --trace 1.
      if (!has_value && i + 1 < argc &&
          (std::strcmp(argv[i + 1], "0") == 0 || std::strcmp(argv[i + 1], "1") == 0)) {
        value = argv[++i];
        has_value = true;
      }
      if (has_value && value != "0" && value != "1") return false;
      opt->trace = !has_value || value == "1";
    } else if (key == "--workload" && take()) {
      opt->workload = value;
    } else if (key == "--seed" && take()) {
      int64_t seed = 0;
      if (!ParseInt64(value, &seed) || seed < 0) return false;
      opt->seed = static_cast<uint64_t>(seed);
    } else if (key == "--seconds" && take()) {
      char* end = nullptr;
      opt->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt->seconds > 0)) return false;
      *seconds_given = true;
    } else {
      return false;
    }
  }
  return true;
}

/// Fixed conditions: every DWRED_* knob is cleared (cache, VM, columnar
/// and profiling on; default segment size, slow-log and admission
/// settings), and the engine pool has two threads in the harness and in
/// dwredd alike.
void FixEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DWRED_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                           : static_cast<size_t>(eq - *e));
    }
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
  ::setenv("DWRED_THREADS", "2", 1);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool seconds_given = false;
  if (!ParseArgs(argc, argv, &opt, &seconds_given)) {
    Usage();
    return 2;
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known) {
    Usage();
    return 2;
  }
  if (opt.smoke && !seconds_given) opt.seconds = 2;
  FixEnvironment();
  net::IgnoreSigpipe();
  if (cpu_set_t cpus; CpuHalf(0, &cpus)) {
    ::sched_setaffinity(0, sizeof(cpus), &cpus);
  }
  // Open-loop senders sleep until each request is due; the default 50 us
  // timer slack would show up as latency. Threads inherit the setting.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const std::filesystem::path exe_dir =
      std::filesystem::read_symlink("/proc/self/exe").parent_path();
  opt.dwredd = (exe_dir / "dwredd").string();
  opt.trace_out = (exe_dir / "traces").string();
  std::error_code ec;
  std::filesystem::create_directories(exe_dir / "work", ec);
  std::string run_dir = (exe_dir / "work" / "run.XXXXXX").string();
  if (ec || ::mkdtemp(run_dir.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a run directory %s\n", run_dir.c_str());
    return 1;
  }
  opt.workdir = run_dir;

  const Conditions cond = ConditionsFor(opt.smoke);
  RunResult result;
  std::fprintf(stderr, "%s: seed %llu, %.1f s, %s%s\n", opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed), opt.seconds,
               opt.trace ? "per-layer (traced)" : "end-to-end",
               opt.smoke ? ", smoke" : "");
  if (opt.workload == "durable_ingest") {
    RunDurable(opt, cond, &result);
  } else {
    RunServed(opt, cond, &result);
  }
  std::filesystem::remove_all(run_dir, ec);

  // Every metric of the run's set is printed: a per-layer metric the
  // workload does not exercise reads 0, an end-to-end metric must have been
  // measured.
  std::set<std::string> declared;
  for (const MetricDef& m : kEndToEnd) declared.insert(m.name);
  for (const MetricDef& m : kPerLayer) declared.insert(m.name);
  for (const auto& [name, value] : result.metrics) {
    if (declared.count(name) == 0) result.Fail("metric " + name + " is not declared");
  }
  std::string metrics;
  auto emit = [&](const MetricDef& m, bool required) {
    auto it = result.metrics.find(m.name);
    double v = it == result.metrics.end() ? 0 : it->second;
    if ((required && it == result.metrics.end()) || !std::isfinite(v)) {
      result.Fail(std::string("metric ") + m.name + " was not measured");
      v = 0;
    }
    char entry[256];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, v, m.unit);
    metrics += entry;
  };
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) emit(m, /*required=*/false);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, /*required=*/true);
  }
  if (result.attempted == 0) result.Fail("no operation was attempted");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}
