#pragma once

// The end-to-end benchmark harness (bench/e2e/README.md). One process
// generates seeded inputs, boots a real dwredd child per served workload,
// drives it over loopback TCP, checks every answer it can against an
// in-process twin warehouse booted from the same bytes, and — in a traced
// run — replays the same request streams in process with spans around each
// public call so request time splits into per-layer self times.

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "mdm/mo.h"
#include "net/protocol.h"
#include "net/server.h"
#include "subcube/manager.h"

namespace dwred::e2e {

// --- Run options and fixed conditions --------------------------------------

/// The measured window without --seconds: BENCHMARK.json's run_seconds, so
/// the bare command runs under the conditions of the committed results.
inline constexpr double kDefaultSeconds = 20;

struct Options {
  std::string workload;  ///< one of kWorkloads
  uint64_t seed = 1;
  double seconds = kDefaultSeconds;  ///< measured window
  bool trace = false;    ///< per-layer run instead of the end-to-end run
  bool smoke = false;    ///< scaled-down conditions (ctest)
  std::string dwredd;    ///< the daemon binary (beside the harness)
  std::string workdir;   ///< this run's scratch directory
  std::string trace_out; ///< directory for the JSON-lines span dumps
};

inline constexpr const char* kWorkloads[] = {"dashboard", "adhoc",
                                             "ingest_sync", "durable_ingest"};

// The fixed conditions of README.md.
inline constexpr int kHistoryMonths = 30;        ///< 2000-01 .. 2002-06
inline constexpr int kBoots = 3;                 ///< set-ups per served run (median)
inline constexpr int kReaders = 2;               ///< closed-loop query connections
inline constexpr size_t kAdhocChecked = 256;     ///< adhoc answers compared per connection
inline constexpr int kDurableBaseMonths = 12;    ///< history in the durable set-up
inline constexpr int kDurableMonths = 27;        ///< months ingested per round
inline constexpr int kDurableMinRounds = 3;
inline constexpr int kRecoveries = 5;            ///< RecoverWarehouse calls per round
inline constexpr size_t kTraceDumpCap = 1000;    ///< traces written per workload

/// The conditions --smoke scales down (30k facts, 6 writer batches in 2 s).
struct Conditions {
  size_t clicks_per_month = 20000;  ///< 600k facts of history
  double ingest_period_s = 0.25;    ///< ingest_sync: one writer month per period
  double warmup_s = 3.0;            ///< dashboard cache warm-up, untimed
};

Conditions ConditionsFor(bool smoke);

// --- Results ----------------------------------------------------------------

/// One workload run: metric values by name (units live in the catalog in
/// harness.cc) plus the operation tally the result JSON reports.
struct RunResult {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Records `count` failed checks or operations under one description.
  void Fail(const std::string& what, uint64_t count = 1);
  /// Fail(what) unless `ok`; logs passing checks to stderr.
  void Check(bool ok, const std::string& what);
};

// --- Clock ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Returns at `due_ns` (NowNs clock) with microsecond precision.
void WaitUntil(int64_t due_ns);

/// Latency samples with nearest-rank percentiles.
class Latencies {
 public:
  void Add(int64_t ns) { samples_.push_back(ns); }
  void Append(const Latencies& other);
  size_t size() const { return samples_.size(); }
  double PercentileUs(double q) const;
  double MeanUs() const;

 private:
  std::vector<int64_t> samples_;
};

double Median(std::vector<double> v);

/// The tail percentile of the end-to-end metrics. p99 sits on the boundary
/// between ingest_sync's cache hits and the ~1% of reads that miss after a
/// write, so it swung by 2x between runs (README "Steadiness").
inline constexpr double kTailQuantile = 0.95;
inline constexpr const char* kTailMetric = "op_p95_us";

/// One stderr line: `what`, the sample count and the window's percentiles.
void LogLatencies(const std::string& what, const Latencies& lat);

// --- Metrics registry snapshots ---------------------------------------------

/// obs::MetricsRegistry::RenderJson parsed flat: counters and gauges by name,
/// histograms as <name>_sum and <name>_count.
using MetricValues = std::map<std::string, double>;
MetricValues ParseMetricsJson(std::string_view json);
/// The harness process's own registry, for the in-process workloads.
MetricValues LocalMetrics();
double Delta(const MetricValues& before, const MetricValues& after,
             const std::string& name);
double Ratio(double num, double den);  ///< 0 when den == 0

// --- Inputs -----------------------------------------------------------------

/// The three-tier month/quarter/year retention policy (bench/bench_common.h's
/// kTier* texts, copied so this package does not depend on google-benchmark).
extern const char* const kTierTexts[3];

/// First day of month `index` counted from 2000-01 (index 0).
int64_t MonthStart(int index);

/// Per-stream sub-seeds derived from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index);

/// Generation-side Click dimensions. Batches built against them travel as
/// CSV (served) or symbolic journal records (durable), so the warehouses
/// under test never share these objects.
struct ClickSource {
  std::shared_ptr<Dimension> time_dim;
  std::shared_ptr<Dimension> url_dim;
};
ClickSource MakeClickSource();

/// `clicks` clicks spread over month `index`.
MultidimensionalObject MonthClicks(const ClickSource& src, int index,
                                   size_t clicks, uint64_t seed);

/// Month `index` as four weekly batches (the durable loader's unit).
std::vector<MultidimensionalObject> WeeklyClicks(const ClickSource& src,
                                                 int index, size_t clicks,
                                                 uint64_t seed);

/// The warehouse both the daemon and the twin boot from: months [0, months)
/// of clicks under the three-tier policy. Only its SaveWarehouse bytes are
/// handed on.
struct History {
  std::unique_ptr<MultidimensionalObject> mo;
  ReductionSpecification spec;
  int64_t sync_day = 0;  ///< first day after the history
};
History MakeHistory(uint64_t seed, int months, size_t clicks_per_month);

/// The 16 dashboard queries (4 domain groups x 4 window/granularity shapes)
/// at `now_day`, flags synchronized|parallel.
std::vector<net::Request> DashboardQueries(int64_t now_day);

/// 0..n-1 in a seeded order.
std::vector<uint32_t> SeededPermutation(size_t n, uint64_t seed);

/// The adhoc stream over now_day (184 days from `sync_day`) x 4 groups x 3
/// windows x 3 granularities, every tenth request unsynchronized: one full
/// period, after which every key recurs in the same order (kAdhocPeriod).
std::vector<net::Request> AdhocStream(uint64_t seed, int64_t sync_day);
inline constexpr size_t kAdhocPeriod = 16560;

// --- The twin ---------------------------------------------------------------

/// A warehouse booted in process exactly as dwredd boots `snapshot`
/// (LoadWarehouse -> SubcubeManager::Create -> InsertBottomFacts), then
/// synchronized at `sync_day` as the harness does over the wire. `oracle`
/// is a never-started net::Server: its Dispatch is the served command
/// semantics without a socket.
struct Twin {
  std::unique_ptr<SubcubeManager> mgr;
  std::unique_ptr<net::Server> oracle;
};
Result<Twin> BootTwin(const std::string& snapshot, int64_t sync_day);

// --- The daemon -------------------------------------------------------------

/// A dwredd child process. The destructor kills and reaps a child that was
/// not shut down cleanly, so no run leaves a daemon behind.
class Daemon {
 public:
  /// Spawns `binary args...` with DWRED_THREADS=2 and waits (up to
  /// `timeout_s`) for its "dwredd listening on <host>:<port>" line.
  static Result<std::unique_ptr<Daemon>> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      double timeout_s);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  /// VmHWM of the child, in MB.
  double PeakRssMb() const;
  /// Sends `shutdown` and waits for exit status 0.
  Status Shutdown();

 private:
  Daemon() = default;
  void Reap(bool kill_first);

  int pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

/// VmHWM of a process (`pid` 0 = self), in MB; 0 when unreadable.
double PeakRssMb(int pid);
/// Restarts this process's VmHWM at its current RSS; false when the kernel
/// refuses.
bool ResetPeakRss();

/// Half `half` (0 or 1) of the CPUs this process may run on: the harness
/// runs on half 0 and dwredd on half 1, so the load generator and the server
/// never share a core. False (no pinning) with fewer than 4 CPUs.
bool CpuHalf(int half, cpu_set_t* out);

// --- Spans ------------------------------------------------------------------

/// One request's spans, recorded by the harness around its calls. Times are
/// steady-clock nanoseconds; span 0 is the root.
class RequestTrace {
 public:
  struct Span {
    const char* name;
    int parent;  ///< index of the parent span, -1 for the root
    int64_t start_ns;
    int64_t end_ns;
  };

  void Begin(const char* root);
  /// Opens a child of the innermost open span; returns its index.
  int Open(const char* name);
  void Close(int span);
  /// Adds a closed child of `parent` (e.g. one of a call's profile stages);
  /// returns its index.
  int Add(int parent, const char* name, int64_t start_ns, int64_t dur_ns);
  void End();

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on a possibly-null trace for the scope's lifetime.
class SpanScope {
 public:
  SpanScope(RequestTrace* trace, const char* name)
      : trace_(trace), span_(trace ? trace->Open(name) : -1) {}
  ~SpanScope() {
    if (trace_) trace_->Close(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int index() const { return span_; }

 private:
  RequestTrace* trace_;
  int span_;
};

/// Time totals of one span name below a root.
struct LayerTotals {
  int64_t self_ns = 0;  ///< duration minus what its children cover
  int64_t dur_ns = 0;
};

/// Totals per request kind (the root span's name).
struct RootTotals {
  int64_t requests = 0;
  int64_t wall_ns = 0;
  int64_t unattributed_ns = 0;  ///< the root's self time
  std::map<std::string, LayerTotals, std::less<>> layers;
};
using RootMap = std::map<std::string, RootTotals, std::less<>>;

/// Folds traces into per-layer self times. A child outside its parent's
/// interval, or children covering more than their parent, count as nesting
/// errors; negative self time is clamped to 0, so the totals then no longer
/// add up to the wall time and the run fails.
class TraceCollector {
 public:
  void Fold(const RequestTrace& trace);
  void Merge(const TraceCollector& other);
  const RootMap& roots() const { return roots_; }
  int64_t nesting_errors() const { return nesting_errors_; }

 private:
  RootMap roots_;
  int64_t nesting_errors_ = 0;
};

/// Sets unattributed_us, trace.self_us and trace.wall_us (means over every
/// traced request) and fails the run unless the self times below the roots
/// plus the unattributed remainder add up to the roots' wall time exactly.
void SetAttributionMetrics(const TraceCollector& traces, RunResult* out);

/// The first `cap` traces of a run in the obs JSON-lines span format
/// (name/trace/span/parent/start_us/dur_us, plus dur_ns), readable by
/// `dwredctl trace-tree`.
class TraceDump {
 public:
  TraceDump(size_t cap, int64_t origin_ns) : cap_(cap), origin_ns_(origin_ns) {}
  void Offer(const RequestTrace& trace);
  /// Writes <opt.trace_out>/<workload>.trace.jsonl; a failed write fails
  /// the run.
  void Save(const Options& opt, RunResult* out) const;

 private:
  const size_t cap_;
  const int64_t origin_ns_;
  std::atomic<bool> full_{false};  ///< lock-free early out once cap_ is hit
  mutable std::mutex mu_;
  std::string lines_;    ///< guarded by mu_
  size_t traces_ = 0;    ///< guarded by mu_
  uint64_t next_id_ = 1; ///< guarded by mu_
};

// --- The in-process replay --------------------------------------------------

/// Counts the traced replay reads off each query's OpProfile.
struct ProfileTotals {
  int64_t queries = 0;
  int64_t fan_out = 0;
  int64_t rows_scanned = 0;
  int64_t result_facts = 0;
  int64_t response_bytes = 0;
  void Merge(const ProfileTotals& o);
};

/// Executes requests against a warehouse through an in-process mirror of
/// the served path — the client's and server's framing calls, the server's
/// command bodies, no socket — with spans around each public call when given
/// a trace. Mutating commands are serialized like the server's write lock.
class Replayer {
 public:
  explicit Replayer(SubcubeManager* mgr) : mgr_(mgr) {}
  net::Response Execute(const net::Request& req, RequestTrace* trace,
                        ProfileTotals* totals);

 private:
  net::Response Query(const net::Request& req, RequestTrace* trace,
                      ProfileTotals* totals);
  net::Response Insert(const net::Request& req, RequestTrace* trace);
  net::Response Synchronize(const net::Request& req, RequestTrace* trace);

  SubcubeManager* mgr_;
  std::mutex write_mu_;
};

/// Root span name of a request ("request.query.sync", "request.insert", ...).
const char* RequestKind(const net::Request& req);

// --- Workloads --------------------------------------------------------------

void RunServed(const Options& opt, const Conditions& cond, RunResult* out);
void RunDurable(const Options& opt, const Conditions& cond, RunResult* out);

}  // namespace dwred::e2e
