// The served workloads — dashboard, adhoc, ingest_sync — against a dwredd
// child process, with the twin as the correctness oracle and, under
// --trace, the in-process replay as the per-layer attribution.

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>

#include "e2e.h"
#include "io/csv.h"
#include "io/snapshot.h"
#include "io/warehouse_io.h"
#include "net/client.h"

namespace dwred::e2e {

namespace {

using Exec = std::function<Result<net::Response>(const net::Request&)>;

/// Everything a served workload sends, generated from the seed before any
/// timing starts.
struct Streams {
  bool adhoc = false;
  bool writer = false;                           ///< ingest_sync
  std::vector<net::Request> dashboard;           ///< at the sync day
  std::vector<std::string> expected;             ///< twin answers to `dashboard`
  std::vector<std::vector<uint32_t>> order;      ///< per connection, seeded
  std::vector<net::Request> adhoc_reqs;          ///< kAdhocPeriod requests
  std::vector<net::Request> writes;              ///< insert, synchronize, ...
  std::vector<int64_t> write_now;                ///< NOW after each batch
  size_t facts_per_batch = 0;
};

/// Where connection `conn` starts in the adhoc stream. Half a period apart,
/// the two connections ask each other's keys only about 1800 requests
/// later, long after the 256-entry cache has dropped them.
size_t AdhocStart(size_t conn) { return conn * kAdhocPeriod / 2; }

Streams MakeStreams(const Options& opt, const Conditions& cond,
                    int64_t sync_day, size_t batches) {
  Streams s;
  s.adhoc = opt.workload == "adhoc";
  s.writer = opt.workload == "ingest_sync";
  s.dashboard = DashboardQueries(sync_day);
  for (int c = 0; c < kReaders; ++c) {
    s.order.push_back(SeededPermutation(s.dashboard.size(),
                                        SubSeed(opt.seed, 4, static_cast<uint64_t>(c))));
  }
  if (s.adhoc) s.adhoc_reqs = AdhocStream(opt.seed, sync_day);
  if (s.writer) {
    // One month per batch after the history, each followed by the
    // synchronization at the next month's first day.
    ClickSource src = MakeClickSource();
    s.facts_per_batch = cond.clicks_per_month;
    for (size_t b = 0; b < batches; ++b) {
      const int month = kHistoryMonths + static_cast<int>(b);
      net::Request insert;
      insert.cmd = net::Command::kInsert;
      insert.a = WriteFactCsv(MonthClicks(src, month, cond.clicks_per_month,
                                          SubSeed(opt.seed, 5, month)));
      net::Request sync;
      sync.cmd = net::Command::kSynchronize;
      sync.now_day = MonthStart(month + 1);
      s.writes.push_back(std::move(insert));
      s.writes.push_back(std::move(sync));
      s.write_now.push_back(MonthStart(month + 1));
    }
  }
  return s;
}

/// One reader connection's outcome.
struct ConnOutcome {
  Latencies lat;
  uint64_t attempted = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<size_t, std::string>> recorded;  ///< adhoc answers
  int64_t end_ns = 0;
};

struct WriterOutcome {
  Latencies insert;  ///< from when the batch was due (open loop)
  Latencies sync;
  Latencies lag;     ///< how late each batch was sent
  uint64_t attempted = 0;
  size_t batches = 0;
  std::vector<std::string> errors;
};

struct PhaseOutcome {
  std::vector<ConnOutcome> conns;
  WriterOutcome writer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  ///< when the last reader finished
};

/// What one phase sends and checks.
struct Phase {
  const Streams* streams;
  size_t record = 0;        ///< adhoc answers kept per connection for the twin check
  double seconds = 0;
  size_t batches = 0;       ///< writer batches spread over `seconds`
};

/// Closed loop, as analysts and dashboards wait for each reply: one request
/// in flight on the connection, the next sent when the answer arrives.
void ReaderLoop(const Phase& ph, size_t conn, const Exec& exec,
                const std::atomic<bool>& stop,
                const std::atomic<int64_t>& now_day, ConnOutcome* out) {
  const Streams& s = *ph.streams;
  net::Request moving;  // ingest_sync: the dashboard query at the writer's NOW
  for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const net::Request* req = nullptr;
    size_t index = 0;
    if (s.adhoc) {
      index = (AdhocStart(conn) + i) % s.adhoc_reqs.size();
      req = &s.adhoc_reqs[index];
    } else {
      index = s.order[conn][i % s.order[conn].size()];
      req = &s.dashboard[index];
      if (s.writer) {
        moving = *req;
        moving.now_day = now_day.load(std::memory_order_acquire);
        req = &moving;
      }
    }
    const int64_t start = NowNs();
    Result<net::Response> resp = exec(*req);
    const int64_t end = NowNs();
    ++out->attempted;
    if (!resp.ok()) {
      out->errors.push_back("conn " + std::to_string(conn) + ": " +
                            resp.status().ToString());
      break;  // the connection is gone
    }
    if (resp.value().code != StatusCode::kOk) {
      out->errors.push_back("query failed: " + resp.value().message);
      continue;
    }
    out->lat.Add(end - start);
    if (!s.adhoc && !s.writer && resp.value().body != s.expected[index]) {
      out->errors.push_back("dashboard answer " + std::to_string(index) +
                            " differs from the twin's");
    }
    if (s.adhoc && out->recorded.size() < ph.record) {
      out->recorded.emplace_back(index, std::move(resp.value().body));
    }
  }
  out->end_ns = NowNs();
}

/// Open loop: batch b is due at start + b * period, whether or not the
/// previous one has been acknowledged late.
void WriterLoop(const Phase& ph, const Exec& exec,
                std::atomic<int64_t>* now_day, WriterOutcome* out) {
  const Streams& s = *ph.streams;
  const int64_t period_ns =
      static_cast<int64_t>(ph.seconds * 1e9 / static_cast<double>(ph.batches));
  const int64_t start = NowNs();
  for (size_t b = 0; b < ph.batches; ++b) {
    const int64_t due = start + static_cast<int64_t>(b) * period_ns;
    WaitUntil(due);
    out->lag.Add(NowNs() - due);
    for (int step = 0; step < 2; ++step) {
      const int64_t sent = NowNs();
      Result<net::Response> resp = exec(s.writes[2 * b + static_cast<size_t>(step)]);
      ++out->attempted;
      if (!resp.ok() || resp.value().code != StatusCode::kOk) {
        out->errors.push_back(std::string(step == 0 ? "insert" : "synchronize") +
                              " failed: " +
                              (resp.ok() ? resp.value().message
                                         : resp.status().ToString()));
        return;
      }
      if (step == 0) {
        out->insert.Add(NowNs() - due);
      } else {
        out->sync.Add(NowNs() - sent);
      }
    }
    now_day->store(s.write_now[b], std::memory_order_release);
    ++out->batches;
  }
}

PhaseOutcome RunPhase(const Phase& ph, const std::vector<Exec>& readers,
                      const Exec* writer, int64_t start_now) {
  PhaseOutcome out;
  out.conns.resize(readers.size());
  std::atomic<bool> stop{false};
  std::atomic<int64_t> now_day{start_now};
  out.start_ns = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < readers.size(); ++c) {
    threads.emplace_back(ReaderLoop, std::cref(ph), c, std::cref(readers[c]),
                         std::cref(stop), std::cref(now_day), &out.conns[c]);
  }
  if (writer != nullptr) WriterLoop(ph, *writer, &now_day, &out.writer);
  // The window lasts `seconds` either way, so with a writer each of its
  // slices holds the same number of writes at the same offsets.
  WaitUntil(out.start_ns + static_cast<int64_t>(ph.seconds * 1e9));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  out.end_ns = out.start_ns;
  for (const ConnOutcome& c : out.conns) out.end_ns = std::max(out.end_ns, c.end_ns);
  return out;
}

/// Folds a phase's operations and errors into the run's tally.
void Tally(const PhaseOutcome& ph, RunResult* out) {
  for (const ConnOutcome& c : ph.conns) {
    out->attempted += c.attempted;
    for (const std::string& e : c.errors) out->Fail(e);
  }
  out->attempted += ph.writer.attempted;
  for (const std::string& e : ph.writer.errors) out->Fail(e);
}

Latencies QueryLatencies(const PhaseOutcome& ph) {
  Latencies all;
  for (const ConnOutcome& c : ph.conns) all.Append(c.lat);
  return all;
}

Result<MetricValues> ServedStats(net::Client* client) {
  net::Request req;
  req.cmd = net::Command::kStats;
  req.flags = net::kStatsJson;
  DWRED_ASSIGN_OR_RETURN(net::Response resp, client->Call(req));
  if (resp.code != StatusCode::kOk) return Status::Internal(resp.message);
  return ParseMetricsJson(resp.body);
}

Result<uint32_t> ServedCrc(net::Client* client) {
  net::Request req;
  req.cmd = net::Command::kSnapshotCrc;
  DWRED_ASSIGN_OR_RETURN(net::Response resp, client->Call(req));
  if (resp.code != StatusCode::kOk || resp.body.rfind("crc=", 0) != 0) {
    return Status::Internal("snapshot-crc: " + resp.message + resp.body);
  }
  return static_cast<uint32_t>(std::strtoul(resp.body.c_str() + 4, nullptr, 10));
}

/// One set-up: spawn to listener line, then the first synchronize ack.
struct Boot {
  std::unique_ptr<Daemon> daemon;
  double boot_s = 0;
  double sync_s = 0;
};

Result<Boot> BootDaemon(const std::string& binary, const std::string& snapshot,
                        int64_t sync_day) {
  Boot boot;
  const auto start = Clock::now();
  DWRED_ASSIGN_OR_RETURN(
      boot.daemon,
      Daemon::Spawn(binary,
                    {"--snapshot=" + snapshot, "--port=0", "--max-connections=8"},
                    /*timeout_s=*/120));
  boot.boot_s = SecondsSince(start);
  const auto sync_start = Clock::now();
  DWRED_ASSIGN_OR_RETURN(net::Client client,
                         net::Client::Connect("127.0.0.1", boot.daemon->port()));
  net::Request req;
  req.cmd = net::Command::kSynchronize;
  req.now_day = sync_day;
  DWRED_ASSIGN_OR_RETURN(net::Response resp, client.Call(req));
  if (resp.code != StatusCode::kOk) {
    return Status::Internal("first synchronize: " + resp.message);
  }
  boot.sync_s = SecondsSince(sync_start);
  return boot;
}

/// Microseconds of `layer` per request of the given kinds: its self time,
/// or with `self` false its whole span duration.
double MeanUs(const RootMap& totals,
              std::initializer_list<const char*> roots, const char* layer,
              bool self = true) {
  int64_t ns = 0, requests = 0;
  for (const char* r : roots) {
    auto it = totals.find(r);
    if (it == totals.end()) continue;
    requests += it->second.requests;
    auto l = it->second.layers.find(layer);
    if (l != it->second.layers.end()) {
      ns += self ? l->second.self_ns : l->second.dur_ns;
    }
  }
  return requests == 0 ? 0 : static_cast<double>(ns) / static_cast<double>(requests) / 1e3;
}

/// The replay's per-layer numbers, from traced (or untraced) phases.
struct ReplayOutcome {
  PhaseOutcome phase;
  TraceCollector traces;
  ProfileTotals totals;
};

}  // namespace

void RunServed(const Options& opt, const Conditions& cond, RunResult* out) {
  // A traced run splits its window over the served phase and the untraced
  // and traced replays.
  const double window = opt.trace ? opt.seconds / 3 : opt.seconds;
  const size_t batches = static_cast<size_t>(
      std::max(2.0, std::round(window / cond.ingest_period_s)));

  // --- Inputs -------------------------------------------------------------
  auto t = Clock::now();
  History hist = MakeHistory(opt.seed, kHistoryMonths, cond.clicks_per_month);
  const int64_t sync_day = hist.sync_day;
  const size_t history_facts = hist.mo->num_facts();
  Streams streams = MakeStreams(opt, cond, sync_day, batches);
  out->Set("setup.generate_s", SecondsSince(t));

  t = Clock::now();
  const std::string snapshot = SaveWarehouse(*hist.mo, hist.spec);
  hist.mo.reset();
  const std::string snapshot_path = opt.workdir + "/warehouse.dwsnap";
  if (Status st = WriteFile(snapshot_path, snapshot); !st.ok()) {
    out->Fail("write snapshot: " + st.ToString());
    return;
  }
  out->Set("setup.snapshot_s", SecondsSince(t));

  auto twin_r = BootTwin(snapshot, sync_day);
  if (!twin_r.ok()) {
    out->Fail("twin boot: " + twin_r.status().ToString());
    return;
  }
  Twin twin = twin_r.take();
  for (const net::Request& q : streams.dashboard) {
    net::Response r = twin.oracle->Dispatch(q);
    if (r.code != StatusCode::kOk) {
      out->Fail("twin cannot answer '" + q.a + "': " + r.message);
      return;
    }
    streams.expected.push_back(std::move(r.body));
  }

  // --- Set-up: boot the daemon several times, keep the last -------------
  std::vector<double> setup_s, boot_s, sync_s;
  std::unique_ptr<Daemon> daemon;
  for (int b = 0; b < kBoots; ++b) {
    auto boot = BootDaemon(opt.dwredd, snapshot_path, sync_day);
    if (!boot.ok()) {
      out->Fail("boot dwredd: " + boot.status().ToString());
      return;
    }
    boot_s.push_back(boot.value().boot_s);
    sync_s.push_back(boot.value().sync_s);
    setup_s.push_back(boot.value().boot_s + boot.value().sync_s);
    daemon = std::move(boot.value().daemon);
    if (b + 1 < kBoots) {
      Status st = daemon->Shutdown();
      out->Check(st.ok(), "dwredd shuts down cleanly (" + st.ToString() + ")");
    }
  }
  out->Set("setup.boot_s", Median(boot_s));
  out->Set("setup.first_sync_s", Median(sync_s));

  auto control_r = net::Client::Connect("127.0.0.1", daemon->port());
  if (!control_r.ok()) {
    out->Fail("connect: " + control_r.status().ToString());
    return;
  }
  net::Client control = control_r.take();
  const uint32_t twin_crc = net::WarehouseCrc(*twin.mgr);
  {
    auto crc = ServedCrc(&control);
    out->Check(crc.ok() && crc.value() == twin_crc,
               "served snapshot-crc equals the twin's after boot (" +
                   std::to_string(twin_crc) + ")");
  }

  // --- Load connections ---------------------------------------------------
  std::vector<net::Client> clients;
  for (int c = 0; c < kReaders + (streams.writer ? 1 : 0); ++c) {
    auto conn = net::Client::Connect("127.0.0.1", daemon->port());
    if (!conn.ok()) {
      out->Fail("connect: " + conn.status().ToString());
      return;
    }
    clients.push_back(conn.take());
  }
  std::vector<Exec> readers;
  for (int c = 0; c < kReaders; ++c) {
    net::Client* client = &clients[static_cast<size_t>(c)];
    readers.push_back([client](const net::Request& r) { return client->Call(r); });
  }
  net::Client* writer_client = streams.writer ? &clients.back() : nullptr;
  const Exec writer = [writer_client](const net::Request& r) {
    return writer_client->Call(r);
  };

  const Phase phase{&streams, streams.adhoc ? kAdhocChecked : 0, window, batches};
  // dashboard measures a warm cache: its 16 answers are computed untimed.
  auto warm_up = [&](const std::vector<Exec>& conns) {
    if (streams.adhoc || streams.writer) return;
    Phase warm = phase;
    warm.seconds = cond.warmup_s;
    Tally(RunPhase(warm, conns, nullptr, sync_day), out);
  };
  warm_up(readers);

  // --- The measured window -----------------------------------------------
  auto stats0 = ServedStats(&control);
  PhaseOutcome served =
      RunPhase(phase, readers, streams.writer ? &writer : nullptr, sync_day);
  auto stats1 = ServedStats(&control);
  Tally(served, out);
  if (!stats0.ok() || !stats1.ok()) {
    out->Fail("served stats unavailable");
    return;
  }
  const MetricValues& s0 = stats0.value();
  const MetricValues& s1 = stats1.value();

  // --- Correctness against the twin ---------------------------------------
  if (streams.adhoc) {
    size_t compared = 0, differing = 0;
    for (const ConnOutcome& conn : served.conns) {
      for (const auto& [index, body] : conn.recorded) {
        net::Response r = twin.oracle->Dispatch(streams.adhoc_reqs[index]);
        ++compared;
        if (r.code != StatusCode::kOk || r.body != body) ++differing;
      }
    }
    const std::string what = std::to_string(compared) +
                             " adhoc answers byte-equal to the twin's (" +
                             std::to_string(differing) + " differ)";
    if (differing > 0) {
      out->Fail(what, differing);
    } else {
      out->Check(compared > 0, what);
    }
  }
  size_t facts = history_facts;
  if (streams.writer) {
    for (size_t b = 0; b < served.writer.batches; ++b) {
      for (int step = 0; step < 2; ++step) {
        net::Response r = twin.oracle->Dispatch(streams.writes[2 * b + static_cast<size_t>(step)]);
        if (r.code != StatusCode::kOk) out->Fail("twin replay: " + r.message);
      }
    }
    facts += served.writer.batches * streams.facts_per_batch;
  }
  {
    auto crc = ServedCrc(&control);
    const uint32_t expect = net::WarehouseCrc(*twin.mgr);
    out->Check(crc.ok() && crc.value() == expect,
               "served snapshot-crc equals the twin's after the window (" +
                   std::to_string(expect) + ")");
  }
  const double stored_bytes = s1.count("dwred_storage_fact_bytes")
                                  ? s1.at("dwred_storage_fact_bytes")
                                  : 0;
  out->Check(stored_bytes == static_cast<double>(twin.mgr->TotalBytes()),
             "served stored bytes equal the twin's (" +
                 std::to_string(twin.mgr->TotalBytes()) + ")");

  const double rss = daemon->PeakRssMb();
  for (net::Client& c : clients) c.Close();
  control.Close();
  {
    Status st = daemon->Shutdown();
    out->Check(st.ok(), "dwredd shuts down cleanly (" + st.ToString() + ")");
  }
  daemon.reset();

  if (!opt.trace) {
    const Latencies lat = QueryLatencies(served);
    out->Set("setup_s", Median(setup_s));
    out->Set("op_p50_us", lat.PercentileUs(0.5));
    out->Set(kTailMetric, lat.PercentileUs(kTailQuantile));
    out->Set("ops_per_s", static_cast<double>(lat.size()) /
                              (static_cast<double>(served.end_ns - served.start_ns) / 1e9));
    out->Set("stored_bytes_per_fact", stored_bytes / static_cast<double>(facts));
    out->Set("peak_rss_mb", rss);
    LogLatencies(opt.workload + ": OK queries", lat);
    return;
  }

  // --- Per-layer: served counts ---------------------------------------------
  auto d = [&](const char* name) { return Delta(s0, s1, name); };
  const double queries = d("dwred_net_cmd_query");
  const double frames = d("dwred_net_frames");
  out->Set("net.bytes_read", Ratio(d("dwred_net_bytes_read"), frames));
  out->Set("net.bytes_written", Ratio(d("dwred_net_bytes_written"), frames));
  out->Set("net.insert_rtt_ms", served.writer.insert.MeanUs() / 1e3);
  out->Set("net.sync_rtt_ms", served.writer.sync.MeanUs() / 1e3);
  out->Set("ingest.writer_lag_ms", served.writer.lag.MeanUs() / 1e3);
  const double hits = d("dwred_cache_query_hits");
  out->Set("cache.query_hit_ratio", Ratio(hits, hits + d("dwred_cache_query_misses")));
  const double spec_hits = d("dwred_cache_scanspec_hits");
  out->Set("cache.scanspec_hit_ratio",
           Ratio(spec_hits, spec_hits + d("dwred_cache_scanspec_misses")));
  out->Set("cache.invalidations", d("dwred_cache_invalidations"));
  out->Set("cache.evictions", d("dwred_cache_evictions"));
  const double scanned = d("dwred_scan_segments_scanned");
  const double pruned = d("dwred_scan_segments_pruned");
  out->Set("scan.segments_scanned", Ratio(scanned, queries));
  out->Set("scan.segments_pruned", Ratio(pruned, queries));
  out->Set("scan.rows_skipped", Ratio(d("dwred_scan_rows_skipped"), queries));
  out->Set("scan.prune_ratio", Ratio(pruned, scanned + pruned));
  const double compiles = d("dwred_vm_compiles");
  const double vm_hits = d("dwred_vm_cache_hits");
  out->Set("vm.compiles_per_query", Ratio(compiles, queries));
  out->Set("vm.cache_hit_ratio", Ratio(vm_hits, vm_hits + compiles));
  out->Set("vm.fallbacks_per_query", Ratio(d("dwred_vm_fallbacks"), queries));
  for (const char* g : {"bytes_row", "bytes_columnar", "bytes_saved", "fact_rows"}) {
    const std::string name = std::string("dwred_storage_") + g;
    out->Set(std::string("storage.") + g, s1.count(name) ? s1.at(name) : 0);
  }
  out->Set("exec.tasks", Ratio(d("dwred_exec_tasks"), frames));
  out->Set("exec.steals", Ratio(d("dwred_exec_steals"), frames));
  out->Set("runtime.admission_waits", d("dwred_admission_waits"));
  out->Set("runtime.shed", d("dwred_shed_total"));
  out->Set("runtime.aborts", d("dwred_net_aborts") + d("dwred_cancel_cancelled") +
                                 d("dwred_cancel_deadline_exceeded") +
                                 d("dwred_cancel_resource_exhausted"));
  out->Set("subcube.sync_rows_migrated",
           Ratio(d("dwred_subcube_sync_rows_migrated"), d("dwred_subcube_syncs")));

  // --- Per-layer: in-process replays ----------------------------------------
  // The same streams, thread layout, warm-up and window, each on a twin
  // freshly booted from the snapshot bytes, so every replay starts from the
  // daemon's state: the same history and an empty cache.
  TraceDump dump(kTraceDumpCap, NowNs());
  auto replay = [&](bool traced) -> ReplayOutcome {
    ReplayOutcome r;
    auto booted = BootTwin(snapshot, sync_day);
    if (!booted.ok()) {
      out->Fail("twin boot: " + booted.status().ToString());
      return r;
    }
    const Twin fresh = booted.take();
    Replayer replayer(fresh.mgr.get());
    const Exec untraced = [&](const net::Request& req) -> Result<net::Response> {
      return replayer.Execute(req, nullptr, nullptr);
    };
    warm_up(std::vector<Exec>(readers.size(), untraced));
    const size_t lanes = readers.size() + 1;
    std::vector<RequestTrace> traces(lanes);
    std::vector<TraceCollector> collectors(lanes);
    std::vector<ProfileTotals> totals(lanes);
    auto lane = [&](size_t i) -> Exec {
      if (!traced) return untraced;
      return [&, i](const net::Request& req) -> Result<net::Response> {
        RequestTrace& tr = traces[i];
        tr.Begin(RequestKind(req));
        net::Response resp = replayer.Execute(req, &tr, &totals[i]);
        tr.End();
        collectors[i].Fold(tr);
        dump.Offer(tr);
        return resp;
      };
    };
    std::vector<Exec> replay_readers;
    for (size_t c = 0; c < readers.size(); ++c) replay_readers.push_back(lane(c));
    const Exec replay_writer = lane(readers.size());
    Phase ph = phase;
    ph.record = 0;
    r.phase = RunPhase(ph, replay_readers, streams.writer ? &replay_writer : nullptr,
                       sync_day);
    for (size_t i = 0; i < lanes; ++i) {
      r.traces.Merge(collectors[i]);
      r.totals.Merge(totals[i]);
    }
    return r;
  };
  ReplayOutcome plain = replay(/*traced=*/false);
  ReplayOutcome traced = replay(/*traced=*/true);
  Tally(plain.phase, out);
  Tally(traced.phase, out);

  const double plain_mean = QueryLatencies(plain.phase).MeanUs();
  const double traced_mean = QueryLatencies(traced.phase).MeanUs();
  out->Set("net.wire_overhead_us", QueryLatencies(served).MeanUs() - plain_mean);
  out->Set("trace.overhead_pct", Ratio(traced_mean - plain_mean, plain_mean) * 100);

  const RootMap& totals = traced.traces.roots();
  const auto q = {"request.query.sync", "request.query.unsync"};
  for (const char* layer : {"net.client_encode", "net.server_decode", "net.render",
                            "net.server_encode", "net.client_decode"}) {
    out->Set(std::string(layer) + "_us", MeanUs(totals, q, layer));
  }
  out->Set("spec.parse_us", MeanUs(totals, q, "spec.parse"));
  out->Set("cache.lookup_us", MeanUs(totals, q, "cache.lookup"));
  out->Set("subcube.query_us", MeanUs(totals, q, "subcube.query", /*self=*/false));
  out->Set("subcube.unstaged_us", MeanUs(totals, q, "subcube.query"));
  out->Set("subcube.plan_us", MeanUs(totals, q, "subcube.plan"));
  out->Set("subcube.subqueries_us",
           MeanUs(totals, q, "subcube.subqueries", /*self=*/false));
  out->Set("subcube.materialize_us", MeanUs(totals, q, "subcube.materialize"));
  out->Set("scan.us", MeanUs(totals, q, "scan"));
  out->Set("query.aggregate_us", MeanUs(totals, q, "query.aggregate"));
  out->Set("query.aggregate_sync_us",
           MeanUs(totals, {"request.query.sync"}, "query.aggregate"));
  out->Set("query.aggregate_unsync_us",
           MeanUs(totals, {"request.query.unsync"}, "query.aggregate"));
  const ProfileTotals& pt = traced.totals;
  const double replayed = static_cast<double>(pt.queries);
  out->Set("subcube.fan_out", Ratio(static_cast<double>(pt.fan_out), replayed));
  out->Set("scan.rows_scanned", Ratio(static_cast<double>(pt.rows_scanned), replayed));
  out->Set("query.result_facts", Ratio(static_cast<double>(pt.result_facts), replayed));
  out->Set("net.response_bytes", Ratio(static_cast<double>(pt.response_bytes), replayed));
  out->Set("io.csv_decode_ms",
           MeanUs(totals, {"request.insert"}, "io.csv_decode") / 1e3);
  out->Set("subcube.insert_ms",
           MeanUs(totals, {"request.insert"}, "subcube.insert") / 1e3);
  out->Set("subcube.sync_ms",
           MeanUs(totals, {"request.synchronize"}, "subcube.sync", false) / 1e3);
  for (const char* stage : {"plan", "apply", "compact"}) {
    const std::string layer = std::string("subcube.sync.") + stage;
    out->Set(layer + "_ms",
             MeanUs(totals, {"request.synchronize"}, layer.c_str()) / 1e3);
  }
  SetAttributionMetrics(traced.traces, out);
  dump.Save(opt, out);
}

}  // namespace dwred::e2e
