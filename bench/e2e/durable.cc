// The durable_ingest workload: an embedded DurableWarehouse — the path behind
// `dwredctl attach`, whose acknowledgement means the change is journaled —
// ingesting weekly batches with monthly synchronization, a checkpoint every
// six months, and recovery at the end of each round. Four inserts per sync
// keep both operation kinds well clear of the reported percentiles: p50 is
// an insert and p95 a synchronization pass (README "Steadiness").

#include <stdlib.h>

#include <filesystem>

#include "e2e.h"
#include "io/recovery.h"
#include "io/snapshot.h"

namespace dwred::e2e {

namespace {

struct RoundOutcome {
  double setup_s = 0;
  double boot_s = 0;
  double sync_s = 0;
  Latencies ops;  ///< every acknowledged journaled operation
  Latencies insert, sync, checkpoint, recover;
  double ingest_s = 0;
  size_t facts = 0;          ///< held at the end: history + ingested
  size_t ingested = 0;
  double stored_bytes = 0;   ///< SubcubeManager::TotalBytes at the end
  double snapshot_bytes = 0; ///< written by the ingest phase's checkpoints
  double recover_ops = 0;    ///< committed operations replayed, per recovery
  MetricValues before, after;  ///< registry around the ingest phase
};

/// Times one call; in a traced round also records it as a request whose
/// root wraps one span around the call.
class OpTimer {
 public:
  OpTimer(TraceCollector* traces, TraceDump* dump)
      : traces_(traces), dump_(dump) {}

  template <typename F>
  Status Run(const char* root, const char* layer, Latencies* lat, F&& call) {
    if (traces_ != nullptr) trace_.Begin(root);
    const int span = traces_ != nullptr ? trace_.Open(layer) : -1;
    const int64_t start = NowNs();
    Status st = call();
    const int64_t end = NowNs();
    lat->Add(end - start);
    if (traces_ != nullptr) {
      trace_.Close(span);
      trace_.End();
      traces_->Fold(trace_);
      dump_->Offer(trace_);
    }
    return st;
  }

 private:
  TraceCollector* traces_;
  TraceDump* dump_;
  RequestTrace trace_;
};

/// Removes a round's directory however the round ends.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

double FileBytes(const std::string& path) {
  std::error_code ec;
  auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<double>(n);
}

/// One round in a fresh directory. Returns false (after recording the
/// failure) when an operation fails.
bool RunRound(const Options& opt, const std::string& base, int64_t base_sync_day,
              const std::vector<std::vector<MultidimensionalObject>>& months,
              OpTimer* timer, RoundOutcome* r, RunResult* out) {
  ScratchDir dir;
  std::string tmpl = opt.workdir + "/durable.XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    out->Fail("mkdtemp " + tmpl);
    return false;
  }
  dir.path = tmpl;
  const std::string snapshot_path = dir.path + "/snapshot.dwsnap";
  auto failed = [&](const char* what, const Status& st) {
    out->Fail(std::string(what) + ": " + st.ToString());
    return false;
  };

  // Set-up, counted as one operation: the base history becomes a durable
  // subcube warehouse.
  ++out->attempted;
  const auto setup = Clock::now();
  auto loaded = LoadWarehouse(base);
  if (!loaded.ok()) return failed("load base", loaded.status());
  auto created = DurableWarehouse::Create(dir.path, std::move(loaded.value().mo),
                                          std::move(loaded.value().spec));
  if (!created.ok()) return failed("create", created.status());
  std::unique_ptr<DurableWarehouse> dw = created.take();
  if (Status st = dw->EnableSubcubes(); !st.ok()) return failed("enable", st);
  r->boot_s = SecondsSince(setup);
  const auto first_sync = Clock::now();
  if (Status st = dw->SynchronizePass(base_sync_day); !st.ok()) {
    return failed("first sync", st);
  }
  r->sync_s = SecondsSince(first_sync);
  r->setup_s = SecondsSince(setup);

  // Ingest: weekly journaled inserts, a synchronize per month, a checkpoint
  // every six months; the round ends three months after the last one.
  r->before = LocalMetrics();
  const auto ingest = Clock::now();
  const int m_count = static_cast<int>(months.size());
  for (int k = 0; k < m_count; ++k) {
    for (const MultidimensionalObject& batch : months[static_cast<size_t>(k)]) {
      ++out->attempted;
      Status st = timer->Run("durable.insert", "io.durable_insert", &r->insert,
                             [&] { return dw->InsertFacts(batch); });
      if (!st.ok()) return failed("insert", st);
      r->ingested += batch.num_facts();
    }
    ++out->attempted;
    const int64_t now_day = MonthStart(kDurableBaseMonths + k + 1);
    Status st = timer->Run("durable.sync", "io.sync_pass", &r->sync,
                           [&] { return dw->SynchronizePass(now_day); });
    if (!st.ok()) return failed("synchronize", st);
    if ((k + 1) % 6 == 0 && k + 1 <= m_count - 3) {
      ++out->attempted;
      st = timer->Run("durable.checkpoint", "io.checkpoint", &r->checkpoint,
                      [&] { return dw->Checkpoint(); });
      if (!st.ok()) return failed("checkpoint", st);
      r->snapshot_bytes += FileBytes(snapshot_path);
    }
  }
  r->ingest_s = SecondsSince(ingest);
  r->after = LocalMetrics();
  r->ops.Append(r->insert);
  r->ops.Append(r->sync);
  r->ops.Append(r->checkpoint);
  r->stored_bytes = static_cast<double>(dw->subcubes()->TotalBytes());
  const uint32_t live_crc = net::WarehouseCrc(*dw->subcubes());
  dw.reset();

  // Recovery: every RecoverWarehouse must reproduce the live warehouse.
  for (int i = 0; i < kRecoveries; ++i) {
    ++out->attempted;
    RecoveryStats stats;
    std::unique_ptr<DurableWarehouse> recovered;
    Status st = timer->Run("durable.recover", "io.recover", &r->recover, [&] {
      auto rec = RecoverWarehouse(dir.path, &stats);
      if (!rec.ok()) return rec.status();
      recovered = rec.take();
      return Status::OK();
    });
    if (!st.ok()) return failed("recover", st);
    const uint32_t crc = recovered->subcubes() != nullptr
                             ? net::WarehouseCrc(*recovered->subcubes())
                             : 0;
    if (crc != live_crc) {
      out->Fail("recovered CRC " + std::to_string(crc) + " != live CRC " +
                std::to_string(live_crc));
    }
    r->recover_ops += static_cast<double>(stats.ops_replayed) / kRecoveries;
  }
  return true;
}

}  // namespace

void RunDurable(const Options& opt, const Conditions& cond, RunResult* out) {
  auto t = Clock::now();
  History base = MakeHistory(opt.seed, kDurableBaseMonths, cond.clicks_per_month);
  const size_t base_facts = base.mo->num_facts();
  ClickSource src = MakeClickSource();
  std::vector<std::vector<MultidimensionalObject>> months;
  for (int k = 0; k < kDurableMonths; ++k) {
    months.push_back(WeeklyClicks(src, kDurableBaseMonths + k, cond.clicks_per_month,
                                  SubSeed(opt.seed, 6, static_cast<uint64_t>(k))));
  }
  out->Set("setup.generate_s", SecondsSince(t));
  t = Clock::now();
  const std::string base_bytes = SaveWarehouse(*base.mo, base.spec);
  base.mo.reset();
  out->Set("setup.snapshot_s", SecondsSince(t));
  // peak_rss_mb is the harness's own high-water mark: restart it here so it
  // measures the rounds, not the generator's history and batches.
  out->Check(ResetPeakRss(), "peak RSS reset after input generation");

  // Rounds repeat in fresh directories until the window is spent.
  auto run_rounds = [&](double seconds, int min_rounds, TraceCollector* traces,
                        TraceDump* dump) {
    std::vector<RoundOutcome> rounds;
    OpTimer timer(traces, dump);
    const auto start = Clock::now();
    while (static_cast<int>(rounds.size()) < min_rounds ||
           SecondsSince(start) < seconds) {
      RoundOutcome r;
      if (!RunRound(opt, base_bytes, base.sync_day, months, &timer, &r, out)) {
        break;
      }
      r.facts = base_facts + r.ingested;
      rounds.push_back(std::move(r));
    }
    return rounds;
  };
  auto merged = [](const std::vector<RoundOutcome>& rounds,
                   Latencies RoundOutcome::*field) {
    Latencies all;
    for (const RoundOutcome& r : rounds) all.Append(r.*field);
    return all;
  };
  auto median_of = [](const std::vector<RoundOutcome>& rounds, auto fn) {
    std::vector<double> v;
    for (const RoundOutcome& r : rounds) v.push_back(fn(r));
    return Median(v);
  };

  if (!opt.trace) {
    std::vector<RoundOutcome> rounds =
        run_rounds(opt.seconds, kDurableMinRounds, nullptr, nullptr);
    if (rounds.empty()) return;
    const Latencies ops = merged(rounds, &RoundOutcome::ops);
    double ingest_s = 0;
    for (const RoundOutcome& r : rounds) ingest_s += r.ingest_s;
    out->Set("setup_s", median_of(rounds, [](const RoundOutcome& r) { return r.setup_s; }));
    out->Set("op_p50_us", ops.PercentileUs(0.5));
    out->Set(kTailMetric, ops.PercentileUs(kTailQuantile));
    out->Set("ops_per_s", Ratio(static_cast<double>(ops.size()), ingest_s));
    out->Set("stored_bytes_per_fact", median_of(rounds, [](const RoundOutcome& r) {
               return r.stored_bytes / static_cast<double>(r.facts);
             }));
    out->Set("peak_rss_mb", PeakRssMb(0));
    LogLatencies("durable_ingest: " + std::to_string(rounds.size()) +
                     " rounds, acknowledged operations",
                 ops);
    return;
  }

  // Per-layer: untraced rounds for the overhead baseline, then traced ones.
  std::vector<RoundOutcome> plain = run_rounds(opt.seconds / 2, 1, nullptr, nullptr);
  TraceCollector traces;
  TraceDump dump(kTraceDumpCap, NowNs());
  std::vector<RoundOutcome> rounds = run_rounds(opt.seconds / 2, 1, &traces, &dump);
  if (plain.empty() || rounds.empty()) return;

  const double plain_mean = merged(plain, &RoundOutcome::ops).MeanUs();
  const double traced_mean = merged(rounds, &RoundOutcome::ops).MeanUs();
  out->Set("trace.overhead_pct", Ratio(traced_mean - plain_mean, plain_mean) * 100);
  out->Set("setup.boot_s", median_of(rounds, [](const RoundOutcome& r) { return r.boot_s; }));
  out->Set("setup.first_sync_s",
           median_of(rounds, [](const RoundOutcome& r) { return r.sync_s; }));
  out->Set("io.durable_insert_ms", merged(rounds, &RoundOutcome::insert).MeanUs() / 1e3);
  out->Set("io.sync_pass_ms", merged(rounds, &RoundOutcome::sync).MeanUs() / 1e3);
  out->Set("io.checkpoint_ms", merged(rounds, &RoundOutcome::checkpoint).MeanUs() / 1e3);
  out->Set("io.recover_ms", merged(rounds, &RoundOutcome::recover).MeanUs() / 1e3);

  double ops = 0, ingested = 0, ingest_s = 0, snapshot_bytes = 0, replayed = 0;
  MetricValues delta;
  for (const RoundOutcome& r : rounds) {
    ops += static_cast<double>(r.ops.size());
    ingested += static_cast<double>(r.ingested);
    ingest_s += r.ingest_s;
    snapshot_bytes += r.snapshot_bytes;
    replayed += r.recover_ops;
    for (const auto& [name, value] : r.after) delta[name] += Delta(r.before, r.after, name);
  }
  auto d = [&](const char* name) { return delta.count(name) ? delta.at(name) : 0.0; };
  const double fsyncs = d("dwred_io_fsync_seconds_count");
  out->Set("io.fsync_count", Ratio(fsyncs, ops));
  out->Set("io.fsync_us", Ratio(d("dwred_io_fsync_seconds_sum"), fsyncs) * 1e6);
  const double journal = d("dwred_journal_bytes_appended");
  out->Set("io.journal_bytes", Ratio(journal, ingested));
  out->Set("io.snapshot_bytes", Ratio(snapshot_bytes, ingested));
  out->Set("io.disk_bytes_per_fact", Ratio(journal + snapshot_bytes, ingested));
  out->Set("io.recover_ops_replayed", replayed / static_cast<double>(rounds.size()));
  out->Set("io.ingest_facts_per_s", Ratio(ingested, ingest_s));
  out->Set("subcube.sync_ms", Ratio(d("dwred_subcube_sync_seconds_sum"),
                                    d("dwred_subcube_sync_seconds_count")) * 1e3);
  out->Set("subcube.sync_rows_migrated",
           Ratio(d("dwred_subcube_sync_rows_migrated"), d("dwred_subcube_syncs")));
  out->Set("cache.invalidations", d("dwred_cache_invalidations"));
  out->Set("exec.tasks", Ratio(d("dwred_exec_tasks"), ops));
  out->Set("exec.steals", Ratio(d("dwred_exec_steals"), ops));
  const MetricValues& last = rounds.back().after;
  for (const char* g : {"bytes_row", "bytes_columnar", "bytes_saved", "fact_rows"}) {
    const std::string name = std::string("dwred_storage_") + g;
    out->Set(std::string("storage.") + g, last.count(name) ? last.at(name) : 0);
  }
  SetAttributionMetrics(traces, out);
  dump.Save(opt, out);
}

}  // namespace dwred::e2e
