// B15 — the durable ingest path: DurableWarehouse::InsertFacts, whose
// acknowledgement means the batch is journaled (intent fsync, apply, commit
// fsync), and RecoverWarehouse replaying those inserts. Each directory holds
// a seeded click-stream base under the subcube organization, checkpointed
// after its first synchronize, then weekly journaled inserts and one more
// synchronize pass in the journal.
//
// Counters:
//   recovered_crc           net::WarehouseCrc of the recovered warehouse. It
//                           must equal the live warehouse's (checked here)
//                           and the committed baseline (tools/bench_diff.py),
//                           so a redo format or replay change that moves a
//                           byte fails CI.
//   journal_bytes_per_fact  journal bytes the inserts appended, per fact.

#include <stdlib.h>

#include <filesystem>

#include "bench_common.h"

#include "chrono/civil.h"
#include "io/recovery.h"
#include "io/snapshot.h"
#include "net/command.h"

namespace dwred::bench {
namespace {

constexpr int kWeeks = 4;
constexpr size_t kFactsPerWeek = 4000;

struct Scenario {
  std::string base;  ///< SaveWarehouse image of the base history + policy
  int64_t base_sync_day = 0;
  std::vector<MultidimensionalObject> weeks;
  int64_t sync_day = 0;
  size_t facts = 0;  ///< inserted across the weeks
};

const Scenario& TheScenario() {
  static const Scenario s = [] {
    ClickstreamConfig cfg;
    cfg.seed = 15;
    cfg.num_clicks = 20000;
    cfg.start = {1999, 1, 1};
    cfg.span_days = 2 * 365;
    cfg.num_domains = 50;
    cfg.urls_per_domain = 20;
    ClickstreamWorkload w = MakeClickstream(cfg);
    Scenario out;
    out.base = SaveWarehouse(*w.mo, TakeOrAbort(MakePolicy(*w.mo, 3)));
    const int64_t first = DaysFromCivil({2001, 1, 1});
    out.base_sync_day = first;
    // Batches over the generator's dimensions: their days are new to the
    // saved base, so every insert resolves and interns them.
    for (int k = 0; k < kWeeks; ++k) {
      out.weeks.push_back(MakeClickBatch(w.time_dim, w.url_dim, first + 7 * k,
                                         first + 7 * k + 6, kFactsPerWeek,
                                         100 + static_cast<uint64_t>(k)));
      out.facts += out.weeks.back().num_facts();
    }
    out.sync_day = first + 7 * kWeeks;
    return out;
  }();
  return s;
}

std::string MakeTempDir() {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "dwred_durable.XXXXXX")
          .string();
  if (::mkdtemp(tmpl.data()) == nullptr) return "";
  return tmpl;
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<double>(n);
}

/// The checkpointed base in a fresh directory `dir`.
Result<std::unique_ptr<DurableWarehouse>> CreateBase(const Scenario& s,
                                                     const std::string& dir) {
  DWRED_ASSIGN_OR_RETURN(LoadedWarehouse loaded, LoadWarehouse(s.base));
  DWRED_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableWarehouse> dw,
      DurableWarehouse::Create(dir, std::move(loaded.mo),
                               std::move(loaded.spec)));
  DWRED_RETURN_IF_ERROR(dw->EnableSubcubes());
  DWRED_RETURN_IF_ERROR(dw->SynchronizePass(s.base_sync_day));
  DWRED_RETURN_IF_ERROR(dw->Checkpoint());
  return dw;
}

Status InsertWeeks(const Scenario& s, DurableWarehouse* dw) {
  for (const MultidimensionalObject& week : s.weeks) {
    DWRED_RETURN_IF_ERROR(dw->InsertFacts(week));
  }
  return Status::OK();
}

/// Recovers `dir` and checks it against the live warehouse's CRC.
Result<uint32_t> RecoveredCrc(const std::string& dir, uint32_t live_crc) {
  DWRED_ASSIGN_OR_RETURN(std::unique_ptr<DurableWarehouse> rec,
                         RecoverWarehouse(dir));
  const uint32_t crc = net::WarehouseCrc(*rec->subcubes());
  if (crc != live_crc) {
    return Status::Internal("recovered CRC " + std::to_string(crc) +
                            " != live CRC " + std::to_string(live_crc));
  }
  return crc;
}

bool Ok(benchmark::State& state, const Status& st) {
  if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  return st.ok();
}

/// Timed: the weekly journaled inserts (items: facts inserted).
void BM_DurableInsert(benchmark::State& state) {
  const Scenario& s = TheScenario();
  double journal_bytes = 0;
  uint32_t crc = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string dir = MakeTempDir();
    auto created = CreateBase(s, dir);
    if (!Ok(state, created.status())) break;
    std::unique_ptr<DurableWarehouse> dw = created.take();
    const double before = FileBytes(dir + "/journal.dwal");
    state.ResumeTiming();
    const Status inserted = InsertWeeks(s, dw.get());
    state.PauseTiming();
    if (!Ok(state, inserted)) break;
    journal_bytes = FileBytes(dir + "/journal.dwal") - before;
    if (!Ok(state, dw->SynchronizePass(s.sync_day))) break;
    const uint32_t live_crc = net::WarehouseCrc(*dw->subcubes());
    dw.reset();
    auto recovered = RecoveredCrc(dir, live_crc);
    if (!Ok(state, recovered.status())) break;
    crc = recovered.value();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    state.ResumeTiming();
  }
  state.counters["recovered_crc"] = crc;
  state.counters["journal_bytes_per_fact"] =
      journal_bytes / static_cast<double>(s.facts);
  state.SetItemsProcessed(static_cast<int64_t>(s.facts) * state.iterations());
}

BENCHMARK(BM_DurableInsert)
    ->Iterations(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Timed: RecoverWarehouse — snapshot load, per-cube restore, replay of the
/// journaled inserts and synchronize pass — and the CRC check of its result.
void BM_DurableRecover(benchmark::State& state) {
  const Scenario& s = TheScenario();
  const std::string dir = MakeTempDir();
  auto created = CreateBase(s, dir);
  if (!Ok(state, created.status())) return;
  std::unique_ptr<DurableWarehouse> dw = created.take();
  const double before = FileBytes(dir + "/journal.dwal");
  if (!Ok(state, InsertWeeks(s, dw.get()))) return;
  const double journal_bytes = FileBytes(dir + "/journal.dwal") - before;
  if (!Ok(state, dw->SynchronizePass(s.sync_day))) return;
  const uint32_t live_crc = net::WarehouseCrc(*dw->subcubes());
  dw.reset();
  uint32_t crc = 0;
  for (auto _ : state) {
    auto recovered = RecoveredCrc(dir, live_crc);
    if (!Ok(state, recovered.status())) break;
    crc = recovered.value();
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  state.counters["recovered_crc"] = crc;
  state.counters["journal_bytes_per_fact"] =
      journal_bytes / static_cast<double>(s.facts);
}

BENCHMARK(BM_DurableRecover)
    ->Iterations(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dwred::bench
