#include "net/command.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <sstream>

#include "cache/cache.h"
#include "chrono/granule.h"
#include "common/strings.h"
#include "io/atomic_file.h"  // Crc32
#include "io/csv.h"
#include "io/recovery.h"
#include "io/warehouse_io.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "reduce/dynamics.h"
#include "spec/parser.h"

namespace dwred::net {

namespace {

/// `<date> [<granularity list>] [where <predicate>]`.
Result<Request> ParseQuery(std::string_view rest, uint8_t flags) {
  std::string_view head = rest;
  Request req;
  req.cmd = Command::kQuery;
  req.flags = flags;
  const size_t where = rest.find(" where ");
  if (where != std::string_view::npos) {
    head = rest.substr(0, where);
    req.a = std::string(Trim(rest.substr(where + 7)));
  }
  const size_t sp = head.find_first_of(" \t");
  DWRED_ASSIGN_OR_RETURN(req.now_day, ParseDay(head.substr(0, sp)));
  if (sp != std::string_view::npos) req.b = std::string(Trim(head.substr(sp)));
  return req;
}

Result<std::string> QueryBody(const Request& req, const SubcubeManager& mgr) {
  // Parsing resolves names against the facts-free context MO — read-only
  // (the parser never interns values), so concurrent sessions parse freely.
  std::shared_ptr<PredExpr> pred;
  if (!req.a.empty()) {
    DWRED_ASSIGN_OR_RETURN(pred, ParsePredicate(mgr.context(), req.a));
  }
  std::vector<CategoryId> gran;
  if (!req.b.empty()) {
    DWRED_ASSIGN_OR_RETURN(gran, ParseGranularityList(mgr.context(), req.b));
  }
  const bool explain = (req.flags & kQueryExplain) != 0;
  obs::OpProfile profile;
  // The answer's body was rendered under the query's shared lock; a cache
  // hit hands back that same immutable answer.
  DWRED_ASSIGN_OR_RETURN(
      std::shared_ptr<const cache::QueryAnswer> answer,
      mgr.Answer(pred.get(), req.b.empty() ? nullptr : &gran, req.now_day,
                 (req.flags & kQuerySynchronized) != 0,
                 (req.flags & kQueryParallel) != 0,
                 /*pinned_epoch=*/nullptr, explain ? &profile : nullptr));
  if (explain) return answer->body + profile.Render();
  return answer->body;
}

Result<std::string> InsertBody(const Request& req, const SubcubeManager& mgr,
                               const CommandTarget& target) {
  const MultidimensionalObject& ctx = mgr.context();
  MultidimensionalObject batch(ctx.fact_type(), ctx.dimensions(),
                               ctx.measure_types());
  {
    // CSV decoding interns unknown time values into the *shared* dimensions,
    // so it is a writer step: under the writer mutex, so it never lands
    // inside another writer's pass, and under the exclusive snapshot lock,
    // so it never races an epoch-pinned reader. Both are released before
    // the insert, which re-acquires them (neither is recursive). Values
    // interned here are factless until the insert lands; a reader between
    // the two critical sections sees extra interned values but identical
    // facts and bytes.
    const cache::WarehouseCache& wc = mgr.warehouse_cache();
    std::lock_guard<std::mutex> writer(wc.writer_mutex());
    std::unique_lock<std::shared_mutex> lock(wc.snapshot_mutex());
    DWRED_RETURN_IF_ERROR(ReadFactCsv(&batch, req.a));
  }
  DWRED_RETURN_IF_ERROR(target.durable != nullptr
                            ? target.durable->InsertFacts(batch)
                            : target.mgr->InsertBottomFacts(batch));
  return "inserted " + std::to_string(batch.num_facts()) +
         " facts epoch=" + std::to_string(mgr.epoch());
}

Result<std::string> SynchronizeBody(const Request& req,
                                    const SubcubeManager& mgr,
                                    const CommandTarget& target) {
  size_t migrated = 0;
  if (target.durable != nullptr) {
    DWRED_RETURN_IF_ERROR(
        target.durable->SynchronizePass(req.now_day, &migrated));
  } else {
    DWRED_ASSIGN_OR_RETURN(migrated, target.mgr->Synchronize(req.now_day));
  }
  return "synchronized: " + std::to_string(migrated) +
         " rows migrated epoch=" + std::to_string(mgr.epoch());
}

Result<std::string> SpecChangeBody(const Request& req,
                                   const CommandTarget& target) {
  if (target.durable != nullptr) {
    return Status::InvalidArgument(
        "a specification change is not journaled under the subcube "
        "organization");
  }
  SubcubeManager& mgr = *target.mgr;
  ReductionSpecification spec;
  {
    // Parsing reads the shared dimensions, which a concurrent insert's CSV
    // decode may be extending: hold the shared snapshot lock.
    std::shared_lock<std::shared_mutex> lock(
        mgr.warehouse_cache().snapshot_mutex());
    DWRED_ASSIGN_OR_RETURN(std::vector<Action> actions,
                           ReadSpecificationText(mgr.context(), req.a));
    // Re-validate the full set (Growing + NonCrossing) before touching the
    // layout — ChangeSpecification trusts a validated specification.
    DWRED_ASSIGN_OR_RETURN(
        spec, InsertActions(mgr.context(), ReductionSpecification{}, actions));
  }
  const size_t n_actions = spec.size();
  DWRED_RETURN_IF_ERROR(mgr.ChangeSpecification(std::move(spec), req.now_day));
  // One locked snapshot of the layout, one line per subcube.
  const std::string layout = mgr.DescribeLayout();
  return "specification installed: " + std::to_string(n_actions) +
         " actions, " +
         std::to_string(std::count(layout.begin(), layout.end(), '\n')) +
         " subcubes epoch=" + std::to_string(mgr.epoch()) + "\n" + layout;
}

Result<std::string> CacheBody(const Request& req, const SubcubeManager& mgr) {
  cache::WarehouseCache& wc = mgr.warehouse_cache();
  if (req.a == "clear") {
    wc.Clear();
    return std::string("cache cleared");
  }
  if (!req.a.empty()) return Status::InvalidArgument("usage: cache [clear]");
  const cache::WarehouseCache::Stats st = wc.GetStats();
  auto& reg = obs::MetricsRegistry::Global();
  auto count = [&](const char* name) {
    return reg.GetCounter(name, "").Value();
  };
  std::ostringstream out;
  out << "cache "
      << (cache::Enabled() ? "enabled" : "disabled (DWRED_CACHE_DISABLED)")
      << ": epoch=" << st.epoch << "\n  query entries=" << st.query_entries
      << " scanspec entries=" << st.scanspec_entries
      << " program entries=" << st.program_entries
      << " bytes=" << HumanBytes(st.bytes) << " (budget " << st.max_entries
      << " entries, " << HumanBytes(st.max_bytes) << ")\n  query hits="
      << count("dwred_cache_query_hits")
      << " misses=" << count("dwred_cache_query_misses")
      << " | scanspec hits=" << count("dwred_cache_scanspec_hits")
      << " misses=" << count("dwred_cache_scanspec_misses")
      << " | evictions=" << count("dwred_cache_evictions")
      << " invalidations=" << count("dwred_cache_invalidations") << "\n";
  return out.str();
}

std::string SnapshotCrcBody(const SubcubeManager& mgr) {
  size_t rows = 0;
  const uint32_t crc = WarehouseCrc(mgr, &rows);
  return "crc=" + std::to_string(crc) + " rows=" + std::to_string(rows) +
         " epoch=" + std::to_string(mgr.epoch());
}

Result<std::string> Body(const Request& req, const CommandTarget& target) {
  switch (req.cmd) {
    case Command::kPing:
      return std::string("pong");
    case Command::kStats:
      return (req.flags & kStatsJson) != 0
                 ? obs::MetricsRegistry::Global().RenderJson()
                 : obs::MetricsRegistry::Global().RenderText();
    case Command::kShutdown:
      return std::string("shutting down");
    default:
      break;
  }
  const SubcubeManager* mgr =
      target.durable != nullptr ? target.durable->subcubes() : target.mgr;
  if (mgr == nullptr) {
    return Status::InvalidArgument("run 'subcube-init' first");
  }
  switch (req.cmd) {
    case Command::kQuery:
      return QueryBody(req, *mgr);
    case Command::kInsert:
      return InsertBody(req, *mgr, target);
    case Command::kSynchronize:
      return SynchronizeBody(req, *mgr, target);
    case Command::kSpecChange:
      return SpecChangeBody(req, target);
    case Command::kCacheCtl:
      return CacheBody(req, *mgr);
    case Command::kSnapshotCrc:
      return SnapshotCrcBody(*mgr);
    default:
      return Status::Internal(std::string("no body for ") +
                              CommandName(req.cmd));
  }
}

}  // namespace

Result<int64_t> ParseDay(std::string_view text) {
  DWRED_ASSIGN_OR_RETURN(TimeGranule day, ParseGranule(Trim(text)));
  if (day.unit != TimeUnit::kDay) {
    return Status::InvalidArgument("expected a day, e.g. 2000/11/5");
  }
  return day.index;
}

Result<ScriptLine> ParseCommand(std::string_view text,
                                std::string_view staged_actions) {
  ScriptLine line;
  text = Trim(text);
  if (text.empty() || text[0] == '#') return line;
  const size_t sp = text.find_first_of(" \t");
  line.word = std::string(text.substr(0, sp));
  if (sp != std::string_view::npos) {
    line.rest = std::string(Trim(text.substr(sp)));
  }
  const std::string& w = line.word;
  Request req;
  if (w == "ping") {
    req.cmd = Command::kPing;
  } else if (w == "subcube-query") {
    DWRED_ASSIGN_OR_RETURN(req, ParseQuery(line.rest, 0));
  } else if (w == "explain") {
    // The synchronized + parallel pruned path, profile after the result.
    DWRED_ASSIGN_OR_RETURN(
        req, ParseQuery(line.rest, kQuerySynchronized | kQueryParallel |
                                       kQueryExplain));
  } else if (w == "subcube-sync") {
    req.cmd = Command::kSynchronize;
    DWRED_ASSIGN_OR_RETURN(req.now_day, ParseDay(line.rest));
  } else if (w == "load-facts" || w == "subcube-load") {
    req.cmd = Command::kInsert;
    DWRED_ASSIGN_OR_RETURN(req.a, ReadFile(line.rest));
  } else if (w == "apply" && !line.rest.empty()) {
    req.cmd = Command::kSpecChange;
    DWRED_ASSIGN_OR_RETURN(req.now_day, ParseDay(line.rest));
    req.a = std::string(staged_actions);
  } else if (w == "metrics" || w == "metrics-json") {
    req.cmd = Command::kStats;
    if (w == "metrics-json") req.flags = kStatsJson;
  } else if (w == "cache") {
    req.cmd = Command::kCacheCtl;
    req.a = line.rest;
  } else if (w == "snapshot-crc") {
    req.cmd = Command::kSnapshotCrc;
  } else if (w == "shutdown") {
    req.cmd = Command::kShutdown;
  } else {
    return line;
  }
  line.request = std::move(req);
  return line;
}

Response Execute(const Request& req, const CommandTarget& target) {
  Result<std::string> body = Body(req, target);
  Response resp;
  if (body.ok()) {
    resp.body = body.take();
  } else {
    resp.code = body.status().code();
    resp.message = body.status().message();
  }
  return resp;
}

uint32_t WarehouseCrc(const SubcubeManager& mgr, size_t* rows) {
  std::shared_lock<std::shared_mutex> lock(
      mgr.warehouse_cache().snapshot_mutex());
  uint32_t crc = 0;
  if (rows != nullptr) *rows = 0;
  for (size_t i = 0; i < mgr.num_subcubes(); ++i) {
    const Subcube& cube = mgr.subcube(i);
    if (rows != nullptr) *rows += cube.table.num_rows();
    std::ostringstream out;
    out << cube.name << "|";
    for (CategoryId c : cube.granularity) out << c << ",";
    out << "|" << cube.table.num_rows() << "\n";
    const size_t nd = cube.table.num_dims();
    const size_t nm = cube.table.num_measures();
    cube.table.ForEachRow(
        0, cube.table.num_rows(), [&](RowId, const FactTable::RowRef& row) {
          for (size_t d = 0; d < nd; ++d) out << row.coord(d) << ",";
          out << "|";
          for (size_t m = 0; m < nm; ++m) out << row.measure(m) << ",";
          out << "\n";
        });
    crc = Crc32(out.str(), crc);
  }
  return crc;
}

}  // namespace dwred::net
