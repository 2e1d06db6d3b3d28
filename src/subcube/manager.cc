#include "subcube/manager.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <shared_mutex>

#include "common/check.h"
#include "exec/thread_pool.h"
#include "obs/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/compare.h"
#include "runtime/cancel.h"
#include "runtime/governor.h"
#include "scan/scan.h"
#include "spec/predicate_analysis.h"
#include "vm/program.h"

namespace dwred {

Result<TimeSpan> RecommendedSyncInterval(const MultidimensionalObject& mo,
                                         const ReductionSpecification& spec) {
  // Collect the granularities at which NOW-relative bounds snap.
  std::vector<bool> used(static_cast<size_t>(TimeUnit::kTop) + 1, false);
  for (const Action& a : spec.actions()) {
    DWRED_ASSIGN_OR_RETURN(auto conjuncts, CompileToDnf(mo, *a.predicate));
    for (const Conjunct& c : conjuncts) {
      for (const auto* bounds : {&c.time.lowers, &c.time.uppers}) {
        for (const SymTimeBound& b : *bounds) {
          if (b.kind == SymTimeBound::Kind::kNow) {
            used[static_cast<size_t>(b.snap_unit)] = true;
          }
        }
      }
    }
  }
  int seen = 0;
  for (size_t u = 0; u < used.size(); ++u) {
    if (!used[u]) continue;
    ++seen;
    if (seen == 2) return TimeSpan{static_cast<TimeUnit>(u), 1};
  }
  // Fewer than two distinct NOW granularities: the single one (or daily).
  for (size_t u = 0; u < used.size(); ++u) {
    if (used[u]) return TimeSpan{static_cast<TimeUnit>(u), 1};
  }
  return TimeSpan{TimeUnit::kDay, 1};
}

SubcubeManager::SubcubeManager(std::string fact_type,
                               std::vector<std::shared_ptr<Dimension>> dims,
                               std::vector<MeasureType> measures,
                               ReductionSpecification spec)
    : fact_type_(std::move(fact_type)),
      dims_(std::move(dims)),
      measures_(std::move(measures)),
      spec_(std::move(spec)),
      ctx_(fact_type_, dims_, measures_),
      cache_(std::make_unique<cache::WarehouseCache>()) {}

namespace {

/// Bumps the warehouse epoch on scope exit once armed — mutating passes arm
/// it at the first point a table byte may have changed, so even an error
/// return after partial mutation invalidates the caches.
class EpochBumpGuard {
 public:
  explicit EpochBumpGuard(cache::WarehouseCache& c) : cache_(c) {}
  ~EpochBumpGuard() {
    if (armed_) cache_.BumpEpoch();
  }
  void Arm() { armed_ = true; }

 private:
  cache::WarehouseCache& cache_;
  bool armed_ = false;
};

}  // namespace

Result<SubcubeManager> SubcubeManager::Create(
    std::string fact_type, std::vector<std::shared_ptr<Dimension>> dims,
    std::vector<MeasureType> measures, ReductionSpecification spec) {
  SubcubeManager m(std::move(fact_type), std::move(dims), std::move(measures),
                   std::move(spec));
  DWRED_RETURN_IF_ERROR(m.BuildLayout());
  return m;
}

Status SubcubeManager::BuildLayout() {
  cubes_.clear();
  const size_t ndims = dims_.size();
  const size_t nmeas = measures_.size();

  // Bottom cube (the residual action a'_⊥ of eq. (44)).
  auto bottom = std::make_unique<Subcube>(ndims, nmeas);
  bottom->name = "K0";
  for (const auto& d : dims_) {
    bottom->granularity.push_back(d->type().bottom());
  }
  cubes_.push_back(std::move(bottom));

  // One cube per distinct action granularity (Section 7.1 groups disjoint
  // actions of identical granularity into one subcube). Deletion actions own
  // no storage: their facts cease to exist.
  for (ActionId a = 0; a < spec_.size(); ++a) {
    if (spec_.action(a).deletes) continue;
    const std::vector<CategoryId>& g = spec_.action(a).granularity;
    size_t found = cubes_.size();
    for (size_t i = 0; i < cubes_.size(); ++i) {
      if (cubes_[i]->granularity == g) {
        found = i;
        break;
      }
    }
    if (found == cubes_.size()) {
      auto cube = std::make_unique<Subcube>(ndims, nmeas);
      cube->name = "K" + std::to_string(cubes_.size());
      cube->granularity = g;
      cubes_.push_back(std::move(cube));
    }
    cubes_[found]->actions.push_back(a);
  }

  // Immediate parents: transitive reduction of the strict granularity order.
  for (size_t i = 0; i < cubes_.size(); ++i) {
    cubes_[i]->parents.clear();
    for (size_t j = 0; j < cubes_.size(); ++j) {
      if (i == j) continue;
      const auto& gi = cubes_[i]->granularity;
      const auto& gj = cubes_[j]->granularity;
      if (!(GranularityLeq(ctx_, gj, gi) && gj != gi)) continue;
      bool direct = true;
      for (size_t k = 0; k < cubes_.size() && direct; ++k) {
        if (k == i || k == j) continue;
        const auto& gk = cubes_[k]->granularity;
        if (GranularityLeq(ctx_, gj, gk) && gj != gk &&
            GranularityLeq(ctx_, gk, gi) && gk != gi) {
          direct = false;
        }
      }
      if (direct) cubes_[i]->parents.push_back(j);
    }
  }
  return Status::OK();
}

namespace {

/// Checks a row-major batch's shape against the warehouse and that every
/// coordinate names an interned value; `what` prefixes the messages.
Status CheckRows(const char* what, size_t rows,
                 std::span<const ValueId> cells,
                 std::span<const int64_t> measures,
                 const std::vector<std::shared_ptr<Dimension>>& dims,
                 size_t nmeas) {
  if (cells.size() != rows * dims.size() ||
      measures.size() != rows * nmeas) {
    return Status::InvalidArgument(
        std::string(what) + ": row arity mismatch (" +
        std::to_string(cells.size()) + " coords, " +
        std::to_string(measures.size()) + " measures for " +
        std::to_string(rows) + " rows)");
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t d = 0; d < dims.size(); ++d) {
      const ValueId v = cells[r * dims.size() + d];
      if (v >= dims[d]->num_values()) {
        return Status::InvalidArgument(
            std::string(what) + ": coordinate " + std::to_string(v) +
            " names no value of dimension " + dims[d]->name());
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status SubcubeManager::InsertBottomFacts(const MultidimensionalObject& batch) {
  if (batch.num_dimensions() != dims_.size() ||
      batch.num_measures() != measures_.size()) {
    return Status::InvalidArgument("batch schema mismatch");
  }
  return InsertBottomFacts(batch.num_facts(), batch.coord_rows(),
                           batch.measure_rows());
}

Status SubcubeManager::InsertBottomFacts(size_t rows,
                                         std::span<const ValueId> cells,
                                         std::span<const int64_t> measures) {
  std::lock_guard<std::mutex> writer(cache_->writer_mutex());
  std::unique_lock<std::shared_mutex> snapshot(cache_->snapshot_mutex());
  EpochBumpGuard bump(*cache_);
  DWRED_RETURN_IF_ERROR(
      CheckRows("insert", rows, cells, measures, dims_, measures_.size()));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t d = 0; d < dims_.size(); ++d) {
      const Dimension& dim = *dims_[d];
      const ValueId v = cells[r * dims_.size() + d];
      if (dim.value_category(v) != dim.type().bottom() &&
          v != dim.top_value()) {
        return Status::InvalidArgument(
            "new data must enter at the bottom granularity (dimension " +
            dim.name() + ")");
      }
    }
  }
  // Cooperative abort point: the batch is validated but not yet appended, so
  // cancelling here leaves the warehouse byte-identical to never inserting.
  DWRED_RETURN_IF_ERROR(
      runtime::CountAbort(runtime::PollCancel("cancel.insert.batch")));
  if (rows > 0) bump.Arm();
  cubes_[0]->table.AppendRows(rows, cells, measures);
  return Status::OK();
}

Result<size_t> SubcubeManager::ResponsibleCube(std::span<const ValueId> cell,
                                               int64_t now_day) const {
  const SpecGran g = SpecGranOfCell(ctx_, spec_, cell, now_day);
  if (g.crossing) return NonCrossingError("a cell");
  return CubeOf(g);
}

size_t SubcubeManager::CubeOf(const SpecGran& g) const {
  if (g.deleted) return kDeletedCell;
  for (size_t i = 0; i < cubes_.size(); ++i) {
    if (cubes_[i]->granularity == g.gran) return i;
  }
  // A ⊤-mapped coordinate lifts Spec_gran above the responsible action's
  // granularity; such rows live in the responsible action's cube with their
  // coarse coordinate as-is (queries use availability semantics anyway).
  if (g.responsible != kNoAction) {
    const std::vector<CategoryId>& action_gran =
        spec_.action(g.responsible).granularity;
    for (size_t i = 0; i < cubes_.size(); ++i) {
      if (cubes_[i]->granularity == action_gran) return i;
    }
  }
  // Spec_gran matches no cube (e.g. after a specification change): place the
  // row in the minimal cube at or above it.
  size_t chosen = cubes_.size();
  for (size_t i = 0; i < cubes_.size(); ++i) {
    if (!GranularityLeq(ctx_, g.gran, cubes_[i]->granularity)) continue;
    if (chosen == cubes_.size() ||
        GranularityLeq(ctx_, cubes_[i]->granularity,
                       cubes_[chosen]->granularity)) {
      chosen = i;
    }
  }
  // Last resort (e.g. a fresh fact ⊤-mapped in some dimension, claimed by no
  // action): it stays in the bottom cube with its coordinates as-is.
  return chosen == cubes_.size() ? 0 : chosen;
}

Result<std::vector<ValueId>> SubcubeManager::RollCell(
    std::span<const ValueId> cell,
    const std::vector<CategoryId>& gran) const {
  std::vector<ValueId> out(cell.size());
  for (size_t d = 0; d < cell.size(); ++d) {
    out[d] = dims_[d]->Rollup(cell[d], gran[d]);
    if (out[d] == kInvalidValue) {
      // A coordinate already above the cube's granularity (⊤-mapped values,
      // or rows kept after a specification change) stays as-is; queries
      // handle it with the availability semantics.
      CategoryId c = dims_[d]->value_category(cell[d]);
      if (dims_[d]->type().Leq(gran[d], c)) {
        out[d] = cell[d];
        continue;
      }
      return Status::Internal("cell value cannot roll up to cube granularity");
    }
  }
  return out;
}

Status SubcubeManager::RestoreCube(size_t cube, size_t rows,
                                   std::span<const ValueId> cells,
                                   std::span<const int64_t> measures) {
  if (cube >= cubes_.size()) {
    return Status::InvalidArgument("RestoreCube: subcube index " +
                                   std::to_string(cube) + " out of range (" +
                                   std::to_string(cubes_.size()) + " cubes)");
  }
  DWRED_RETURN_IF_ERROR(
      CheckRows("RestoreCube", rows, cells, measures, dims_, measures_.size()));
  std::lock_guard<std::mutex> writer(cache_->writer_mutex());
  std::unique_lock<std::shared_mutex> snapshot(cache_->snapshot_mutex());
  EpochBumpGuard bump(*cache_);
  if (rows > 0) bump.Arm();
  cubes_[cube]->table.AppendRows(rows, cells, measures);
  return Status::OK();
}

Result<SyncPlan> SubcubeManager::PlanSynchronize(int64_t now_day) const {
  obs::TraceSpan span("subcube.sync.plan");
  SyncPlan plan;
  obs::OpProfile& prof = plan.profile;
  prof.op = "subcube.sync";
  prof.trace_id = span.context().trace_id;
  prof.now_day = now_day;
  prof.parallel = true;  // plan fans out over the pool; apply is serial

  std::shared_lock<std::shared_mutex> snapshot(cache_->snapshot_mutex());
  plan.epoch = prof.epoch = cache_->epoch();
  prof.fan_out = static_cast<int64_t>(cubes_.size());
  // Synchronization examines every row, so the whole pass is charged against
  // the operation's row budget once, up front: an over-budget pass never
  // plans.
  int64_t pass_rows = 0;
  for (const auto& c : cubes_) {
    pass_rows += static_cast<int64_t>(c->table.num_rows());
  }
  Status planned = runtime::CurrentOpContext().ChargeRows(pass_rows);
  if (planned.ok()) {
    auto cubes =
        PlanLocked(cubes_, now_day, Roll::kMoving, &prof, "cancel.sync.plan");
    if (cubes.ok()) {
      plan.cubes = cubes.take();
    } else {
      planned = cubes.status();
    }
  }
  prof.total_us = static_cast<int64_t>(span.ElapsedSeconds() * 1e6);
  if (!planned.ok()) {
    // Abort finalization: stamp the outcome (so the flight recorder shows
    // *why* the pass produced nothing) and count the aborted operation once.
    // Planning is read-only, so the tables, epoch and caches are untouched.
    planned = runtime::CountAbort(std::move(planned));
    if (runtime::IsAbort(planned.code())) {
      prof.outcome = runtime::OutcomeLabel(planned.code());
      obs::FlightRecorder::Global().Record(prof);
    }
    return planned;
  }
  prof.AddStage("plan", prof.total_us);
  return plan;
}

Result<std::vector<CubeSyncPlan>> SubcubeManager::PlanLocked(
    const std::vector<std::unique_ptr<Subcube>>& sources, int64_t now_day,
    Roll roll, obs::OpProfile* profile, const char* poll_site) const {
  // Definition 2's assignment with the action programs compiled once for the
  // whole pass — through the program LRU, per (predicate, NOW day, epoch) —
  // and shared read-only by every plan shard; null slots interpret.
  const CellAssigner assigner(
      ctx_, spec_, now_day,
      CompileActionPrograms(
          ctx_, spec_, now_day,
          [&](const PredExpr& pred, const CompileStep& compile) {
            const std::string key = cache::ProgramFingerprint(
                ctx_, pred, now_day, cache_->epoch(), "spec");
            if (auto hit = cache_->LookupProgram(key)) return hit;
            std::shared_ptr<const vm::PredProgram> prog = compile();
            if (prog == nullptr) return prog;
            return cache_->InsertProgram(key, std::move(prog));
          }));
  if (profile != nullptr) {
    profile->compiled = std::any_of(
        assigner.programs().begin(), assigner.programs().end(),
        [](const auto& prog) { return prog != nullptr; });
  }
  const size_t ndims = dims_.size();
  constexpr size_t kLanes = FactTable::kBatchRows;

  // --- Parallel plan (docs/PARALLELISM.md) --------------------------------
  // A row's destination depends only on its cell, the specification and
  // now_day — never on other rows or on table contents — so the per-row
  // decisions fan out over each source cube's storage segments (the natural
  // shard unit, docs/STORAGE.md), read-only. Every row is routed, so the
  // scan plan is unpruned. The assignment decides each segment chunk at a
  // time and memoizes its decisions per shard; each distinct decision is
  // mapped to its cube once. The result is identical at every thread count.
  std::vector<CubeSyncPlan> plans(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    CubeSyncPlan& plan = plans[i];
    const Subcube& cube = *sources[i];
    const size_t rows = cube.table.num_rows();
    plan.target.resize(rows);
    if (roll != Roll::kNone) plan.rolled.resize(rows * ndims);
    scan::ScanPlan splan =
        scan::PlanTableScan(cube.table, scan::ScanSpec::All());
    // First error per shard (the shard stops there).
    std::vector<Status> shard_error(splan.units.size(), Status::OK());
    scan::Execute(splan, [&](size_t si, size_t begin, size_t end) {
      // Cooperative abort point, polled per shard while the pass is still
      // read-only: cancelling any plan shard abandons the whole pass with
      // nothing mutated.
      Status& err = shard_error[si];
      if (poll_site != nullptr) err = runtime::PollCancel(poll_site);
      if (!err.ok()) return;
      CellAssigner::Shard shard;
      std::vector<size_t> cube_of;  // decision id -> its cube
      std::vector<uint32_t> ids(kLanes);
      std::vector<ValueId> row_cell(ndims);
      cube.table.ForEachDimBatch(
          begin, end, [&](const FactTable::BatchView& b) {
            if (!err.ok()) return;
            const size_t n = b.rows();
            assigner.Decide(b.dim_cols(), n, &shard, ids.data());
            for (size_t k = 0; k < n; ++k) {
              if (ids[k] == cube_of.size()) {  // a decision first seen here
                const SpecGran& g = shard.decisions[ids[k]];
                if (g.crossing) {
                  err = NonCrossingError("a row of " + cube.name);
                  return;
                }
                cube_of.push_back(CubeOf(g));
              }
              const size_t target = cube_of[ids[k]];
              const RowId r = b.first_row() + k;
              plan.target[r] = target;
              if (roll == Roll::kNone || target == kDeletedCell ||
                  (roll == Roll::kMoving && target == i)) {
                continue;
              }
              for (size_t d = 0; d < ndims; ++d) row_cell[d] = b.dim_col(d)[k];
              auto rolled_r = RollCell(row_cell, cubes_[target]->granularity);
              if (!rolled_r.ok()) {
                err = rolled_r.status();
                return;
              }
              std::copy(rolled_r.value().begin(), rolled_r.value().end(),
                        plan.rolled.begin() + r * ndims);
            }
          });
    });
    // Lowest shard's error is the globally first failing row's error.
    for (const Status& s : shard_error) {
      if (!s.ok()) return s;
    }
    if (profile != nullptr) {
      profile->rows_scanned += static_cast<int64_t>(rows);
      profile->segments_total += static_cast<int64_t>(splan.segments_total);
      profile->segments_scanned += static_cast<int64_t>(splan.segments_total);
    }
  }
  return plans;
}

Result<size_t> SubcubeManager::Synchronize(int64_t now_day,
                                           obs::OpProfile* profile) {
  obs::TraceSpan span("subcube.sync");
  std::lock_guard<std::mutex> writer(cache_->writer_mutex());
  Result<SyncPlan> plan = PlanSynchronize(now_day);
  if (!plan.ok()) {
    if (profile != nullptr) {
      profile->op = "subcube.sync";
      profile->outcome = runtime::OutcomeLabel(plan.status().code());
    }
    return plan.status();
  }
  return ApplySynchronizeLocked(plan.value(), profile);
}

Result<size_t> SubcubeManager::ApplySynchronize(const SyncPlan& plan,
                                                obs::OpProfile* profile) {
  std::lock_guard<std::mutex> writer(cache_->writer_mutex());
  return ApplySynchronizeLocked(plan, profile);
}

Result<size_t> SubcubeManager::ApplySynchronizeLocked(
    const SyncPlan& plan, obs::OpProfile* profile) {
  obs::TraceSpan span("subcube.sync.apply");
  obs::StageTimer stage_timer;
  // Writers are exclusive: no query may observe a half-migrated manifest.
  std::unique_lock<std::shared_mutex> snapshot_lock(cache_->snapshot_mutex());
  // The plan holds row indices into the tables it read; any writer since
  // then (every one bumps the epoch) invalidates them.
  if (plan.epoch != cache_->epoch() || plan.cubes.size() != cubes_.size()) {
    return Status::InvalidArgument(
        "stale synchronize plan: planned at epoch " +
        std::to_string(plan.epoch) + ", the warehouse is at epoch " +
        std::to_string(cache_->epoch()));
  }
  EpochBumpGuard bump(*cache_);
  // The pass profile continues the plan's, into the caller's slot when given
  // one, else into a local so the flight recorder still sees every pass.
  obs::OpProfile local_profile;
  obs::OpProfile* prof = profile != nullptr ? profile : &local_profile;
  *prof = plan.profile;
  std::vector<AggFn> aggs;
  for (const auto& m : measures_) aggs.push_back(m.agg);
  size_t migrated = 0;
  size_t deleted = 0;
  size_t compacted = 0;
  const size_t ndims = dims_.size();
  const size_t nmeas = measures_.size();
  std::vector<ValueId> cell(ndims);
  std::vector<int64_t> meas(nmeas);

  // Serial apply (docs/PARALLELISM.md): the mutations (appends, erases,
  // counters) replay in (cube, row) order, so the resulting tables — and the
  // journal intent digested from the same plan — are byte-identical at every
  // thread count. The bump is armed at the first row that moves, so a pass
  // that moves nothing keeps the epoch and every cache; from that row on
  // the caches must be dropped even if a later step fails.
  std::vector<bool> received(cubes_.size(), false);
  for (size_t i = 0; i < cubes_.size(); ++i) {
    Subcube& cube = *cubes_[i];
    const CubeSyncPlan& cube_plan = plan.cubes[i];
    std::vector<bool> erase(cube.table.num_rows(), false);
    // Cursor scan over the pre-pass rows (appends from earlier cubes sit in
    // the tail, past the planned rows); only *other* cubes' tables are
    // mutated.
    cube.table.ForEachRow(
        0, cube_plan.target.size(), [&](RowId r, const FactTable::RowRef& row) {
          size_t target = cube_plan.target[r];
          if (target == i) return;
          bump.Arm();
          if (target == kDeletedCell) {
            // A deletion action claims the row: physical deletion, no
            // migration.
            erase[r] = true;
            ++migrated;
            ++deleted;
            return;
          }
          std::copy(cube_plan.rolled.begin() + r * ndims,
                    cube_plan.rolled.begin() + (r + 1) * ndims, cell.begin());
          for (size_t m = 0; m < nmeas; ++m) meas[m] = row.measure(m);
          cubes_[target]->table.Append(cell, meas);
          erase[r] = true;
          received[target] = true;
          ++migrated;
        });
    erase.resize(cube.table.num_rows(), false);
    DWRED_RETURN_IF_ERROR(cube.table.EraseRows(erase));
  }
  prof->AddStage("apply", stage_timer.LapMicros());
  // Cells that received data from several places are aggregated one final
  // time (Section 7.2).
  for (size_t i = 0; i < cubes_.size(); ++i) {
    if (!received[i]) continue;
    DWRED_ASSIGN_OR_RETURN(size_t folded, cubes_[i]->table.CompactCells(aggs));
    compacted += folded;
  }
  prof->AddStage("compact", stage_timer.LapMicros());

  auto& registry = obs::MetricsRegistry::Global();
  static obs::Histogram& sync_latency = registry.GetHistogram(
      "dwred_subcube_sync_seconds", obs::DefaultLatencyBuckets(),
      "wall time of one subcube synchronization pass (Section 7.2)");
  static obs::Counter& c_syncs = registry.GetCounter(
      "dwred_subcube_syncs", "completed synchronization passes");
  static obs::Counter& c_migrated = registry.GetCounter(
      "dwred_subcube_sync_rows_migrated",
      "rows moved to their responsible subcube (deletions included)");
  static obs::Counter& c_deleted = registry.GetCounter(
      "dwred_subcube_sync_rows_deleted",
      "rows physically removed by deletion actions during synchronization");
  static obs::Counter& c_compacted = registry.GetCounter(
      "dwred_subcube_sync_cells_compacted",
      "rows folded away by the final per-cube cell compaction");
  c_syncs.Increment();
  c_migrated.Increment(migrated);
  c_deleted.Increment(deleted);
  c_compacted.Increment(compacted);
  span.AddField("rows_migrated", static_cast<int64_t>(migrated));
  span.AddField("rows_deleted", static_cast<int64_t>(deleted));
  span.AddField("cells_compacted", static_cast<int64_t>(compacted));
  prof->AddCounter("rows_migrated", static_cast<int64_t>(migrated));
  prof->AddCounter("rows_deleted", static_cast<int64_t>(deleted));
  prof->AddCounter("cells_compacted", static_cast<int64_t>(compacted));
  // The pass's engine time: its plan plus this apply (a durable pass
  // journals its intent between the two; that wait is the journal's).
  prof->trace_id = span.context().trace_id;
  prof->total_us = plan.profile.total_us +
                   static_cast<int64_t>(span.ElapsedSeconds() * 1e6);
  sync_latency.Record(prof->total_us * 1e-6);
  static obs::Histogram& op_hist = obs::OpLatencyHistogram("subcube.sync");
  op_hist.Record(prof->total_us * 1e-6);
  obs::FlightRecorder::Global().Record(*prof);
  DWRED_LOG(Debug) << "subcube sync at day " << prof->now_day << ": " << migrated
                   << " rows migrated, " << deleted << " deleted, "
                   << compacted << " compacted";
  return migrated;
}

Result<std::vector<MultidimensionalObject>> SubcubeManager::QuerySubresults(
    const PredExpr* pred, const std::vector<CategoryId>* target,
    int64_t now_day, bool assume_synchronized, bool parallel) const {
  std::shared_lock<std::shared_mutex> snapshot(cache_->snapshot_mutex());
  return QuerySubresultsLocked(pred, target, now_day, assume_synchronized,
                               parallel);
}

std::shared_ptr<const vm::RollupProgram> SubcubeManager::CompileRollup(
    const std::vector<CategoryId>& target) const {
  // No fallback counted here: the evaluation sites (AggregateFormation)
  // count one when they walk per fact instead.
  const std::string rkey = cache::RollupFingerprint(target, cache_->epoch());
  std::shared_ptr<const vm::RollupProgram> roll = cache_->LookupRollup(rkey);
  if (roll == nullptr) {
    if (auto compiled = vm::RollupProgram::Compile(dims_, target)) {
      roll = cache_->InsertRollup(
          rkey,
          std::make_shared<const vm::RollupProgram>(std::move(*compiled)));
    }
  }
  return roll;
}

MultidimensionalObject SubcubeManager::FoldStaleCube(
    size_t i, const StaleRoute& stale, const PredExpr* pred, int64_t now_day,
    const std::shared_ptr<const vm::PredProgram>& prog,
    const std::vector<CategoryId>* target,
    const std::shared_ptr<const vm::RollupProgram>& target_rollup,
    int64_t* rows_read) const {
  const Subcube& cube = *cubes_[i];
  const size_t ndims = dims_.size();
  constexpr size_t kLanes = FactTable::kBatchRows;
  const std::shared_ptr<const vm::RollupProgram>& cube_rollup =
      stale.cube_rollups[i];
  const AvailabilityRollup to_cube(dims_, cube.granularity, cube_rollup);
  // Without a target, the groups are α[G_i]'s own cells.
  AvailabilityFold fold(fact_type_, dims_, measures_,
                        target != nullptr ? *target : cube.granularity,
                        target != nullptr ? target_rollup : cube_rollup);
  vm::CompiledScan cs(prog, [&](const ValueId* c) {
    return EvalQueryPredOnCoords(*pred, dims_, c, now_day,
                                 SelectionApproach::kConservative);
  });
  vm::PredProgram::BatchScratch scratch;
  std::vector<ValueId> rolled(ndims * kLanes);
  std::vector<ValueId*> rolled_out(ndims);
  std::vector<const ValueId*> rolled_cols(ndims);
  for (size_t d = 0; d < ndims; ++d) {
    rolled_out[d] = rolled.data() + d * kLanes;
    rolled_cols[d] = rolled_out[d];
  }
  std::vector<double> w(kLanes);

  // The union K_i ∪ (every strictly-finer cube), in the order Figure 9's
  // rewrite lists it: the cube's own rows, then each finer cube in index
  // order. The paper pulls from immediate parents under its
  // one-level-out-of-sync assumption (Section 7.2); pulling from every
  // strictly-finer cube generalizes that to arbitrarily stale warehouses
  // (facts can leapfrog a tier whose window slid past between
  // synchronizations).
  std::vector<size_t> sources = {i};
  for (size_t p = 0; p < cubes_.size(); ++p) {
    const auto& gp = cubes_[p]->granularity;
    if (p != i && gp != cube.granularity &&
        GranularityLeq(ctx_, gp, cube.granularity)) {
      sources.push_back(p);
    }
  }
  for (size_t p : sources) {
    const std::vector<size_t>& routed = stale.plans[p].target;
    cubes_[p]->table.ForEachBatch(
        0, routed.size(),
        [&](const FactTable::BatchView& b) {
          const size_t n = b.rows();
          const size_t* route = routed.data() + b.first_row();
          *rows_read += static_cast<int64_t>(n);
          // α[G_i] cell of every lane, then σ[P_i] (the routing) and
          // σ[pred] on that cell: pred reads only the G_i cell, so
          // weighing rows instead of α[G_i]'s groups keeps exactly the
          // groups Select would keep, and the fold to the target meets
          // them in the same first-occurrence order.
          to_cube.RollColumns(b.dim_cols(), n, rolled_out.data());
          if (pred != nullptr) {
            cs.WeighColumns(rolled_cols.data(), ndims, n, w.data(), &scratch);
          } else {
            std::fill_n(w.begin(), n, 1.0);
          }
          for (size_t k = 0; k < n; ++k) {
            if (route[k] != i) w[k] = 0.0;
          }
          fold.Fold(rolled_cols.data(), b.meas_cols(), n, w.data());
        },
        [&](RowId first, size_t n) {
          // Chunks routing no row here are never decoded.
          return std::find(routed.begin() + first, routed.begin() + first + n,
                           i) == routed.begin() + first + n;
        });
  }
  return fold.Take();
}

Result<std::vector<MultidimensionalObject>>
SubcubeManager::QuerySubresultsLocked(
    const PredExpr* pred, const std::vector<CategoryId>* target,
    int64_t now_day, bool assume_synchronized, bool parallel,
    obs::OpProfile* profile,
    std::shared_ptr<const vm::RollupProgram> rollup) const {
  obs::StageTimer stage_timer;
  // On the synchronized path every row already sits in its responsible cube,
  // so the selection predicate can prune whole storage segments via zone
  // maps before materialization: pruned segments hold only rows whose
  // selection weight is 0 under every approach (the spec compiles against
  // the *liberal* may-match oracle, which dominates conservative and
  // weighted), so Select would drop them anyway and the query result is
  // byte-identical. The unsynchronized path routes every row and weighs σ on
  // each row's cell rolled up to its cube's granularity, not on the stored
  // coordinates the zone maps summarize, so it scans everything.
  //
  // Compilation enumerates every value of each constrained dimension through
  // the liberal oracle — linear in dimension extent — so compiled specs are
  // cached per (predicate, NOW day, epoch); a hit skips the enumeration and
  // is byte-identical because nothing else feeds the compilation.
  const bool prune = assume_synchronized && pred != nullptr;
  scan::ScanSpec scan_spec = scan::ScanSpec::All();
  if (prune) {
    const std::string skey =
        cache::ScanSpecFingerprint(ctx_, *pred, now_day, cache_->epoch());
    if (std::shared_ptr<const scan::ScanSpec> hit =
            cache_->LookupScanSpec(skey)) {
      scan_spec = *hit;
    } else {
      scan_spec =
          scan::ScanSpec::Compile(ctx_, *pred, now_day, LiberalScanOracle(now_day));
      cache_->InsertScanSpec(skey, scan_spec);
    }
  }

  // The predicate compiled to bytecode (src/vm, docs/COMPILATION.md) under
  // the conservative approach the per-cube selection uses, cached per
  // (approach, predicate, NOW day, epoch) like the ScanSpec. Null — per-row
  // tree interpretation, byte-identical — when the compiler rejects the
  // predicate.
  std::shared_ptr<const vm::PredProgram> prog;
  if (pred != nullptr) {
    const std::string vkey = cache::ProgramFingerprint(
        ctx_, *pred, now_day, cache_->epoch(),
        SelectionApproachName(SelectionApproach::kConservative));
    prog = cache_->LookupProgram(vkey);
    if (prog == nullptr) {
      if (auto compiled = vm::PredProgram::Compile(
              ctx_, *pred,
              QueryAtomOracle(now_day, SelectionApproach::kConservative))) {
        prog = cache_->InsertProgram(
            vkey, std::make_shared<const vm::PredProgram>(std::move(*compiled)));
      }
    }
  }
  // The target-granularity rollup tables, compiled once per query and shared
  // by every per-cube aggregate formation (Query also reuses them for the
  // final combining aggregation).
  if (target != nullptr && rollup == nullptr) rollup = CompileRollup(*target);

  // The unsynchronized state is evaluated as a read-only *virtual
  // synchronize*: every stored row is routed once, through the planner
  // Synchronize applies, and each cube then folds the rows routed to it
  // (FoldStaleCube). Routing reads every row, so the whole query is charged
  // against the row budget once, up front: an over-budget query never
  // routes.
  StaleRoute stale;
  int64_t routed_rows = 0;
  if (!assume_synchronized) {
    for (const auto& c : cubes_) {
      routed_rows += static_cast<int64_t>(c->table.num_rows());
    }
    DWRED_RETURN_IF_ERROR(runtime::CurrentOpContext().ChargeRows(routed_rows));
    DWRED_ASSIGN_OR_RETURN(
        stale.plans, PlanLocked(cubes_, now_day, Roll::kNone, nullptr,
                                "cancel.query.route"));
    for (const auto& c : cubes_) {
      stale.cube_rollups.push_back(CompileRollup(c->granularity));
    }
  }
  if (profile != nullptr) {
    // The query's own selection program; the routing pass's action programs
    // are the synchronize plan's business.
    profile->compiled = prog != nullptr;
    profile->AddStage("plan", stage_timer.LapMicros());
    profile->fan_out = static_cast<int64_t>(cubes_.size());
    profile->subcubes.assign(cubes_.size(), obs::SubcubeProfile{});
    if (!assume_synchronized) profile->AddCounter("rows_routed", routed_rows);
  }
  // Per-cube stage sums, folded into the profile serially after the fan-out
  // (each cube writes only its own slot — no atomics, deterministic).
  std::vector<int64_t> scan_us(profile != nullptr ? cubes_.size() : 0, 0);
  std::vector<int64_t> agg_us(profile != nullptr ? cubes_.size() : 0, 0);

  // One evaluation per subcube; in parallel mode the evaluations fan out
  // over the process-wide pool (only shared *reads*: dimensions, spec,
  // sibling tables, the compiled scan spec, the routing plan).
  auto eval_one = [&](size_t i) -> Result<MultidimensionalObject> {
    // Cooperative abort point, polled once per subcube before its rows are
    // touched. On the synchronized path the cube's full row count is charged
    // against the query's row budget up front so an over-budget fan-out
    // stops at subcube granularity (a stale query charged every row before
    // routing). Evaluation is read-only, so aborting here leaves no state
    // behind.
    DWRED_RETURN_IF_ERROR(runtime::PollCancel("cancel.query.subcube"));
    if (assume_synchronized) {
      DWRED_RETURN_IF_ERROR(runtime::CurrentOpContext().ChargeRows(
          static_cast<int64_t>(cubes_[i]->table.num_rows())));
    }
    static obs::Histogram& subquery_latency =
        obs::MetricsRegistry::Global().GetHistogram(
            "dwred_subcube_subquery_seconds", obs::DefaultLatencyBuckets(),
            "wall time of one per-subcube subquery evaluation (Section 7.3)");
    const Subcube& cube = *cubes_[i];
    obs::TraceSpan span(obs::TraceBuffer::Global().enabled()
                            ? "subcube.subquery/cube=" + cube.name
                            : std::string("subcube.subquery"),
                        &subquery_latency);
    span.AddField("cube", static_cast<int64_t>(i));
    obs::StageTimer cube_timer;
    obs::SubcubeProfile* sc =
        profile != nullptr ? &profile->subcubes[i] : nullptr;

    // Two evaluation shapes, both fused: they read the storage segments
    // directly with no intermediate MO. Synchronized: σ→α folded straight
    // into output groups when there is a target, σ alone otherwise
    // (operators.h: AggregateFromScan, SelectFromScan), over the segments
    // the predicate's ScanSpec keeps — all of them, each row weighing 1,
    // without a predicate. Stale: the cube's routed rows folded by
    // FoldStaleCube.
    MultidimensionalObject base(fact_type_, dims_, measures_);
    if (assume_synchronized) {
      scan::ScanPlan plan = scan::PlanTableScan(cube.table, scan_spec);
      if (sc != nullptr) {
        sc->segments_total = static_cast<int64_t>(plan.segments_total);
        sc->segments_pruned = static_cast<int64_t>(plan.segments_pruned);
        sc->segments_scanned = static_cast<int64_t>(plan.segments_total -
                                                    plan.segments_pruned);
        sc->rows_skipped = static_cast<int64_t>(plan.rows_skipped);
        for (const exec::Shard& u : plan.units) {
          sc->rows_scanned += static_cast<int64_t>(u.end - u.begin);
        }
      }
      if (target != nullptr) {
        DWRED_ASSIGN_OR_RETURN(
            base, AggregateFromScan(cube.table, plan, pred, now_day,
                                    SelectionApproach::kConservative,
                                    fact_type_, dims_, measures_, *target,
                                    prog, rollup));
      } else {
        DWRED_ASSIGN_OR_RETURN(
            SelectionResult sel,
            SelectFromScan(cube.table, plan, pred, now_day,
                           SelectionApproach::kConservative, fact_type_,
                           dims_, measures_, prog));
        base = std::move(sel.mo);
      }
    } else {
      int64_t rows_read = 0;
      base = FoldStaleCube(i, stale, pred, now_day, prog, target, rollup,
                           &rows_read);
      if (sc != nullptr) sc->rows_scanned = rows_read;
    }
    if (sc != nullptr) {
      sc->name = cube.name;
      scan_us[i] = cube_timer.LapMicros();
    }
    if (sc != nullptr) {
      agg_us[i] = cube_timer.LapMicros();
      sc->result_facts = static_cast<int64_t>(base.num_facts());
      sc->wall_us = static_cast<int64_t>(span.ElapsedSeconds() * 1e6);
    }
    return base;
  };

  // Serial fold of the per-cube slots: attribution totals plus the summed
  // scan/aggregate stage times (per-cube sums; they overlap under parallel
  // evaluation, unlike the caller's wall-clock stage).
  auto fold_profile = [&] {
    if (profile == nullptr) return;
    int64_t scan_sum = 0;
    int64_t agg_sum = 0;
    for (size_t i = 0; i < cubes_.size(); ++i) {
      const obs::SubcubeProfile& sc = profile->subcubes[i];
      profile->segments_total += sc.segments_total;
      profile->segments_scanned += sc.segments_scanned;
      profile->segments_pruned += sc.segments_pruned;
      profile->rows_scanned += sc.rows_scanned;
      profile->rows_skipped += sc.rows_skipped;
      scan_sum += scan_us[i];
      agg_sum += agg_us[i];
    }
    profile->AddStage("scan", scan_sum);
    profile->AddStage("aggregate", agg_sum);
  };

  std::vector<MultidimensionalObject> subresults;
  if (!parallel || cubes_.size() < 2) {
    for (size_t i = 0; i < cubes_.size(); ++i) {
      DWRED_ASSIGN_OR_RETURN(MultidimensionalObject sub, eval_one(i));
      subresults.push_back(std::move(sub));
    }
    fold_profile();
    return subresults;
  }

  // One pool shard per subcube. The nested ParallelFor calls inside
  // SelectFromScan are safe: the pool's caller participation
  // keeps nested operations deadlock-free. Results land in per-cube slots
  // and are collected in cube order — identical at every thread count.
  std::vector<std::optional<Result<MultidimensionalObject>>> slots(
      cubes_.size());
  exec::ThreadPool::Global().ParallelFor(
      cubes_.size(), /*grain=*/1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) slots[i].emplace(eval_one(i));
      });
  for (size_t i = 0; i < cubes_.size(); ++i) {
    if (!slots[i]->ok()) return slots[i]->status();
    subresults.push_back(std::move(slots[i]->value()));
  }
  fold_profile();
  return subresults;
}

Result<std::shared_ptr<const cache::QueryAnswer>> SubcubeManager::Answer(
    const PredExpr* pred, const std::vector<CategoryId>* target,
    int64_t now_day, bool assume_synchronized, bool parallel,
    uint64_t* pinned_epoch, obs::OpProfile* profile) const {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Histogram& query_latency = registry.GetHistogram(
      "dwred_subcube_query_seconds", obs::DefaultLatencyBuckets(),
      "wall time of one whole subcube query (subqueries + final combine)");
  static obs::Counter& c_queries = registry.GetCounter(
      "dwred_subcube_queries", "subcube queries evaluated");
  obs::TraceSpan span("subcube.query", &query_latency);
  c_queries.Increment();

  // Profile into the caller's slot when given one, else into a local so the
  // flight recorder still sees every operation.
  obs::OpProfile local_profile;
  obs::OpProfile* prof = profile != nullptr ? profile : &local_profile;
  prof->op = "subcube.query";
  prof->trace_id = span.context().trace_id;
  prof->now_day = now_day;
  prof->assume_synchronized = assume_synchronized;
  prof->parallel = parallel;
  obs::StageTimer stage_timer;

  // Abort finalization: count the aborted query once, stamp the profile with
  // the outcome and budget so EXPLAIN shows why the query returned nothing.
  // Every abort return below precedes cache_->InsertQuery, so an aborted
  // query never pollutes the cache (docs/ROBUSTNESS.md).
  auto abort_query = [&](Status s) -> Status {
    s = runtime::CountAbort(std::move(s));
    if (runtime::IsAbort(s.code())) {
      prof->outcome = runtime::OutcomeLabel(s.code());
      prof->budget_max_rows = runtime::CurrentOpContext().max_rows();
      prof->budget_rows_charged = runtime::CurrentOpContext().rows_charged();
      prof->total_us = static_cast<int64_t>(span.ElapsedSeconds() * 1e6);
      obs::FlightRecorder::Global().Record(*prof);
    }
    return s;
  };

  // Admission gate (runtime/governor.h): bounded wait for a slot, then shed
  // with kResourceExhausted. Acquired before the snapshot lock so a queued
  // query holds no reader lock while it waits; the ticket spans the whole
  // evaluation.
  runtime::AdmissionTicket ticket;
  {
    Status admitted = runtime::ResourceGovernor::Global().Admit(&ticket);
    if (!admitted.ok()) return abort_query(std::move(admitted));
  }

  // Epoch-pinned snapshot: the shared lock spans lookup, evaluation and
  // insert, so the epoch read here is the epoch of every byte this query
  // observes (writers are exclusive).
  std::shared_lock<std::shared_mutex> snapshot(cache_->snapshot_mutex());
  const uint64_t epoch = cache_->epoch();
  if (pinned_epoch != nullptr) *pinned_epoch = epoch;
  // Snapshot-isolation self-check: the storage content versions must not
  // move while the shared lock is held.
  uint64_t version_sum = 0;
  for (const auto& c : cubes_) version_sum += c->table.content_version();

  // Cooperative abort point: before the cache lookup, so a cancelled query
  // moves no cache counters and the differential test sees identical stats.
  DWRED_RETURN_IF_ERROR(abort_query(runtime::PollCancel("cancel.query.begin")));

  const std::string key = cache::QueryFingerprint(
      ctx_, pred, target, now_day, assume_synchronized, epoch);
  prof->epoch = epoch;
  prof->cache =
      cache::Enabled() ? obs::CacheOutcome::kMiss : obs::CacheOutcome::kDisabled;
  if (std::shared_ptr<const cache::QueryAnswer> hit =
          cache_->LookupQuery(key)) {
    span.AddField("cache_hit", int64_t{1});
    prof->cache = obs::CacheOutcome::kHit;
    prof->budget_max_rows = runtime::CurrentOpContext().max_rows();
    prof->result_facts = static_cast<int64_t>(hit->result.num_facts());
    prof->total_us = static_cast<int64_t>(span.ElapsedSeconds() * 1e6);
    static obs::Histogram& op_hist = obs::OpLatencyHistogram("subcube.query");
    op_hist.Record(prof->total_us * 1e-6);
    // Hash the key only when someone will read the fingerprint: an EXPLAIN
    // caller or a flight-recorder admission. Keeps the steady-state warm
    // path within its overhead budget (query_profile_overhead.json).
    if (profile != nullptr ||
        obs::FlightRecorder::Global().WouldRecord(prof->total_us)) {
      prof->fingerprint = obs::Fnv1a64(key);
    }
    obs::FlightRecorder::Global().Record(*prof);
    return hit;
  }
  // Miss path: the scan dwarfs the hash, so always fingerprint.
  prof->fingerprint = obs::Fnv1a64(key);
  prof->AddStage("lookup", stage_timer.LapMicros());

  std::shared_ptr<const vm::RollupProgram> roll;
  if (target != nullptr) roll = CompileRollup(*target);
  auto subs_r = QuerySubresultsLocked(pred, target, now_day,
                                      assume_synchronized, parallel, prof,
                                      roll);
  if (!subs_r.ok()) return abort_query(subs_r.status());
  std::vector<MultidimensionalObject> subs = subs_r.take();
  // Wall clock of the whole fan-out (the scan/aggregate stages recorded by
  // QuerySubresultsLocked are per-cube sums, which overlap under parallel
  // evaluation).
  prof->AddStage("subqueries_wall", stage_timer.LapMicros());
  // Union of disjoint subresults ...
  MultidimensionalObject unioned(fact_type_, dims_, measures_);
  std::vector<ValueId> cell(dims_.size());
  std::vector<int64_t> meas(measures_.size());
  for (const auto& s : subs) {
    for (FactId f = 0; f < s.num_facts(); ++f) {
      for (size_t d = 0; d < dims_.size(); ++d) {
        cell[d] = s.Coord(f, static_cast<DimensionId>(d));
      }
      for (size_t m = 0; m < measures_.size(); ++m) {
        meas[m] = s.Measure(f, static_cast<MeasureId>(m));
      }
      auto res = unioned.AddFact(cell, meas);
      if (!res.ok()) return res.status();
    }
  }
  // ... then one final combining aggregation (distributivity makes the
  // two-step aggregation exact, Section 7.3).
  if (target) {
    DWRED_ASSIGN_OR_RETURN(
        unioned, AggregateFormation(unioned, *target,
                                    AggregationApproach::kAvailability,
                                    /*track_provenance=*/false, roll));
  }
  uint64_t version_check = 0;
  for (const auto& c : cubes_) version_check += c->table.content_version();
  DWRED_CHECK(version_check == version_sum);
  // Rendered here, still under the shared lock.
  auto answer = std::make_shared<const cache::QueryAnswer>(std::move(unioned));
  cache_->InsertQuery(key, answer);
  // The union, the final combining aggregation and the render materialize
  // the answer.
  prof->AddStage("materialize", stage_timer.LapMicros());
  prof->budget_max_rows = runtime::CurrentOpContext().max_rows();
  prof->budget_rows_charged = runtime::CurrentOpContext().rows_charged();
  prof->result_facts = static_cast<int64_t>(answer->result.num_facts());
  prof->total_us = static_cast<int64_t>(span.ElapsedSeconds() * 1e6);
  static obs::Histogram& op_hist = obs::OpLatencyHistogram("subcube.query");
  op_hist.Record(prof->total_us * 1e-6);
  obs::FlightRecorder::Global().Record(*prof);
  return answer;
}

Result<MultidimensionalObject> SubcubeManager::Query(
    const PredExpr* pred, const std::vector<CategoryId>* target,
    int64_t now_day, bool assume_synchronized, bool parallel,
    uint64_t* pinned_epoch, obs::OpProfile* profile) const {
  DWRED_ASSIGN_OR_RETURN(std::shared_ptr<const cache::QueryAnswer> answer,
                         Answer(pred, target, now_day, assume_synchronized,
                                parallel, pinned_epoch, profile));
  return answer->result;
}

Status SubcubeManager::ChangeSpecification(ReductionSpecification new_spec,
                                           int64_t now_day) {
  // Last cooperative check before the irrevocable layout swap: a
  // specification change cannot unwind cleanly once rows start moving, so an
  // already-cancelled or expired context is rejected up front and never after.
  DWRED_RETURN_IF_ERROR(runtime::CountAbort(runtime::CurrentOpContext().Check()));
  std::lock_guard<std::mutex> writer(cache_->writer_mutex());
  std::unique_lock<std::shared_mutex> snapshot(cache_->snapshot_mutex());
  EpochBumpGuard bump(*cache_);
  bump.Arm();  // the layout swap below always invalidates cached results
  // Swap in the new specification and its empty layout, plan the old cubes'
  // rows against them through the synchronize planner, then move every row
  // to its responsible cube (Section 7.2's infrequent synchronization: "data
  // is moved from all old subcubes, not only from parent cubes"). The plan
  // polls no abort site, and a plan that fails restores the old
  // specification and layout before any row moved.
  std::swap(spec_, new_spec);
  std::vector<std::unique_ptr<Subcube>> old = std::move(cubes_);
  DWRED_RETURN_IF_ERROR(BuildLayout());
  auto plans = PlanLocked(old, now_day, Roll::kAll, nullptr, nullptr);
  if (!plans.ok()) {
    spec_ = std::move(new_spec);
    cubes_ = std::move(old);
    return plans.status();
  }
  const size_t ndims = dims_.size();
  std::vector<int64_t> meas(measures_.size());
  for (size_t i = 0; i < old.size(); ++i) {
    const CubeSyncPlan& plan = plans.value()[i];
    old[i]->table.ForEachRow(
        0, plan.target.size(), [&](RowId r, const FactTable::RowRef& row) {
          const size_t target = plan.target[r];
          if (target == kDeletedCell) return;  // claimed by a deletion action
          for (size_t m = 0; m < meas.size(); ++m) meas[m] = row.measure(m);
          cubes_[target]->table.Append(
              std::span(plan.rolled).subspan(r * ndims, ndims), meas);
        });
  }
  std::vector<AggFn> aggs;
  for (const auto& m : measures_) aggs.push_back(m.agg);
  for (auto& c : cubes_) {
    DWRED_RETURN_IF_ERROR(c->table.CompactCells(aggs).status());
  }
  return Status::OK();
}

size_t SubcubeManager::TotalBytes() const {
  size_t bytes = 0;
  for (const auto& c : cubes_) bytes += c->table.Bytes();
  return bytes;
}

std::string SubcubeManager::DescribeLayout() const {
  std::shared_lock<std::shared_mutex> snapshot(cache_->snapshot_mutex());
  std::string out;
  for (size_t i = 0; i < cubes_.size(); ++i) {
    const Subcube& c = *cubes_[i];
    out += c.name + " (";
    for (size_t d = 0; d < dims_.size(); ++d) {
      if (d) out += ", ";
      out += dims_[d]->type().category_name(c.granularity[d]);
    }
    out += ") actions={";
    for (size_t a = 0; a < c.actions.size(); ++a) {
      if (a) out += ",";
      const std::string& n = spec_.action(c.actions[a]).name;
      out += n.empty() ? std::to_string(c.actions[a]) : n;
    }
    out += "} parents={";
    for (size_t p = 0; p < c.parents.size(); ++p) {
      if (p) out += ",";
      out += cubes_[c.parents[p]]->name;
    }
    out += "} rows=" + std::to_string(c.table.num_rows()) + "\n";
  }
  return out;
}

}  // namespace dwred
