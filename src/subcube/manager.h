#pragma once

// The implementation strategy of paper Section 7: the warehouse is stored as
// a set of physical *subcubes*, one per granularity group of the (disjoint)
// action set plus one bottom-granularity subcube that receives all new data.
// For every fact, exactly one action is responsible for its current
// granularity (Section 4), so each fact lives in exactly one subcube: the one
// whose granularity the <=_V-maximal satisfied action specifies (facts
// satisfying no action live in the bottom cube — the residual action a'_⊥ of
// eq. (44)).
//
// Where a fact goes is Definition 2's decision, made by the one compiled
// Spec_gran assignment (reduce/semantics.h: CellAssigner) that Reduce uses
// too. This layer keeps only the mapping from a decision to its cube
// (CubeOf, with the ⊤ fallbacks) and the rollup of a moving row to its
// cube's granularity (RollCell), in one planner that Synchronize, the
// stale-query route and the specification change share.
//
// As NOW advances, facts stop satisfying their cube's region and must migrate
// to the responsible child cube (Section 7.2, Figure 7). Synchronize() makes
// the section's two steps explicit: PlanSynchronize decides every row's
// responsible cube and rolled cell (a SyncPlan value, under the shared
// lock), and ApplySynchronize moves rows directly to their responsible cube
// at its granularity and compacts cells that received data from several
// parents ("aggregated one final time"), under the exclusive lock.
//
// Queries (Section 7.3, Figures 8 and 9) are evaluated per subcube and the
// subresults combined with one final availability-approach aggregation —
// sound because default aggregate functions are distributive. In the
// un-synchronized state, each subcube's subquery is evaluated on
// α[G_i]σ[P_i](K_i ∪ parents): the cube's own rows plus the rows of every
// strictly-finer cube, filtered to the facts the cube is *currently*
// responsible for, aggregated to the cube's granularity.

#include <memory>
#include <string>

#include "cache/cache.h"
#include "obs/profile.h"
#include "query/operators.h"
#include "reduce/semantics.h"
#include "spec/action.h"
#include "storage/fact_table.h"

namespace dwred {

/// One physical subcube.
struct Subcube {
  std::string name;                      ///< "K0", "K1", ...
  std::vector<CategoryId> granularity;   ///< fixed granularity of the cube
  std::vector<ActionId> actions;         ///< disjoint actions grouped here
  FactTable table;
  /// Immediate parents: the transitive reduction of the strictly-finer
  /// cubes (an unsynchronized query pulls from all of those, not only from
  /// these).
  std::vector<size_t> parents;

  Subcube(size_t ndims, size_t nmeas) : table(ndims, nmeas) {}
};

/// One subcube's part of a SyncPlan.
struct CubeSyncPlan {
  /// Per row, its responsible cube: the cube's own index when the row stays,
  /// SubcubeManager::kDeletedCell when a deletion action claims it.
  std::vector<size_t> target;
  /// Row-major, one cell per row: a migrating row's cell rolled up to its
  /// target cube's granularity (unset where the row stays or is deleted).
  std::vector<ValueId> rolled;
};

/// Section 7.2's first step as a value: every stored row's responsible cube
/// and each migrating row's rolled cell, planned against one epoch.
/// SubcubeManager::ApplySynchronize executes it, and the durable layer
/// digests the same value into the journal intent (io/recovery.h), so the
/// journaled plan is by construction the applied one.
struct SyncPlan {
  uint64_t epoch = 0;  ///< the warehouse epoch the plan read
  std::vector<CubeSyncPlan> cubes;  ///< one per subcube, in cube order
  /// The plan phase's share of the pass profile (NOW, the compiled flag,
  /// rows and segments examined, the "plan" stage, the plan's wall time as
  /// total_us); ApplySynchronize completes it.
  obs::OpProfile profile;
};

/// The synchronization cadence Section 7.2 calls sufficient for the
/// one-level-out-of-sync assumption: once per "significant time period" —
/// the second-lowest granularity at which NOW appears in the specification
/// (e.g. NOW used at month and quarter -> synchronize once per quarter).
/// With NOW at fewer than two distinct granularities, the single (or, with
/// no NOW at all, day) granularity is returned — synchronizing that often is
/// trivially sufficient.
Result<TimeSpan> RecommendedSyncInterval(const MultidimensionalObject& mo,
                                         const ReductionSpecification& spec);

/// A data warehouse physically organized as subcubes.
class SubcubeManager {
 public:
  /// Builds the subcube layout for a validated specification. The bottom
  /// cube is always subcube 0.
  static Result<SubcubeManager> Create(
      std::string fact_type, std::vector<std::shared_ptr<Dimension>> dims,
      std::vector<MeasureType> measures, ReductionSpecification spec);

  size_t num_subcubes() const { return cubes_.size(); }
  const Subcube& subcube(size_t i) const { return *cubes_[i]; }
  const ReductionSpecification& spec() const { return spec_; }

  /// A facts-free MO over the warehouse's dimensions and measures — the
  /// context against which predicates and granularity lists are parsed.
  const MultidimensionalObject& context() const { return ctx_; }

  /// The warehouse's epoch counter, snapshot lock, writer mutex, and
  /// query/ScanSpec caches (src/cache). Every mutating pass holds the writer
  /// mutex and bumps the epoch under the exclusive lock; queries run under
  /// the shared lock against the epoch they pinned.
  cache::WarehouseCache& warehouse_cache() const { return *cache_; }

  /// Current warehouse epoch (see cache::WarehouseCache).
  uint64_t epoch() const { return cache_->epoch(); }

  /// Bulk-loads `rows` new detail facts into the bottom cube, given
  /// row-major (`cells`: rows × dimensions, `measures`: rows × measures).
  /// Every coordinate must be an interned value at its dimension's bottom
  /// category, or ⊤ (InvalidArgument otherwise, nothing appended). Polls
  /// "cancel.insert.batch" once the batch is validated, then appends it in
  /// one FactTable::AppendRows. A writer: holds the writer mutex, then the
  /// exclusive snapshot lock.
  Status InsertBottomFacts(size_t rows, std::span<const ValueId> cells,
                           std::span<const int64_t> measures);

  /// The same for an MO's facts (its dimensions and measures must match the
  /// warehouse's in number).
  Status InsertBottomFacts(const MultidimensionalObject& batch);

  /// Sentinel returned by ResponsibleCube when a deletion action (the
  /// Section 8 extension) claims the cell: the fact must be physically
  /// removed rather than migrated.
  static constexpr size_t kDeletedCell = static_cast<size_t>(-1);

  /// The index of the subcube responsible for a fact with the given direct
  /// cell at time `now_day` (0 = bottom cube; kDeletedCell when a deletion
  /// action claims the cell), every action interpreted (SpecGranOfCell): the
  /// oracle of the planner's compiled routing.
  Result<size_t> ResponsibleCube(std::span<const ValueId> cell,
                                 int64_t now_day) const;

  /// Section 7.2's first step, read-only: plans every stored row's move at
  /// `now_day` (see SyncPlan). Runs under the shared snapshot lock, so
  /// queries proceed while it plans. Charges the whole pass against the
  /// operation's row budget once, up front, and polls "cancel.sync.plan" per
  /// shard; an abort here leaves nothing behind.
  Result<SyncPlan> PlanSynchronize(int64_t now_day) const;

  /// Section 7.2's second step: executes `plan` — appends every migrating
  /// row's rolled cell to its target cube, erases the moved and deleted
  /// rows, and compacts the receiving cubes — under the writer mutex and the
  /// exclusive snapshot lock. Refuses a plan whose epoch is no longer the
  /// warehouse's (InvalidArgument, nothing mutated). Returns the migrated
  /// rows. A non-null `profile` receives the whole pass's EXPLAIN profile:
  /// the plan's share plus the "apply" and "compact" stages and the
  /// migration counters.
  Result<size_t> ApplySynchronize(const SyncPlan& plan,
                                  obs::OpProfile* profile = nullptr);

  /// Migrates every fact to its responsible subcube at that cube's
  /// granularity and compacts receiving cubes (Section 7.2):
  /// PlanSynchronize then ApplySynchronize, both under the writer mutex so
  /// no writer lands between them. Returns the number of migrated rows;
  /// `profile` as for ApplySynchronize.
  Result<size_t> Synchronize(int64_t now_day,
                             obs::OpProfile* profile = nullptr);

  /// Deserialization hook (io/recovery.h): appends a saved cube's `rows`
  /// rows (row-major, as InsertBottomFacts) to subcube `cube` verbatim,
  /// without responsibility routing or granularity rollup — the rows are
  /// trusted to be at the cube's granularity because they were serialized
  /// from it. Validates the cube index, the row arity, and that every
  /// coordinate names an interned value of the shared dimensions
  /// (InvalidArgument otherwise, nothing appended). A writer, like
  /// InsertBottomFacts: one lock and at most one epoch bump per cube.
  Status RestoreCube(size_t cube, size_t rows, std::span<const ValueId> cells,
                     std::span<const int64_t> measures);

  /// Evaluates σ[pred] then (optionally) α[target] over the subcubes,
  /// combining per-cube subresults with a final availability aggregation.
  /// `pred` may be null (no selection); `target` may be null (no aggregate
  /// formation). With `assume_synchronized` the per-cube rewrite of Figure 9
  /// (pull un-migrated rows from every strictly-finer cube, filter by current
  /// responsibility, pre-aggregate to the cube's granularity) is skipped;
  /// without it the rewrite runs as a read-only virtual synchronize: every
  /// stored row is routed once, through the plan Synchronize would apply,
  /// and each cube folds the rows routed to it straight from the segments.
  /// With `parallel`, subcubes are evaluated on one thread each — Section
  /// 7.3's "separately and in parallel"; sound because per-cube evaluation
  /// only reads shared state and the final combine is a single-threaded
  /// distributive fold.
  ///
  /// The whole evaluation runs under the warehouse's shared snapshot lock:
  /// the epoch and sealed-segment manifest observed at entry cannot change
  /// until the result is built, so queries run concurrently with writers
  /// without byte-level divergence. When `pinned_epoch` is non-null it
  /// receives the epoch this query evaluated against. Results and compiled
  /// ScanSpecs are served from the epoch-keyed caches when enabled
  /// (docs/CACHING.md); a cache hit is byte-identical to re-evaluation.
  /// A non-null `profile` receives the query's EXPLAIN profile — pinned
  /// epoch, cache outcome + fingerprint, per-subcube fan-out, segments
  /// scanned vs. pruned, rows skipped, per-stage wall times (see
  /// obs/profile.h). On the pruned path the profile's segment/row totals
  /// equal the dwred_scan_segments_* / dwred_scan_rows_skipped counter
  /// deltas exactly.
  ///
  /// The answer is the cache's immutable entry: the result and its rendered
  /// body (cache::RenderResult), rendered once, on the miss, before the
  /// shared lock is released — rendering reads the shared dimensions' value
  /// names, which a concurrent insert's CSV decode extends under the
  /// exclusive lock. A hit hands back the same entry: no copy, no render.
  Result<std::shared_ptr<const cache::QueryAnswer>> Answer(
      const PredExpr* pred, const std::vector<CategoryId>* target,
      int64_t now_day, bool assume_synchronized, bool parallel = false,
      uint64_t* pinned_epoch = nullptr,
      obs::OpProfile* profile = nullptr) const;

  /// Answer's result, copied out for embedded callers that own or modify it.
  Result<MultidimensionalObject> Query(
      const PredExpr* pred, const std::vector<CategoryId>* target,
      int64_t now_day, bool assume_synchronized, bool parallel = false,
      uint64_t* pinned_epoch = nullptr,
      obs::OpProfile* profile = nullptr) const;

  /// Per-cube subresults of a query (exposed to reproduce Figure 8's S0..S4).
  /// Takes the shared snapshot lock like Answer (but only Answer consults the
  /// result cache — subresult vectors are not cached).
  Result<std::vector<MultidimensionalObject>> QuerySubresults(
      const PredExpr* pred, const std::vector<CategoryId>* target,
      int64_t now_day, bool assume_synchronized, bool parallel = false) const;

  /// Replaces the specification (Section 7.2's infrequent synchronization):
  /// rebuilds the cube layout, plans every old cube's rows against it
  /// through the synchronize planner, and moves each row to its responsible
  /// cube under the new specification. Checks the operation context once,
  /// up front; a plan that fails restores the old specification and layout.
  /// A writer, like InsertBottomFacts.
  Status ChangeSpecification(ReductionSpecification new_spec, int64_t now_day);

  /// Total fact-storage bytes across the subcubes.
  size_t TotalBytes() const;

  /// One line per subcube: name, granularity, actions, rows. Takes the
  /// shared snapshot lock.
  std::string DescribeLayout() const;

 private:
  SubcubeManager(std::string fact_type,
                 std::vector<std::shared_ptr<Dimension>> dims,
                 std::vector<MeasureType> measures,
                 ReductionSpecification spec);

  Status BuildLayout();

  /// Rolls a cell up to a cube's granularity. Fails if some coordinate
  /// cannot be rolled up (would indicate a NonCrossing violation).
  Result<std::vector<ValueId>> RollCell(std::span<const ValueId> cell,
                                        const std::vector<CategoryId>& gran) const;

  /// The cube a fact with decision `g` lives in (Section 7: the cube of its
  /// Spec_gran), or kDeletedCell. A ⊤-mapped coordinate can lift Spec_gran
  /// above every cube; such a fact lives in the responsible action's cube,
  /// else in the minimal cube above its Spec_gran, else in the bottom cube.
  size_t CubeOf(const SpecGran& g) const;

  /// The rollup tables for one target granularity, compiled once and cached
  /// per (granularity, epoch) in the program LRU. Null when a dimension is
  /// too large to enumerate (per-fact walks instead).
  std::shared_ptr<const vm::RollupProgram> CompileRollup(
      const std::vector<CategoryId>& target) const;

  /// Which rows a plan rolls up to its target cube's granularity: none (the
  /// stale-query route), the rows leaving their cube (Synchronize), or every
  /// surviving row (a specification change, which moves every row into a
  /// new layout).
  enum class Roll { kNone, kMoving, kAll };

  /// The one routing planner: decides every row of `sources`' tables through
  /// the compiled Spec_gran assignment (CellAssigner) and maps it to a cube
  /// of the current layout (CubeOf); the caller must hold the snapshot lock.
  /// Synchronize, the stale-query route and the durable synchronize digest
  /// plan the current cubes; a specification change plans the old cubes
  /// against the new layout. A non-null `poll_site` is polled once per plan
  /// shard ("cancel.sync.plan" for PlanSynchronize, "cancel.query.route"
  /// when a stale query routes). A non-null `profile` receives the compiled
  /// flag (any action compiled) and the rows and segments examined.
  Result<std::vector<CubeSyncPlan>> PlanLocked(
      const std::vector<std::unique_ptr<Subcube>>& sources, int64_t now_day,
      Roll roll, obs::OpProfile* profile, const char* poll_site) const;

  /// ApplySynchronize body; the caller must hold the writer mutex.
  Result<size_t> ApplySynchronizeLocked(const SyncPlan& plan,
                                        obs::OpProfile* profile);

  /// A stale query's routing: PlanLocked's per-row targets of
  /// every cube, and each cube's own rollup tables (null when a dimension is
  /// too large to enumerate).
  struct StaleRoute {
    std::vector<CubeSyncPlan> plans;
    std::vector<std::shared_ptr<const vm::RollupProgram>> cube_rollups;
  };

  /// Cube i's subquery in the unsynchronized state — Figure 9's
  /// α[G_i]σ[P_i](K_i ∪ every strictly-finer cube), then σ[pred] and
  /// α[target] — folded straight from the segments. Each source cube's
  /// chunks that route no row to cube i are skipped undecoded; every routed
  /// row rolls up to G_i (availability), is weighed by `pred` on that cell,
  /// and folds into its target group (AvailabilityFold; α[G_i]'s cells when
  /// `target` is null). Byte-identical to materializing the union,
  /// filtering, and running AggregateFormation, Select and
  /// AggregateFormation, because rows arrive in the same union order.
  /// `rows_read` receives the rows of the decoded chunks.
  MultidimensionalObject FoldStaleCube(
      size_t i, const StaleRoute& stale, const PredExpr* pred,
      int64_t now_day, const std::shared_ptr<const vm::PredProgram>& prog,
      const std::vector<CategoryId>* target,
      const std::shared_ptr<const vm::RollupProgram>& target_rollup,
      int64_t* rows_read) const;

  /// QuerySubresults body; the caller must hold the shared snapshot lock
  /// (the lock is not recursive, so Query cannot call the public wrapper).
  /// `rollup` optionally shares the query's target-granularity rollup tables
  /// with every per-cube aggregation (compiled here when null and needed).
  Result<std::vector<MultidimensionalObject>> QuerySubresultsLocked(
      const PredExpr* pred, const std::vector<CategoryId>* target,
      int64_t now_day, bool assume_synchronized, bool parallel,
      obs::OpProfile* profile = nullptr,
      std::shared_ptr<const vm::RollupProgram> rollup = nullptr) const;

  std::string fact_type_;
  std::vector<std::shared_ptr<Dimension>> dims_;
  std::vector<MeasureType> measures_;
  ReductionSpecification spec_;
  MultidimensionalObject ctx_;  ///< facts-free evaluation context
  std::vector<std::unique_ptr<Subcube>> cubes_;
  /// Heap-held so the manager stays movable through Result<SubcubeManager>
  /// (the locks and epoch atomic must never relocate under concurrent use).
  std::unique_ptr<cache::WarehouseCache> cache_;
};

}  // namespace dwred
