#pragma once

// Crash-safe warehouse sessions (docs/DURABILITY.md): a DurableWarehouse
// binds an in-memory warehouse (plain MO or the Section 7 subcube
// organization) to an on-disk directory holding
//
//   <dir>/snapshot.dwsnap   last good state (atomic rename, CRC32 trailer,
//                           applied-LSN stamp)
//   <dir>/journal.dwal      write-ahead intent journal (io/journal.h)
//
// Every mutating pass runs the two-phase plan/apply protocol: plan (compute
// pre-image row counts and the affected-cell digest — for a synchronize, of
// the very SyncPlan (subcube/manager.h) the apply then executes), append + fsync
// the intent record, apply the mutation in memory, append + fsync the commit
// record. A snapshot checkpoint (Checkpoint) folds the journal into a fresh
// snapshot via tmp-file + fsync + atomic rename, then truncates the journal.
//
// RecoverWarehouse replays the journal against the last good snapshot:
// committed operations newer than the snapshot's applied LSN are re-applied
// (deterministically — the intent's pre-image counts and affected-cell
// digest are re-derived and verified), intents without a commit are rolled
// back by ignoring them. Replay is idempotent: operations at or below the
// snapshot's LSN are skipped, so a crash between the snapshot rename and the
// journal truncation never double-applies.

#include <memory>
#include <optional>
#include <string>

#include "io/insert_redo.h"
#include "io/journal.h"
#include "mdm/mo.h"
#include "reduce/semantics.h"
#include "spec/action.h"
#include "subcube/manager.h"

namespace dwred {

/// What recovery found and did.
struct RecoveryStats {
  uint64_t snapshot_lsn = 0;       ///< applied LSN stamped in the snapshot
  uint64_t recovered_lsn = 0;      ///< LSN after replaying the journal
  size_t ops_replayed = 0;         ///< committed ops re-applied
  size_t intents_rolled_back = 0;  ///< uncommitted intents discarded
  size_t journal_torn_bytes = 0;   ///< bytes dropped from the torn tail
};

/// A warehouse whose mutating passes are journaled and snapshot-checkpointed.
class DurableWarehouse {
 public:
  DurableWarehouse(const DurableWarehouse&) = delete;
  DurableWarehouse& operator=(const DurableWarehouse&) = delete;

  /// Initializes `dir` (created if needed) from an in-memory warehouse:
  /// writes the initial snapshot and opens an empty journal. Fails if the
  /// directory already holds a snapshot.
  static Result<std::unique_ptr<DurableWarehouse>> Create(
      const std::string& dir, std::unique_ptr<MultidimensionalObject> mo,
      ReductionSpecification spec);

  /// Opens `dir`, running recovery: loads the last good snapshot, replays
  /// committed journal operations newer than it, rolls back uncommitted
  /// intents, then truncates the journal to the end of its last commit
  /// record (and fsyncs) so the first append does not land behind a torn
  /// tail. Does not checkpoint — call Checkpoint() to fold the journal.
  static Result<std::unique_ptr<DurableWarehouse>> Open(
      const std::string& dir, RecoveryStats* stats = nullptr);

  const std::string& dir() const { return dir_; }
  const MultidimensionalObject& mo() const { return *mo_; }
  const ReductionSpecification& spec() const { return spec_; }
  /// Null until EnableSubcubes.
  const SubcubeManager* subcubes() const { return subcubes_.get(); }
  /// Count of committed operations (the next intent gets applied_lsn()+1).
  uint64_t applied_lsn() const { return applied_lsn_; }
  /// True after an IO failure mid-protocol left memory ahead of the journal,
  /// or left the journal's tail in doubt (an intent append that failed past
  /// its first write: Journal::tail_in_doubt); every further mutation fails
  /// until the directory is reopened.
  bool poisoned() const { return poisoned_; }

  /// Journaled bulk insert. Routes to the plain MO, or to the bottom subcube
  /// once EnableSubcubes ran. Every coordinate must be at its dimension's
  /// bottom category or ⊤; a batch that is not is refused when the insert
  /// plans, before its intent is journaled.
  Status InsertFacts(const MultidimensionalObject& batch);

  /// Journaled specification change via the insert operator (Section 5):
  /// parses and validates the staged `(name, action text)` pairs against the
  /// current warehouse *before* journaling, then re-runs the identical
  /// parse + InsertActions inside the applied operation so recovery replays
  /// it deterministically. Plain mode only.
  Status ApplyActions(
      const std::vector<std::pair<std::string, std::string>>& staged);

  /// Journaled specification change via the delete operator (Definition 4)
  /// at `now_day`. Plain mode only.
  Status DeleteAction(const std::string& name, int64_t now_day);

  /// Journaled Definition 2 reduction pass. Plain mode only.
  Status ReducePass(int64_t now_day, ReduceStats* stats = nullptr);

  /// Journaled switch to the Section 7 subcube organization: builds the cube
  /// layout from the current specification and moves every (bottom
  /// granularity) fact into the bottom cube.
  Status EnableSubcubes();

  /// Journaled Section 7.2 synchronization pass. Subcube mode only.
  Status SynchronizePass(int64_t now_day, size_t* migrated = nullptr);

  /// Writes a fresh snapshot atomically and truncates the journal.
  Status Checkpoint();

 private:
  DurableWarehouse() = default;

  /// An operation planned against the current state: the intent the journal
  /// records and, for a synchronize, the plan that intent digests; for an
  /// insert, the batch its payload resolves to.
  struct PlannedOp {
    IntentRecord intent;
    std::optional<SyncPlan> sync;
    std::optional<ResolvedBatch> insert;
  };

  /// Computes the intent for `op` against the current state (pre-image row
  /// counts, affected cell count + digest). A synchronize plans here, once:
  /// the intent digests the returned plan and ApplyOp executes it. An
  /// insert decodes its payload here, once, refusing a malformed payload
  /// (ParseError) or a coordinate above bottom (InvalidArgument) — the
  /// time values a valid batch interns are the only state planning touches.
  Result<PlannedOp> PlanOp(JournalOp op) const;

  /// Applies a planned operation to the in-memory state. Shared by the live
  /// path and recovery replay so both perform the identical mutation
  /// sequence.
  Status ApplyOp(const PlannedOp& planned);

  /// Plan + intent + apply + commit.
  Status RunJournaled(JournalOp op);

  uint64_t TotalRows() const;
  std::vector<uint64_t> TableRows() const;

  std::string dir_;
  std::unique_ptr<MultidimensionalObject> mo_;
  ReductionSpecification spec_;
  std::unique_ptr<SubcubeManager> subcubes_;
  Journal journal_;
  uint64_t applied_lsn_ = 0;
  bool poisoned_ = false;
  ReduceStats last_reduce_stats_;
  size_t last_sync_migrated_ = 0;
};

/// The recovery entry point (`dwredctl recover`): DurableWarehouse::Open —
/// load the last good snapshot, replay committed-but-unsnapshotted passes,
/// roll back uncommitted intents.
Result<std::unique_ptr<DurableWarehouse>> RecoverWarehouse(
    const std::string& dir, RecoveryStats* stats = nullptr);

}  // namespace dwred
