#include "io/recovery.h"

#include <filesystem>
#include <utility>

#include "io/atomic_file.h"
#include "io/csv.h"
#include "io/insert_redo.h"
#include "io/snapshot.h"
#include "io/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reduce/dynamics.h"
#include "runtime/cancel.h"
#include "spec/parser.h"
#include "testing/fault.h"

namespace dwred {

namespace {

constexpr char kSnapshotFile[] = "snapshot.dwsnap";
constexpr char kJournalFile[] = "journal.dwal";

/// Durable snapshot container: magic "DWST", version, the applied LSN, an
/// embedded io/snapshot.h warehouse image, the subcube row sets (subcube
/// mode), and a CRC32 trailer over everything before it.
constexpr char kStateMagic[4] = {'D', 'W', 'S', 'T'};
constexpr uint8_t kStateVersion = 1;

// --- FNV-1a 64 over symbolic cell keys -------------------------------------

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

class Fnv {
 public:
  void U8(uint8_t v) { Mix(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) Mix(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Mix(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Bytes(std::string_view s) {
    for (char c : s) Mix(static_cast<uint8_t>(c));
  }
  uint64_t digest() const { return h_; }

 private:
  void Mix(uint8_t b) { h_ = (h_ ^ b) * kFnvPrime; }
  uint64_t h_ = kFnvOffset;
};

/// Hashes one dimension value symbolically (category + display name, not the
/// ValueId) so the digest is stable across value-id assignment differences
/// between the live process and a replay from an older snapshot — time
/// values are materialized on demand, so ids depend on materialization
/// history but (category, name) does not.
void HashValue(Fnv* h, const Dimension& dim, ValueId v) {
  h->U32(dim.value_category(v));
  h->Bytes(dim.value_name(v));
  h->U8(0);
}

// --- Durable snapshot codec -------------------------------------------------

std::string SaveDurableState(uint64_t applied_lsn,
                             const MultidimensionalObject& mo,
                             const ReductionSpecification& spec,
                             const SubcubeManager* subcubes) {
  std::string s;
  s.append(kStateMagic, 4);
  wire::PutU8(&s, kStateVersion);
  wire::PutU64(&s, applied_lsn);
  wire::PutStr(&s, SaveWarehouse(mo, spec));
  wire::PutU8(&s, subcubes ? 1 : 0);
  if (subcubes) {
    wire::PutU32(&s, static_cast<uint32_t>(subcubes->num_subcubes()));
    for (size_t ci = 0; ci < subcubes->num_subcubes(); ++ci) {
      const FactTable& t = subcubes->subcube(ci).table;
      wire::PutU64(&s, t.num_rows());
      // The segment cursor walks live rows in logical order, so the image is
      // byte-identical to the pre-segmentation flat layout (the manifest —
      // including per-segment column encodings — is a physical property and
      // is rebuilt canonically on load).
      t.ForEachBatch(0, t.num_rows(), [&](const FactTable::BatchView& b) {
        for (size_t i = 0; i < b.rows(); ++i) {
          for (size_t d = 0; d < t.num_dims(); ++d) {
            wire::PutU32(&s, b.dim_col(d)[i]);
          }
          for (size_t m = 0; m < t.num_measures(); ++m) {
            wire::PutI64(&s, b.meas_col(m)[i]);
          }
        }
      });
    }
  }
  wire::PutU32(&s, Crc32(s));
  return s;
}

/// One saved subcube's rows, row-major.
struct SavedCube {
  size_t rows = 0;
  std::vector<ValueId> cells;     ///< rows × ndims
  std::vector<int64_t> measures;  ///< rows × nmeas
};

struct DurableState {
  uint64_t applied_lsn = 0;
  LoadedWarehouse wh;
  bool has_subcubes = false;
  std::vector<SavedCube> cubes;
};

Result<DurableState> LoadDurableState(std::string_view bytes) {
  // Shortest well-formed image: header + empty warehouse string + plain-mode
  // flag + CRC trailer.
  if (bytes.size() < 4 + 1 + 8 + 4 + 1 + 4) {
    return Status::ParseError("durable snapshot is truncated");
  }
  if (std::string_view(bytes.data(), 4) != std::string_view(kStateMagic, 4)) {
    return Status::ParseError("durable snapshot has wrong magic");
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  if (Crc32(bytes.substr(0, bytes.size() - 4)) != stored_crc) {
    return Status::ParseError("durable snapshot CRC mismatch");
  }
  wire::Cursor c(bytes.substr(4, bytes.size() - 8), "durable snapshot");
  DurableState st;
  uint8_t version;
  DWRED_RETURN_IF_ERROR(c.U8(&version));
  if (version != kStateVersion) {
    return Status::ParseError("unsupported durable snapshot version " +
                              std::to_string(version));
  }
  DWRED_RETURN_IF_ERROR(c.U64(&st.applied_lsn));
  std::string wh_bytes;
  DWRED_RETURN_IF_ERROR(c.Str(&wh_bytes));
  DWRED_ASSIGN_OR_RETURN(st.wh, LoadWarehouse(wh_bytes));
  uint8_t has_subcubes;
  DWRED_RETURN_IF_ERROR(c.U8(&has_subcubes));
  if (has_subcubes > 1) {
    return Status::ParseError("durable snapshot: bad organization flag");
  }
  st.has_subcubes = has_subcubes == 1;
  if (st.has_subcubes) {
    const size_t nd = st.wh.mo->num_dimensions();
    const size_t nm = st.wh.mo->num_measures();
    const size_t row_bytes = nd * 4 + nm * 8;
    uint32_t ncubes;
    DWRED_RETURN_IF_ERROR(c.U32(&ncubes));
    for (uint32_t ci = 0; ci < ncubes; ++ci) {
      uint64_t nrows;
      DWRED_RETURN_IF_ERROR(c.U64(&nrows));
      if (row_bytes > 0 && nrows > c.remaining() / row_bytes) {
        return Status::ParseError("durable snapshot: cube " +
                                  std::to_string(ci) +
                                  " row count exceeds image");
      }
      SavedCube cube;
      cube.rows = nrows;
      cube.cells.resize(nrows * nd);
      cube.measures.resize(nrows * nm);
      for (uint64_t r = 0; r < nrows; ++r) {
        for (size_t d = 0; d < nd; ++d) {
          DWRED_RETURN_IF_ERROR(c.U32(&cube.cells[r * nd + d]));
        }
        for (size_t m = 0; m < nm; ++m) {
          DWRED_RETURN_IF_ERROR(c.I64(&cube.measures[r * nm + m]));
        }
      }
      st.cubes.push_back(std::move(cube));
    }
  }
  if (!c.AtEnd()) {
    return Status::ParseError("durable snapshot has trailing bytes");
  }
  return st;
}

// --- Metrics ----------------------------------------------------------------

obs::Counter& RecoveryRuns() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dwred_recovery_runs", "recovery passes (DurableWarehouse::Open)");
  return c;
}

obs::Counter& RecoveryReplayed() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dwred_recovery_ops_replayed",
      "committed journal operations re-applied during recovery");
  return c;
}

obs::Counter& RecoveryRolledBack() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dwred_recovery_intents_rolled_back",
      "uncommitted journal intents discarded during recovery");
  return c;
}

obs::Counter& CheckpointsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dwred_snapshot_checkpoints",
      "durable snapshots written (initial, Checkpoint)");
  return c;
}

/// The fault site guarding the apply step of each operation kind (fires
/// after the intent is durable and before any in-memory mutation).
const char* ApplySite(JournalOpKind kind) {
  switch (kind) {
    case JournalOpKind::kInsertRows:
    case JournalOpKind::kInsertFacts:
      return "insert.apply";
    case JournalOpKind::kReduce:
      return "reduce.apply";
    case JournalOpKind::kEnableSubcubes:
      return "subcube.enable.apply";
    case JournalOpKind::kSynchronize:
      return "sync.apply";
    case JournalOpKind::kSetSpec:
      return "spec.apply";
  }
  return "unknown.apply";
}

}  // namespace

// --- Construction -----------------------------------------------------------

Result<std::unique_ptr<DurableWarehouse>> DurableWarehouse::Create(
    const std::string& dir, std::unique_ptr<MultidimensionalObject> mo,
    ReductionSpecification spec) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::InvalidArgument("cannot create directory " + dir + ": " +
                                   ec.message());
  }
  const std::string snap_path = dir + "/" + kSnapshotFile;
  if (std::filesystem::exists(snap_path)) {
    return Status::InvalidArgument(snap_path +
                                   " already exists; open it with "
                                   "RecoverWarehouse instead");
  }
  auto dw = std::unique_ptr<DurableWarehouse>(new DurableWarehouse());
  dw->dir_ = dir;
  dw->mo_ = std::move(mo);
  dw->spec_ = std::move(spec);
  DWRED_RETURN_IF_ERROR(AtomicWriteFile(
      snap_path, SaveDurableState(0, *dw->mo_, dw->spec_, nullptr)));
  DWRED_ASSIGN_OR_RETURN(dw->journal_, Journal::Open(dir + "/" + kJournalFile));
  // Discard any journal left over from a crashed earlier initialization: its
  // records predate this snapshot's lineage.
  DWRED_RETURN_IF_ERROR(dw->journal_.Reset());
  CheckpointsCounter().Increment();
  return dw;
}

Result<std::unique_ptr<DurableWarehouse>> DurableWarehouse::Open(
    const std::string& dir, RecoveryStats* stats) {
  obs::TraceSpan span("io.recover");
  DurableState st;
  {
    obs::TraceSpan load("io.recover.load");
    DWRED_ASSIGN_OR_RETURN(std::string snap_bytes,
                           ReadFile(dir + "/" + kSnapshotFile));
    DWRED_ASSIGN_OR_RETURN(st, LoadDurableState(snap_bytes));
  }

  auto dw = std::unique_ptr<DurableWarehouse>(new DurableWarehouse());
  dw->dir_ = dir;
  dw->mo_ = std::move(st.wh.mo);
  dw->spec_ = std::move(st.wh.spec);
  dw->applied_lsn_ = st.applied_lsn;
  if (st.has_subcubes) {
    // Rebuild the cube layout from the specification (deterministic) and
    // refill each table with its saved rows in one batch.
    obs::TraceSpan restore("io.recover.restore");
    DWRED_ASSIGN_OR_RETURN(
        SubcubeManager m,
        SubcubeManager::Create(dw->mo_->fact_type(), dw->mo_->dimensions(),
                               dw->mo_->measure_types(), dw->spec_));
    if (st.cubes.size() != m.num_subcubes()) {
      return Status::ParseError(
          "durable snapshot: stores " + std::to_string(st.cubes.size()) +
          " cubes but the specification builds " +
          std::to_string(m.num_subcubes()));
    }
    dw->subcubes_ = std::make_unique<SubcubeManager>(std::move(m));
    for (size_t ci = 0; ci < st.cubes.size(); ++ci) {
      const SavedCube& cube = st.cubes[ci];
      DWRED_RETURN_IF_ERROR(dw->subcubes_->RestoreCube(
          ci, cube.rows, cube.cells, cube.measures));
    }
  }

  RecoveryStats rs;
  rs.snapshot_lsn = st.applied_lsn;

  obs::TraceSpan replay("io.recover.replay");
  std::string journal_bytes;
  {
    Result<std::string> r = ReadFile(dir + "/" + kJournalFile);
    if (r.ok()) {
      journal_bytes = r.take();
    } else if (r.status().code() != StatusCode::kNotFound) {
      return r.status();
    }
  }
  DWRED_ASSIGN_OR_RETURN(JournalScan scan, ScanJournal(journal_bytes));
  rs.journal_torn_bytes = scan.torn_bytes;

  for (CommittedOp& cop : scan.committed) {
    if (cop.intent.lsn <= dw->applied_lsn_) continue;  // folded into snapshot
    if (cop.intent.lsn != dw->applied_lsn_ + 1) {
      return Status::ParseError(
          "journal: lsn gap (expected " + std::to_string(dw->applied_lsn_ + 1) +
          ", found " + std::to_string(cop.intent.lsn) + ")");
    }
    // Re-derive the plan against the recovered pre-state and verify it
    // matches the journaled intent — catches snapshot/journal lineage mixups
    // and non-deterministic replay before any mutation happens.
    DWRED_ASSIGN_OR_RETURN(PlannedOp replan,
                           dw->PlanOp(std::move(cop.intent.op)));
    if (replan.intent.pre_rows != cop.intent.pre_rows ||
        replan.intent.pre_counts != cop.intent.pre_counts ||
        replan.intent.affected_count != cop.intent.affected_count ||
        replan.intent.affected_digest != cop.intent.affected_digest) {
      return Status::ParseError(
          "journal: replay diverged from the intent at lsn " +
          std::to_string(cop.intent.lsn));
    }
    DWRED_RETURN_IF_ERROR(dw->ApplyOp(replan));
    if (dw->TotalRows() != cop.commit.post_rows) {
      return Status::ParseError(
          "journal: replay post-image row count mismatch at lsn " +
          std::to_string(cop.intent.lsn));
    }
    dw->applied_lsn_ = cop.intent.lsn;
    ++rs.ops_replayed;
  }
  rs.intents_rolled_back =
      scan.superseded_intents + (scan.has_pending_intent ? 1 : 0);
  rs.recovered_lsn = dw->applied_lsn_;

  DWRED_ASSIGN_OR_RETURN(dw->journal_, Journal::Open(dir + "/" + kJournalFile));
  // Appends go to the end of the file. Cut what follows the last commit —
  // the torn tail, a rolled-back intent — so the next intent does not land
  // behind bytes the next scan would stop at, losing every op acknowledged
  // after this open.
  if (journal_bytes.size() > scan.committed_bytes) {
    DWRED_RETURN_IF_ERROR(dw->journal_.Truncate(scan.committed_bytes));
  }

  RecoveryRuns().Increment();
  RecoveryReplayed().Increment(rs.ops_replayed);
  RecoveryRolledBack().Increment(rs.intents_rolled_back);
  if (stats) *stats = rs;
  return dw;
}

// --- Row accounting ---------------------------------------------------------

uint64_t DurableWarehouse::TotalRows() const {
  if (!subcubes_) return mo_->num_facts();
  uint64_t total = 0;
  for (size_t ci = 0; ci < subcubes_->num_subcubes(); ++ci) {
    total += subcubes_->subcube(ci).table.num_rows();
  }
  return total;
}

std::vector<uint64_t> DurableWarehouse::TableRows() const {
  if (!subcubes_) return {mo_->num_facts()};
  std::vector<uint64_t> rows;
  rows.reserve(subcubes_->num_subcubes());
  for (size_t ci = 0; ci < subcubes_->num_subcubes(); ++ci) {
    rows.push_back(subcubes_->subcube(ci).table.num_rows());
  }
  return rows;
}

// --- Plan -------------------------------------------------------------------

Result<DurableWarehouse::PlannedOp> DurableWarehouse::PlanOp(
    JournalOp op_in) const {
  PlannedOp planned;
  IntentRecord& in = planned.intent;
  in.op = std::move(op_in);
  const JournalOp& op = in.op;
  in.pre_rows = TotalRows();
  in.pre_counts = TableRows();
  Fnv h;
  switch (op.kind) {
    case JournalOpKind::kInsertRows:
    case JournalOpKind::kInsertFacts: {
      // The redo payload *is* the plan: the digest commits to its exact
      // bytes, and the batch it resolves to is what ApplyOp appends.
      DWRED_ASSIGN_OR_RETURN(
          planned.insert, DecodeInsertRedo(op.kind, op.aux, mo_->dimensions(),
                                           mo_->num_measures()));
      in.affected_count = planned.insert->rows;
      h.Bytes(op.aux);
      break;
    }
    case JournalOpKind::kSetSpec: {
      h.Bytes(op.aux);
      break;
    }
    case JournalOpKind::kEnableSubcubes: {
      if (subcubes_) {
        return Status::InvalidArgument("subcubes are already enabled");
      }
      in.affected_count = mo_->num_facts();
      break;
    }
    case JournalOpKind::kReduce: {
      if (subcubes_) {
        return Status::InvalidArgument(
            "reduce pass applies to the plain organization; use synchronize");
      }
      // Reduce's own compiled assignment, digested in fact order: every
      // deleted fact contributes its direct cell, every moved one its new
      // cell.
      const CellAssigner assigner(*mo_, spec_, op.now_day);
      DWRED_RETURN_IF_ERROR(assigner.Assign(
          0, mo_->num_facts(), [&](const CellAssignment& a) {
            if (!a.deleted && !a.changed) return;
            ++in.affected_count;
            h.U8(a.deleted ? 1 : 2);
            for (DimensionId d = 0; d < mo_->num_dimensions(); ++d) {
              HashValue(&h, *mo_->dimension(d), a.cell[d]);
            }
          }));
      break;
    }
    case JournalOpKind::kSynchronize: {
      if (!subcubes_) {
        return Status::InvalidArgument(
            "synchronize requires the subcube organization");
      }
      // The plan ApplyOp executes, digested in (cube, row) order: every row
      // whose responsible cube is not its own contributes its source cube,
      // its target (deletions as ~0), and its direct cell.
      DWRED_ASSIGN_OR_RETURN(planned.sync,
                             subcubes_->PlanSynchronize(op.now_day));
      const size_t nd = mo_->num_dimensions();
      for (size_t ci = 0; ci < planned.sync->cubes.size(); ++ci) {
        const std::vector<size_t>& target = planned.sync->cubes[ci].target;
        const FactTable& t = subcubes_->subcube(ci).table;
        t.ForEachDimBatch(
            0, target.size(), [&](const FactTable::BatchView& b) {
              for (size_t k = 0; k < b.rows(); ++k) {
                const size_t to = target[b.first_row() + k];
                if (to == ci) continue;
                ++in.affected_count;
                h.U32(static_cast<uint32_t>(ci));
                h.U64(to == SubcubeManager::kDeletedCell
                          ? ~uint64_t{0}
                          : static_cast<uint64_t>(to));
                for (size_t d = 0; d < nd; ++d) {
                  HashValue(&h, *mo_->dimension(static_cast<DimensionId>(d)),
                            b.dim_col(d)[k]);
                }
              }
            });
      }
      break;
    }
  }
  in.affected_digest = h.digest();
  return planned;
}

// --- Apply ------------------------------------------------------------------

Status DurableWarehouse::ApplyOp(const PlannedOp& planned) {
  const JournalOp& op = planned.intent.op;
  switch (op.kind) {
    case JournalOpKind::kInsertRows:
    case JournalOpKind::kInsertFacts: {
      const ResolvedBatch& b = *planned.insert;
      if (subcubes_) {
        return subcubes_->InsertBottomFacts(b.rows, b.cells, b.measures);
      }
      mo_->AppendFactsUnchecked(b.rows, b.cells, b.measures);
      return Status::OK();
    }
    case JournalOpKind::kReduce: {
      ReduceStats stats;
      DWRED_ASSIGN_OR_RETURN(MultidimensionalObject reduced,
                             Reduce(*mo_, spec_, op.now_day, {}, &stats));
      *mo_ = std::move(reduced);
      last_reduce_stats_ = stats;
      return Status::OK();
    }
    case JournalOpKind::kEnableSubcubes: {
      // Build the new organization fully before swapping it in, so a failure
      // leaves the plain warehouse untouched.
      std::string fact_type = mo_->fact_type();
      std::vector<std::shared_ptr<Dimension>> dims = mo_->dimensions();
      std::vector<MeasureType> measures = mo_->measure_types();
      DWRED_ASSIGN_OR_RETURN(
          SubcubeManager m,
          SubcubeManager::Create(fact_type, dims, measures, spec_));
      DWRED_RETURN_IF_ERROR(m.InsertBottomFacts(*mo_));
      subcubes_ = std::make_unique<SubcubeManager>(std::move(m));
      *mo_ = MultidimensionalObject(fact_type, dims, measures);
      return Status::OK();
    }
    case JournalOpKind::kSynchronize: {
      DWRED_ASSIGN_OR_RETURN(last_sync_migrated_,
                             subcubes_->ApplySynchronize(*planned.sync));
      return Status::OK();
    }
    case JournalOpKind::kSetSpec: {
      wire::Cursor c(op.aux, "setspec redo");
      uint8_t mode;
      DWRED_RETURN_IF_ERROR(c.U8(&mode));
      if (mode == 1) {
        uint32_t n;
        DWRED_RETURN_IF_ERROR(c.U32(&n));
        std::vector<Action> actions;
        actions.reserve(n);
        for (uint32_t i = 0; i < n; ++i) {
          std::string name, text;
          DWRED_RETURN_IF_ERROR(c.Str(&name));
          DWRED_RETURN_IF_ERROR(c.Str(&text));
          DWRED_ASSIGN_OR_RETURN(Action a, ParseAction(*mo_, text, name));
          actions.push_back(std::move(a));
        }
        DWRED_ASSIGN_OR_RETURN(ReductionSpecification next,
                               InsertActions(*mo_, spec_, std::move(actions)));
        spec_ = std::move(next);
        return Status::OK();
      }
      if (mode == 2) {
        std::string name;
        DWRED_RETURN_IF_ERROR(c.Str(&name));
        ActionId id = kNoAction;
        for (size_t i = 0; i < spec_.size(); ++i) {
          if (spec_.action(static_cast<ActionId>(i)).name == name) {
            id = static_cast<ActionId>(i);
            break;
          }
        }
        if (id == kNoAction) {
          return Status::NotFound("no action named '" + name +
                                  "' in the specification");
        }
        DWRED_ASSIGN_OR_RETURN(
            ReductionSpecification next,
            DeleteActions(*mo_, spec_, {id}, op.now_day));
        spec_ = std::move(next);
        return Status::OK();
      }
      return Status::ParseError("setspec redo: unknown mode " +
                                std::to_string(mode));
    }
  }
  return Status::Internal("unreachable operation kind");
}

// --- The two-phase protocol -------------------------------------------------

Status DurableWarehouse::RunJournaled(JournalOp op) {
  obs::TraceSpan span("io.durable");
  span.AddField("kind", static_cast<int64_t>(op.kind));
  if (poisoned_) {
    return Status::Internal(
        "warehouse is poisoned by an earlier IO failure; reopen " + dir_ +
        " to recover");
  }
  // An already-cancelled or expired context bails before the intent is even
  // planned — no journal traffic for an operation that will not run.
  DWRED_RETURN_IF_ERROR(
      runtime::CountAbort(runtime::CurrentOpContext().Check()));
  Result<PlannedOp> plan = [&] {
    obs::TraceSpan layer("io.durable.plan");
    return PlanOp(std::move(op));
  }();
  if (!plan.ok()) return plan.status();
  PlannedOp& planned = plan.value();
  IntentRecord& intent = planned.intent;
  intent.lsn = applied_lsn_ + 1;
  // An intent-append failure leaves memory untouched. One at the write
  // fault site wrote nothing, so the session goes on. Past it — a partial
  // write, a failed fsync — the file may end in a record that never reaches
  // the disk, and the next append would sit behind it, lost to recovery's
  // scan after a crash: poison, as after a failed commit. Reopening cuts
  // the tail.
  Status appended = [&] {
    obs::TraceSpan layer("io.durable.intent");
    return journal_.AppendIntent(intent);
  }();
  if (!appended.ok()) {
    if (journal_.tail_in_doubt()) poisoned_ = true;
    return appended;
  }
  Status applied = [&] {
    obs::TraceSpan layer("io.durable.apply");
    Status st = testing::FaultPoint(ApplySite(intent.op.kind));
    return st.ok() ? ApplyOp(planned) : st;
  }();
  if (!applied.ok()) {
    if (runtime::IsAbort(applied.code())) {
      // Cooperative aborts are clean by contract (runtime/cancel.h): every
      // poll site sits in a read-only phase, so memory is still the journal's
      // pre-image. The dangling intent is superseded by the next append or
      // rolled back at recovery — exactly the crash-before-apply semantics.
      return applied;
    }
    // The apply may have mutated part of the state; memory is no longer
    // provably the journal's pre-image.
    poisoned_ = true;
    return applied;
  }
  applied_lsn_ = intent.lsn;
  Status committed = [&] {
    obs::TraceSpan layer("io.durable.commit");
    return journal_.AppendCommit(CommitRecord{intent.lsn, TotalRows()});
  }();
  if (!committed.ok()) {
    poisoned_ = true;  // memory is ahead of the journal
    return committed;
  }
  return Status::OK();
}

// --- Journaled operations ---------------------------------------------------

Status DurableWarehouse::InsertFacts(const MultidimensionalObject& batch) {
  if (batch.num_dimensions() != mo_->num_dimensions() ||
      batch.num_measures() != mo_->num_measures()) {
    return Status::InvalidArgument(
        "insert batch schema mismatch: " +
        std::to_string(batch.num_dimensions()) + " dimensions / " +
        std::to_string(batch.num_measures()) + " measures vs warehouse's " +
        std::to_string(mo_->num_dimensions()) + " / " +
        std::to_string(mo_->num_measures()));
  }
  // Resolution and the bottom-granularity check run when RunJournaled
  // plans, before the intent is appended: a refused batch leaves the journal
  // and the dimensions as they were.
  DWRED_ASSIGN_OR_RETURN(std::string aux, EncodeInsertRedo(batch));
  return RunJournaled({JournalOpKind::kInsertFacts, 0, std::move(aux)});
}

Status DurableWarehouse::ApplyActions(
    const std::vector<std::pair<std::string, std::string>>& staged) {
  if (subcubes_) {
    return Status::InvalidArgument(
        "specification changes under the subcube organization are not "
        "journaled; change the specification before enabling subcubes");
  }
  if (staged.empty()) {
    return Status::InvalidArgument("no actions staged");
  }
  // Trial parse + insert (discarded) so Table-1 syntax errors and
  // NonCrossing/Growing violations return cleanly without journaling.
  std::vector<Action> trial;
  trial.reserve(staged.size());
  for (const auto& [name, text] : staged) {
    DWRED_ASSIGN_OR_RETURN(Action a, ParseAction(*mo_, text, name));
    trial.push_back(std::move(a));
  }
  DWRED_RETURN_IF_ERROR(InsertActions(*mo_, spec_, std::move(trial)).status());
  std::string aux;
  wire::PutU8(&aux, 1);
  wire::PutU32(&aux, static_cast<uint32_t>(staged.size()));
  for (const auto& [name, text] : staged) {
    wire::PutStr(&aux, name);
    wire::PutStr(&aux, text);
  }
  return RunJournaled({JournalOpKind::kSetSpec, 0, std::move(aux)});
}

Status DurableWarehouse::DeleteAction(const std::string& name,
                                      int64_t now_day) {
  if (subcubes_) {
    return Status::InvalidArgument(
        "specification changes under the subcube organization are not "
        "journaled");
  }
  ActionId id = kNoAction;
  for (size_t i = 0; i < spec_.size(); ++i) {
    if (spec_.action(static_cast<ActionId>(i)).name == name) {
      id = static_cast<ActionId>(i);
      break;
    }
  }
  if (id == kNoAction) {
    return Status::NotFound("no action named '" + name +
                            "' in the specification");
  }
  // Trial delete (discarded) so Definition-4 precondition failures return
  // cleanly without journaling.
  DWRED_RETURN_IF_ERROR(DeleteActions(*mo_, spec_, {id}, now_day).status());
  std::string aux;
  wire::PutU8(&aux, 2);
  wire::PutStr(&aux, name);
  return RunJournaled({JournalOpKind::kSetSpec, now_day, std::move(aux)});
}

Status DurableWarehouse::ReducePass(int64_t now_day, ReduceStats* stats) {
  if (subcubes_) {
    return Status::InvalidArgument(
        "reduce pass applies to the plain organization; use SynchronizePass");
  }
  DWRED_RETURN_IF_ERROR(RunJournaled({JournalOpKind::kReduce, now_day, ""}));
  if (stats) *stats = last_reduce_stats_;
  return Status::OK();
}

Status DurableWarehouse::EnableSubcubes() {
  if (subcubes_) {
    return Status::InvalidArgument("subcubes are already enabled");
  }
  // Pre-check the bottom-granularity requirement so the common user error
  // (enabling subcubes after a reduce pass) fails before journaling.
  for (FactId f = 0; f < mo_->num_facts(); ++f) {
    for (DimensionId d = 0; d < mo_->num_dimensions(); ++d) {
      const Dimension& dim = *mo_->dimension(d);
      ValueId v = mo_->Coord(f, d);
      if (v != dim.top_value() &&
          dim.value_category(v) != dim.type().bottom()) {
        return Status::InvalidArgument(
            "cannot enable subcubes: fact " + mo_->FactName(f) +
            " is aggregated above bottom in dimension " + dim.name() +
            " (enable subcubes before reducing)");
      }
    }
  }
  return RunJournaled({JournalOpKind::kEnableSubcubes, 0, ""});
}

Status DurableWarehouse::SynchronizePass(int64_t now_day, size_t* migrated) {
  if (!subcubes_) {
    return Status::InvalidArgument(
        "synchronize requires the subcube organization; call EnableSubcubes");
  }
  DWRED_RETURN_IF_ERROR(
      RunJournaled({JournalOpKind::kSynchronize, now_day, ""}));
  if (migrated) *migrated = last_sync_migrated_;
  return Status::OK();
}

// --- Checkpoint -------------------------------------------------------------

Status DurableWarehouse::Checkpoint() {
  if (poisoned_) {
    return Status::Internal(
        "warehouse is poisoned by an earlier IO failure; reopen " + dir_ +
        " to recover");
  }
  DWRED_RETURN_IF_ERROR(AtomicWriteFile(
      dir_ + "/" + kSnapshotFile,
      SaveDurableState(applied_lsn_, *mo_, spec_, subcubes_.get())));
  // A failure from here on is harmless: the snapshot already covers every
  // journaled operation, so recovery skips the stale records.
  DWRED_RETURN_IF_ERROR(journal_.Reset());
  CheckpointsCounter().Increment();
  return Status::OK();
}

Result<std::unique_ptr<DurableWarehouse>> RecoverWarehouse(
    const std::string& dir, RecoveryStats* stats) {
  return DurableWarehouse::Open(dir, stats);
}

}  // namespace dwred
