// Durable-warehouse recovery tests: create/open round trips, journal replay
// without a checkpoint, checkpoint idempotence, rollback of uncommitted
// intents (including an already-applied op whose commit never made it), the
// poison latch after mid-protocol IO failures, the torn-tail cut on open, a
// committed directory from an earlier build, the subcube organization, and
// the insert redo record: its interning order on replay, plan-time refusal,
// pinned intent, malformed payloads, and the row form earlier builds wrote.

#include "io/recovery.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chrono/civil.h"
#include "chrono/granule.h"
#include "io/snapshot.h"
#include "mdm/paper_example.h"
#include "paper_actions.h"
#include "io/csv.h"
#include "io/insert_redo.h"
#include "io/journal.h"
#include "io/wire.h"
#include "net/command.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spec/parser.h"
#include "testing/fault.h"
#include "testing/spec_gen.h"
#include "workload/clickstream.h"

namespace dwred {
namespace {

int64_t Now2000() { return DaysFromCivil({2000, 6, 5}); }

ReductionSpecification PaperSpec(const MultidimensionalObject& mo) {
  ReductionSpecification spec;
  spec.Add(ParseAction(mo, paper::kA1, "a1").take());
  spec.Add(ParseAction(mo, paper::kA2, "a2").take());
  return spec;
}

std::string StateBytes(const DurableWarehouse& dw) {
  return SaveWarehouse(dw.mo(), dw.spec());
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("dwred_recovery_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  void TearDown() override {
    testing::FaultInjector::Global().Disarm();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::unique_ptr<DurableWarehouse> CreateExample(ReductionSpecification spec) {
    IspExample ex = MakeIspExample();
    auto dw = DurableWarehouse::Create(dir_, std::move(ex.mo), std::move(spec));
    EXPECT_TRUE(dw.ok()) << dw.status().ToString();
    return dw.ok() ? dw.take() : nullptr;
  }

  std::string dir_;
};

TEST_F(RecoveryTest, CreateThenOpenRoundTrip) {
  auto dw = CreateExample(PaperSpec(*MakeIspExample().mo));
  ASSERT_NE(dw, nullptr);
  EXPECT_EQ(dw->applied_lsn(), 0u);
  std::string before = StateBytes(*dw);
  dw.reset();

  RecoveryStats stats;
  auto back = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(stats.ops_replayed, 0u);
  EXPECT_EQ(stats.intents_rolled_back, 0u);
  EXPECT_EQ(stats.snapshot_lsn, 0u);
  EXPECT_EQ(StateBytes(*back.value()), before);
}

TEST_F(RecoveryTest, JournalReplayWithoutCheckpoint) {
  auto dw = CreateExample(ReductionSpecification{});
  ASSERT_NE(dw, nullptr);

  IspExample batch = MakeIspExample();
  ASSERT_TRUE(dw->InsertFacts(*batch.mo).ok());
  EXPECT_EQ(dw->mo().num_facts(), 14u);
  // a1 alone shrinks; Definition 3 admits the {a1, a2} union jointly.
  ASSERT_TRUE(dw->ApplyActions({{"a1", paper::kA1}, {"a2", paper::kA2}}).ok());
  ReduceStats rstats;
  ASSERT_TRUE(dw->ReducePass(Now2000(), &rstats).ok());
  EXPECT_EQ(dw->applied_lsn(), 3u);
  std::string live = StateBytes(*dw);
  dw.reset();

  // Reopen replays all three ops from the journal against the initial
  // snapshot and lands on the identical state.
  RecoveryStats stats;
  auto back = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(stats.snapshot_lsn, 0u);
  EXPECT_EQ(stats.recovered_lsn, 3u);
  EXPECT_EQ(stats.ops_replayed, 3u);
  EXPECT_EQ(back.value()->applied_lsn(), 3u);
  EXPECT_EQ(back.value()->spec().size(), 2u);
  EXPECT_EQ(StateBytes(*back.value()), live);
}

TEST_F(RecoveryTest, CheckpointFoldsTheJournal) {
  auto dw = CreateExample(ReductionSpecification{});
  ASSERT_NE(dw, nullptr);
  ASSERT_TRUE(dw->ApplyActions({{"a7", paper::kA7}}).ok());
  ASSERT_TRUE(dw->ReducePass(Now2000()).ok());
  ASSERT_TRUE(dw->Checkpoint().ok());
  std::string live = StateBytes(*dw);
  dw.reset();

  RecoveryStats stats;
  auto back = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(stats.snapshot_lsn, 2u);
  EXPECT_EQ(stats.recovered_lsn, 2u);
  EXPECT_EQ(stats.ops_replayed, 0u);
  EXPECT_EQ(StateBytes(*back.value()), live);

  // LSNs keep counting after the checkpoint.
  ASSERT_TRUE(back.value()->ReducePass(Now2000() + 400).ok());
  EXPECT_EQ(back.value()->applied_lsn(), 3u);
}

TEST_F(RecoveryTest, AppliedButUncommittedOpIsRolledBack) {
  auto dw = CreateExample(ReductionSpecification{});
  ASSERT_NE(dw, nullptr);
  ASSERT_TRUE(dw->ApplyActions({{"a7", paper::kA7}}).ok());
  std::string before_reduce = StateBytes(*dw);

  // Fail the commit-record write: the reduce applied in memory, but on disk
  // there is an intent with no commit. The session latches poisoned.
  testing::FaultInjector::Global().Arm("journal.commit.write", 1,
                                       testing::FaultMode::kError);
  Status s = dw->ReducePass(Now2000());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_TRUE(dw->poisoned());
  // Every further mutation fails fast.
  testing::FaultInjector::Global().Disarm();
  EXPECT_FALSE(dw->ReducePass(Now2000()).ok());
  EXPECT_FALSE(dw->Checkpoint().ok());
  dw.reset();

  RecoveryStats stats;
  auto back = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(stats.intents_rolled_back, 1u);
  EXPECT_EQ(stats.ops_replayed, 1u);  // the committed ApplyActions
  EXPECT_EQ(back.value()->applied_lsn(), 1u);
  EXPECT_EQ(StateBytes(*back.value()), before_reduce);
  // The rolled-back pass can simply be run again.
  ASSERT_TRUE(back.value()->ReducePass(Now2000()).ok());
}

TEST_F(RecoveryTest, FailedIntentWriteDoesNotPoison) {
  auto dw = CreateExample(ReductionSpecification{});
  ASSERT_NE(dw, nullptr);
  testing::FaultInjector::Global().Arm("journal.intent.write", 1,
                                       testing::FaultMode::kError);
  EXPECT_FALSE(dw->ApplyActions({{"a7", paper::kA7}}).ok());
  testing::FaultInjector::Global().Disarm();
  // The write site fires before any byte reaches the file and memory was
  // never touched: the session stays usable.
  EXPECT_FALSE(dw->poisoned());
  EXPECT_EQ(dw->spec().size(), 0u);
  ASSERT_TRUE(dw->ApplyActions({{"a7", paper::kA7}}).ok());
  EXPECT_EQ(dw->spec().size(), 1u);
  EXPECT_EQ(dw->applied_lsn(), 1u);
}

TEST_F(RecoveryTest, FailedIntentFsyncPoisons) {
  auto dw = CreateExample(ReductionSpecification{});
  ASSERT_NE(dw, nullptr);
  ASSERT_TRUE(dw->ApplyActions({{"a7", paper::kA7}}).ok());
  std::string committed = StateBytes(*dw);
  testing::FaultInjector::Global().Arm("journal.intent.fsync", 1,
                                       testing::FaultMode::kError);
  EXPECT_FALSE(dw->ReducePass(Now2000()).ok());
  testing::FaultInjector::Global().Disarm();
  // The intent's bytes were written but their fsync failed: they may never
  // reach the disk, and an append behind them could be lost with them.
  EXPECT_TRUE(dw->poisoned());
  EXPECT_FALSE(dw->ReducePass(Now2000()).ok());
  dw.reset();

  RecoveryStats stats;
  auto back = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(stats.recovered_lsn, 1u);
  EXPECT_EQ(StateBytes(*back.value()), committed);
  // The retried pass is accepted and survives the next reopen.
  ASSERT_TRUE(back.value()->ReducePass(Now2000()).ok());
  EXPECT_EQ(back.value()->applied_lsn(), 2u);
  std::string reduced = StateBytes(*back.value());
  back.value().reset();
  auto again = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(stats.recovered_lsn, 2u);
  EXPECT_EQ(StateBytes(*again.value()), reduced);
}

// An op acknowledged after a recovery that found a torn tail must survive
// the next recovery: Open cuts the tail before the first append, so the new
// records do not sit behind bytes the scan stops at.
TEST_F(RecoveryTest, TornTailIsCutBeforeTheNextAppend) {
  auto dw = CreateExample(ReductionSpecification{});
  ASSERT_NE(dw, nullptr);
  ASSERT_TRUE(dw->ApplyActions({{"a7", paper::kA7}}).ok());
  dw.reset();
  {
    std::ofstream journal(dir_ + "/journal.dwal",
                          std::ios::binary | std::ios::app);
    journal << "garbage!";
  }

  RecoveryStats stats;
  auto first = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(stats.recovered_lsn, 1u);
  EXPECT_EQ(stats.journal_torn_bytes, 8u);
  ASSERT_TRUE(first.value()->ReducePass(Now2000()).ok());
  EXPECT_EQ(first.value()->applied_lsn(), 2u);
  std::string acknowledged = StateBytes(*first.value());
  first.value().reset();

  auto second = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(stats.recovered_lsn, 2u);
  EXPECT_EQ(stats.ops_replayed, 2u);
  EXPECT_EQ(stats.journal_torn_bytes, 0u);
  EXPECT_EQ(StateBytes(*second.value()), acknowledged);
}

// A durable directory written by an earlier build (tests/data/
// durable_subcube.dwred: a checkpoint, then an insert and two synchronize
// passes in the journal) must open with every frame's CRC intact, replay
// every journaled op against its intent digest, and checkpoint to the
// snapshot that build's recovery wrote, byte for byte.
TEST_F(RecoveryTest, CommittedImageRecoversByteIdentically) {
  const std::string data = DWRED_TEST_DATA_DIR;
  std::filesystem::create_directories(dir_);
  for (const char* file : {"snapshot.dwsnap", "journal.dwal"}) {
    std::filesystem::copy_file(data + "/durable_subcube/" + file,
                               dir_ + "/" + file);
  }
  auto journal = ReadFile(dir_ + "/journal.dwal");
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  auto scan = ScanJournal(journal.value());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan.value().committed.size(), 3u);
  EXPECT_EQ(scan.value().torn_bytes, 0u);

  RecoveryStats stats;
  auto dw = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(dw.ok()) << dw.status().ToString();
  EXPECT_EQ(stats.snapshot_lsn, 4u);
  EXPECT_EQ(stats.ops_replayed, 3u);
  EXPECT_EQ(stats.recovered_lsn, 7u);
  ASSERT_TRUE(dw.value()->Checkpoint().ok());
  auto snapshot = ReadFile(dir_ + "/snapshot.dwsnap");
  auto pinned = ReadFile(data + "/durable_subcube.recovered.dwsnap");
  ASSERT_TRUE(snapshot.ok() && pinned.ok());
  EXPECT_TRUE(snapshot.value() == pinned.value())
      << "recovered snapshot differs from the pinned image";
}

TEST_F(RecoveryTest, UserErrorsSurfaceBeforeJournaling) {
  auto dw = CreateExample(ReductionSpecification{});
  ASSERT_NE(dw, nullptr);
  // Ill-formed action text (paper's a3 violates the Section 4.1 constraint).
  EXPECT_FALSE(dw->ApplyActions({{"a3", paper::kA3}}).ok());
  EXPECT_FALSE(dw->poisoned());
  // Deleting a nonexistent action.
  EXPECT_EQ(dw->DeleteAction("ghost", Now2000()).code(), StatusCode::kNotFound);
  // A batch with the wrong shape (one dimension, one measure).
  IspExample ex2 = MakeIspExample();
  std::vector<MeasureType> mt(ex2.mo->measure_types().begin(),
                              ex2.mo->measure_types().end());
  MultidimensionalObject tiny("T", {ex2.mo->dimensions()[0]}, {mt[0]});
  EXPECT_EQ(dw->InsertFacts(tiny).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dw->applied_lsn(), 0u);
  // Nothing reached the journal: reopen replays nothing.
  dw.reset();
  RecoveryStats stats;
  auto back = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(stats.ops_replayed, 0u);
}

TEST_F(RecoveryTest, DeleteActionRoundTrips) {
  auto dw = CreateExample(ReductionSpecification{});
  ASSERT_NE(dw, nullptr);
  // An action with no effect on the current facts (deletable, Definition 4).
  ASSERT_TRUE(dw->ApplyActions(
                    {{"old", "a[Time.month, URL.domain] s[Time.month <= 1990/12]"}})
                  .ok());
  ASSERT_TRUE(dw->DeleteAction("old", Now2000()).ok());
  EXPECT_TRUE(dw->spec().empty());
  std::string live = StateBytes(*dw);
  dw.reset();

  RecoveryStats stats;
  auto back = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(stats.ops_replayed, 2u);
  EXPECT_TRUE(back.value()->spec().empty());
  EXPECT_EQ(StateBytes(*back.value()), live);
}

void ExpectSameSubcubes(const SubcubeManager& a, const SubcubeManager& b) {
  ASSERT_EQ(a.num_subcubes(), b.num_subcubes());
  for (size_t i = 0; i < a.num_subcubes(); ++i) {
    const FactTable& ta = a.subcube(i).table;
    const FactTable& tb = b.subcube(i).table;
    ASSERT_EQ(ta.num_rows(), tb.num_rows()) << "cube " << i;
    ASSERT_EQ(a.subcube(i).granularity, b.subcube(i).granularity);
    for (RowId r = 0; r < ta.num_rows(); ++r) {
      for (size_t d = 0; d < a.subcube(i).granularity.size(); ++d) {
        EXPECT_EQ(ta.Coord(r, d), tb.Coord(r, d)) << "cube " << i;
      }
    }
  }
}

TEST_F(RecoveryTest, SubcubeModeRoundTrips) {
  auto dw = CreateExample(PaperSpec(*MakeIspExample().mo));
  ASSERT_NE(dw, nullptr);
  ASSERT_TRUE(dw->EnableSubcubes().ok());
  ASSERT_NE(dw->subcubes(), nullptr);
  size_t migrated = 0;
  ASSERT_TRUE(dw->SynchronizePass(Now2000(), &migrated).ok());
  EXPECT_GT(migrated, 0u);
  EXPECT_EQ(dw->applied_lsn(), 2u);

  // Plain-mode passes are rejected once the subcube organization is on.
  EXPECT_FALSE(dw->ReducePass(Now2000()).ok());

  // Reopen without a checkpoint: both ops replay.
  RecoveryStats stats;
  auto replayed = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(stats.ops_replayed, 2u);
  ASSERT_NE(replayed.value()->subcubes(), nullptr);
  ExpectSameSubcubes(*dw->subcubes(), *replayed.value()->subcubes());

  // Checkpoint the replayed session and reopen once more: the snapshot now
  // carries the subcube layout and nothing replays.
  ASSERT_TRUE(replayed.value()->Checkpoint().ok());
  RecoveryStats stats2;
  auto snapshotted = DurableWarehouse::Open(dir_, &stats2);
  ASSERT_TRUE(snapshotted.ok()) << snapshotted.status().ToString();
  EXPECT_EQ(stats2.ops_replayed, 0u);
  EXPECT_EQ(stats2.snapshot_lsn, 2u);
  ASSERT_NE(snapshotted.value()->subcubes(), nullptr);
  ExpectSameSubcubes(*dw->subcubes(), *snapshotted.value()->subcubes());
}

TEST_F(RecoveryTest, RecoverWarehouseIsTheOpenEntryPoint) {
  auto dw = CreateExample(ReductionSpecification{});
  ASSERT_NE(dw, nullptr);
  ASSERT_TRUE(dw->ApplyActions({{"a7", paper::kA7}}).ok());
  std::string live = StateBytes(*dw);
  dw.reset();
  RecoveryStats stats;
  auto rec = RecoverWarehouse(dir_, &stats);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(stats.ops_replayed, 1u);
  EXPECT_EQ(StateBytes(*rec.value()), live);
}

TEST_F(RecoveryTest, OpenOnMissingDirectoryFails) {
  auto missing = DurableWarehouse::Open(dir_ + "_nope");
  EXPECT_FALSE(missing.ok());
}

/// The committed intents of the journal in `dir`, in lsn order.
std::vector<IntentRecord> JournalIntents(const std::string& dir) {
  auto bytes = ReadFile(dir + "/journal.dwal");
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  if (!bytes.ok()) return {};
  auto scan = ScanJournal(bytes.value());
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  if (!scan.ok()) return {};
  std::vector<IntentRecord> out;
  for (const CommittedOp& op : scan.value().committed) out.push_back(op.intent);
  return out;
}

/// A seeded clickstream warehouse under a generated sound-chain
/// specification with deletion actions (so the digests cover deletions).
struct SeededWarehouse {
  ClickstreamWorkload w;
  ReductionSpecification spec;
  int64_t now = 0;

  SeededWarehouse() {
    ClickstreamConfig cfg;
    cfg.seed = 83;
    cfg.num_domains = 6;
    cfg.urls_per_domain = 3;
    cfg.num_clicks = 1200;
    cfg.span_days = 3 * 365;
    w = MakeClickstream(cfg);
    testing::SpecGenOptions opts;
    opts.num_actions = 3;
    opts.sound_chain = true;
    opts.deletion_prob = 0.5;
    spec = testing::GenerateSpec(*w.mo, 11, opts).take();
    now = DaysFromCivil(cfg.start) + 900;
  }
};

int64_t CounterValue(const char* name) {
  return static_cast<int64_t>(
      obs::MetricsRegistry::Global().GetCounter(name, "").Value());
}

int64_t LiveSegments(const SubcubeManager& m) {
  int64_t segments = 0;
  for (size_t i = 0; i < m.num_subcubes(); ++i) {
    segments += static_cast<int64_t>(m.subcube(i).table.num_segments());
  }
  return segments;
}

// A journaled synchronize plans once: the intent digests the plan and the
// apply executes that same value, so the pass scans every live segment
// exactly once — and so does its recovery replay, which re-plans once to
// verify the intent and applies what it verified.
TEST_F(RecoveryTest, SyncPassAndItsReplayPlanOnce) {
  SeededWarehouse sw;
  {
    auto dw = DurableWarehouse::Create(dir_, std::move(sw.w.mo),
                                       std::move(sw.spec));
    ASSERT_TRUE(dw.ok()) << dw.status().ToString();
    ASSERT_TRUE(dw.value()->EnableSubcubes().ok());
    ASSERT_TRUE(dw.value()->Checkpoint().ok());
  }
  // Reopened from the snapshot, the pre-pass segment layout is the one the
  // replay below rebuilds.
  auto live = DurableWarehouse::Open(dir_);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  const int64_t segments = LiveSegments(*live.value()->subcubes());
  ASSERT_GT(segments, 0);
  int64_t before = CounterValue("dwred_scan_segments_scanned");
  ASSERT_TRUE(live.value()->SynchronizePass(sw.now).ok());
  EXPECT_EQ(CounterValue("dwred_scan_segments_scanned") - before, segments);
  live.value().reset();

  RecoveryStats stats;
  before = CounterValue("dwred_scan_segments_scanned");
  auto replayed = DurableWarehouse::Open(dir_, &stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(stats.ops_replayed, 1u);
  EXPECT_EQ(CounterValue("dwred_scan_segments_scanned") - before, segments);
}

// Journal compatibility pin: the synchronize and reduce plan digests are the
// on-disk contract between a journal and the code that replays it (replay
// re-plans and must reproduce each intent exactly). The constants were
// recorded by the interpreted planners these digests originally came from; a
// planner change that moves them would orphan every existing journal.
TEST_F(RecoveryTest, PlanDigestsArePinned) {
  {
    SeededWarehouse sw;
    auto dw = DurableWarehouse::Create(dir_ + "/sync", std::move(sw.w.mo),
                                       std::move(sw.spec));
    ASSERT_TRUE(dw.ok()) << dw.status().ToString();
    ASSERT_TRUE(dw.value()->EnableSubcubes().ok());
    ASSERT_TRUE(dw.value()->SynchronizePass(sw.now).ok());
    std::vector<IntentRecord> intents = JournalIntents(dir_ + "/sync");
    ASSERT_EQ(intents.size(), 2u);
    const IntentRecord& sync = intents[1];
    ASSERT_EQ(sync.op.kind, JournalOpKind::kSynchronize);
    EXPECT_EQ(sync.affected_count, 43u);
    EXPECT_EQ(sync.affected_digest, 17665075987746037389ull);
  }
  {
    SeededWarehouse sw;
    auto dw = DurableWarehouse::Create(dir_ + "/reduce", std::move(sw.w.mo),
                                       std::move(sw.spec));
    ASSERT_TRUE(dw.ok()) << dw.status().ToString();
    ASSERT_TRUE(dw.value()->ReducePass(sw.now).ok());
    std::vector<IntentRecord> intents = JournalIntents(dir_ + "/reduce");
    ASSERT_EQ(intents.size(), 1u);
    const IntentRecord& reduce = intents[0];
    ASSERT_EQ(reduce.op.kind, JournalOpKind::kReduce);
    EXPECT_EQ(reduce.affected_count, 43u);
    EXPECT_EQ(reduce.affected_digest, 8044351362873809680ull);
  }
}

// --- Insert redo --------------------------------------------------------

/// A bottom-granularity row of the running example: `day` (a civil date),
/// `url` (a URL value id, or the dimension's ⊤) and four measures.
void AddClick(MultidimensionalObject* batch, CivilDate day, ValueId url,
              int64_t m) {
  Dimension& time = *batch->dimension(0);
  const ValueId t = time.EnsureTimeValue(DayGranule(day)).take();
  const ValueId cell[] = {t, url};
  const int64_t meas[] = {m, 10 * m, 100 * m, 1000 * m};
  ASSERT_TRUE(batch->AddBottomFact(cell, meas).ok());
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

// Replay interns a batch's new days in the order the live insert saw them.
// The batch is built over the warehouse's own dimensions, as a CSV load
// builds it, so the live ids follow the rows: new days out of order and
// repeated, plus a ⊤ coordinate. Recovery from the pre-insert snapshot must
// assign the same ids — equal CRCs and byte-identical checkpoints.
TEST_F(RecoveryTest, ReplayInternsNewDaysInRowOrder) {
  auto dw = CreateExample(PaperSpec(*MakeIspExample().mo));
  ASSERT_NE(dw, nullptr);
  ASSERT_TRUE(dw->EnableSubcubes().ok());
  ASSERT_TRUE(dw->Checkpoint().ok());

  const IspExample ex = MakeIspExample();
  const MultidimensionalObject& mo = dw->mo();
  MultidimensionalObject batch(mo.fact_type(), mo.dimensions(),
                               mo.measure_types());
  const ValueId url_top = mo.dimension(1)->top_value();
  AddClick(&batch, {2001, 3, 5}, ex.url_cnn, 1);
  AddClick(&batch, {2001, 1, 2}, ex.url_gatech, 2);
  AddClick(&batch, {2001, 3, 5}, ex.url_amazon, 3);
  AddClick(&batch, {2001, 2, 9}, url_top, 4);
  AddClick(&batch, {2001, 1, 2}, ex.url_health, 5);
  AddClick(&batch, {2000, 12, 30}, ex.url_cnn, 6);
  ASSERT_TRUE(dw->InsertFacts(batch).ok());

  const std::string copy = dir_ + "_replay";
  std::filesystem::remove_all(copy);
  std::filesystem::copy(dir_, copy);
  const uint32_t live_crc = net::WarehouseCrc(*dw->subcubes());
  ASSERT_TRUE(dw->Checkpoint().ok());
  auto live = ReadFile(dir_ + "/snapshot.dwsnap");

  RecoveryStats stats;
  auto back = DurableWarehouse::Open(copy, &stats);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(stats.ops_replayed, 1u);
  EXPECT_EQ(net::WarehouseCrc(*back.value()->subcubes()), live_crc);
  ASSERT_TRUE(back.value()->Checkpoint().ok());
  auto replayed = ReadFile(copy + "/snapshot.dwsnap");
  std::filesystem::remove_all(copy);
  ASSERT_TRUE(live.ok() && replayed.ok());
  EXPECT_TRUE(live.value() == replayed.value())
      << "replay interned the batch's days in another order";
}

// A batch with a coordinate above bottom is refused when the insert plans,
// before its intent: the journal keeps its size, the warehouse's dimensions
// gain no value, the session is not poisoned, and the next insert commits.
TEST_F(RecoveryTest, RefusedInsertNeverReachesTheJournal) {
  for (bool subcubes : {false, true}) {
    SCOPED_TRACE(subcubes ? "subcube organization" : "plain organization");
    auto dw = CreateExample(PaperSpec(*MakeIspExample().mo));
    ASSERT_NE(dw, nullptr);
    if (subcubes) ASSERT_TRUE(dw->EnableSubcubes().ok());
    const uint64_t lsn = dw->applied_lsn();
    const uint64_t journal = FileSize(dir_ + "/journal.dwal");
    const size_t time_values = dw->mo().dimension(0)->num_values();

    // A batch over its own dimensions: a new day, then a new month.
    IspExample ex = MakeIspExample();
    MultidimensionalObject bad(ex.mo->fact_type(), ex.mo->dimensions(),
                               ex.mo->measure_types());
    AddClick(&bad, {2003, 4, 1}, ex.url_cnn, 1);
    Dimension& time = *bad.dimension(0);
    const ValueId month = time.EnsureTimeValue(MonthGranule(2003, 5)).take();
    const ValueId cell[] = {month, ex.url_cnn};
    const int64_t meas[] = {1, 2, 3, 4};
    ASSERT_TRUE(bad.AddFact(cell, meas).ok());

    EXPECT_EQ(dw->InsertFacts(bad).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(FileSize(dir_ + "/journal.dwal"), journal);
    EXPECT_EQ(dw->mo().dimension(0)->num_values(), time_values);
    EXPECT_FALSE(dw->poisoned());
    EXPECT_EQ(dw->applied_lsn(), lsn);

    IspExample good = MakeIspExample();
    ASSERT_TRUE(dw->InsertFacts(*good.mo).ok());
    EXPECT_EQ(dw->applied_lsn(), lsn + 1);
    dw.reset();
    std::filesystem::remove_all(dir_);
  }
}

// Journal compatibility pin for inserts: the intent's affected count and
// digest (FNV-1a over the kInsertFacts payload bytes) for a seeded batch.
// A change to the payload's layout moves them.
TEST_F(RecoveryTest, InsertIntentIsPinned) {
  SeededWarehouse sw;
  ClickstreamConfig cfg;
  cfg.seed = 84;
  cfg.num_domains = 6;
  cfg.urls_per_domain = 3;
  cfg.num_clicks = 10;
  ClickstreamWorkload src = MakeClickstream(cfg);
  const int64_t first = DaysFromCivil({2002, 1, 1});
  MultidimensionalObject batch =
      MakeClickBatch(src.time_dim, src.url_dim, first, first + 6, 300, 85);
  auto dw = DurableWarehouse::Create(dir_, std::move(sw.w.mo),
                                     std::move(sw.spec));
  ASSERT_TRUE(dw.ok()) << dw.status().ToString();
  ASSERT_TRUE(dw.value()->EnableSubcubes().ok());
  ASSERT_TRUE(dw.value()->InsertFacts(batch).ok());
  std::vector<IntentRecord> intents = JournalIntents(dir_);
  ASSERT_EQ(intents.size(), 2u);
  const IntentRecord& insert = intents[1];
  ASSERT_EQ(insert.op.kind, JournalOpKind::kInsertFacts);
  EXPECT_EQ(insert.op.aux.size(), 12594u);
  EXPECT_EQ(insert.affected_count, 300u);
  EXPECT_EQ(insert.affected_digest, 16112972793957456497ull);
}

/// The kInsertRows payload earlier builds wrote, kept as the reference the
/// dictionary form must resolve alike with.
std::string RowFormPayload(const MultidimensionalObject& batch) {
  std::string aux;
  wire::PutU32(&aux, static_cast<uint32_t>(batch.num_facts()));
  wire::PutU32(&aux, static_cast<uint32_t>(batch.num_dimensions()));
  wire::PutU32(&aux, static_cast<uint32_t>(batch.num_measures()));
  for (FactId f = 0; f < batch.num_facts(); ++f) {
    for (DimensionId d = 0; d < batch.num_dimensions(); ++d) {
      const Dimension& dim = *batch.dimension(d);
      const ValueId v = batch.Coord(f, d);
      if (v == dim.top_value()) {
        wire::PutU8(&aux, 2);
      } else if (dim.is_time()) {
        wire::PutU8(&aux, 1);
        wire::PutU8(&aux, static_cast<uint8_t>(dim.granule(v).unit));
        wire::PutI64(&aux, dim.granule(v).index);
      } else {
        wire::PutU8(&aux, 0);
        wire::PutU32(&aux, dim.value_category(v));
        wire::PutStr(&aux, dim.value_name(v));
      }
    }
    for (MeasureId m = 0; m < batch.num_measures(); ++m) {
      wire::PutI64(&aux, batch.Measure(f, m));
    }
  }
  return aux;
}

/// A batch of the running example with new days out of order and a ⊤.
MultidimensionalObject ExampleBatch(const IspExample& ex) {
  MultidimensionalObject batch(ex.mo->fact_type(), ex.mo->dimensions(),
                               ex.mo->measure_types());
  AddClick(&batch, {2001, 3, 5}, ex.url_cnn, 1);
  AddClick(&batch, {2001, 1, 2}, ex.url_gatech, 2);
  AddClick(&batch, {2001, 3, 5}, ex.mo->dimension(1)->top_value(), 3);
  AddClick(&batch, {2001, 2, 9}, ex.url_amazon, 4);
  return batch;
}

// Both insert kinds decode to the same resolved batch — the same cells,
// measures and newly interned values — into fresh copies of the warehouse.
TEST(InsertRedoTest, RowFormAndDictionaryFormResolveAlike) {
  const IspExample src = MakeIspExample();
  const MultidimensionalObject batch = ExampleBatch(src);
  auto dict = EncodeInsertRedo(batch);
  ASSERT_TRUE(dict.ok()) << dict.status().ToString();
  const std::string rows = RowFormPayload(batch);

  const IspExample a = MakeIspExample();
  const IspExample b = MakeIspExample();
  auto from_dict = DecodeInsertRedo(JournalOpKind::kInsertFacts, dict.value(),
                                    a.mo->dimensions(), 4);
  auto from_rows = DecodeInsertRedo(JournalOpKind::kInsertRows, rows,
                                    b.mo->dimensions(), 4);
  ASSERT_TRUE(from_dict.ok()) << from_dict.status().ToString();
  ASSERT_TRUE(from_rows.ok()) << from_rows.status().ToString();
  EXPECT_EQ(from_dict.value().rows, 4u);
  EXPECT_EQ(from_dict.value().cells, from_rows.value().cells);
  EXPECT_EQ(from_dict.value().measures, from_rows.value().measures);
  EXPECT_EQ(SaveWarehouse(*a.mo, {}), SaveWarehouse(*b.mo, {}));
}

// A payload cut at any byte, or naming a dictionary index out of range, is
// a ParseError that interns nothing — never a crash or a read past the end.
TEST(InsertRedoTest, MalformedPayloadsAreParseErrors) {
  const IspExample src = MakeIspExample();
  const MultidimensionalObject batch = ExampleBatch(src);
  const std::string aux = EncodeInsertRedo(batch).take();
  const IspExample target = MakeIspExample();
  const size_t values = target.mo->dimension(0)->num_values();
  for (size_t cut = 0; cut < aux.size(); ++cut) {
    auto r = DecodeInsertRedo(JournalOpKind::kInsertFacts, aux.substr(0, cut),
                              target.mo->dimensions(), 4);
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << "cut at " << cut;
  }
  EXPECT_EQ(DecodeInsertRedo(JournalOpKind::kInsertFacts, aux + "x",
                             target.mo->dimensions(), 4)
                .status()
                .code(),
            StatusCode::kParseError);

  // The index columns follow the dictionaries; the first is the time
  // dimension's, whose dictionary has 3 entries.
  const size_t index_at = aux.size() - 4 * (2 * 4) - 8 * (4 * 4);
  for (uint32_t bad : {3u, 4u, 0xffffffffu}) {
    std::string broken = aux;
    std::memcpy(broken.data() + index_at + 4, &bad, 4);
    auto r = DecodeInsertRedo(JournalOpKind::kInsertFacts, broken,
                              target.mo->dimensions(), 4);
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << bad;
  }
  EXPECT_EQ(target.mo->dimension(0)->num_values(), values);

  const std::string rows = RowFormPayload(batch);
  for (size_t cut = 0; cut < rows.size(); ++cut) {
    auto r = DecodeInsertRedo(JournalOpKind::kInsertRows, rows.substr(0, cut),
                              target.mo->dimensions(), 4);
    ASSERT_FALSE(r.ok()) << "row form cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << cut;
  }
}

// One journaled insert is one rooted span tree: io.durable with its plan,
// intent, apply and commit layers inside it, and each journal fsync inside
// the intent or the commit.
TEST_F(RecoveryTest, DurableInsertIsOneRootedSpanTree) {
  auto dw = CreateExample(PaperSpec(*MakeIspExample().mo));
  ASSERT_NE(dw, nullptr);
  ASSERT_TRUE(dw->EnableSubcubes().ok());
  IspExample batch = MakeIspExample();
  obs::TraceBuffer::Global().Enable(256);
  Status inserted = dw->InsertFacts(*batch.mo);
  std::vector<obs::TraceEvent> events = obs::TraceBuffer::Global().Snapshot();
  obs::TraceBuffer::Global().Disable();
  ASSERT_TRUE(inserted.ok()) << inserted.ToString();

  const obs::TraceEvent* root = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "io.durable") {
      ASSERT_EQ(root, nullptr) << "two roots";
      root = &e;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  // A span's start_us is its close time minus its truncated duration, so
  // either edge may be off by a microsecond.
  auto inside = [](const obs::TraceEvent& child, const obs::TraceEvent& p) {
    constexpr int64_t kSlackUs = 2;
    return child.start_us + kSlackUs >= p.start_us &&
           child.start_us + child.duration_us <=
               p.start_us + p.duration_us + kSlackUs;
  };
  std::map<std::string, const obs::TraceEvent*> layers;
  for (const obs::TraceEvent& e : events) {
    if (e.parent_id == root->span_id) layers[e.name] = &e;
  }
  for (const char* name : {"io.durable.plan", "io.durable.intent",
                           "io.durable.apply", "io.durable.commit"}) {
    ASSERT_EQ(layers.count(name), 1u) << name;
    EXPECT_EQ(layers[name]->trace_id, root->trace_id) << name;
    EXPECT_TRUE(inside(*layers[name], *root)) << name;
  }
  int fsyncs = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.name != "io.fsync") continue;
    ++fsyncs;
    const bool under_intent = e.parent_id == layers["io.durable.intent"]->span_id;
    const bool under_commit = e.parent_id == layers["io.durable.commit"]->span_id;
    EXPECT_TRUE(under_intent || under_commit);
    EXPECT_TRUE(inside(e, *(under_intent ? layers["io.durable.intent"]
                                         : layers["io.durable.commit"])));
  }
  EXPECT_EQ(fsyncs, 2);
}

// Recovery restores each saved cube in one call: at most one epoch bump per
// cube, not one per row, and the recovery spans name its three phases.
TEST_F(RecoveryTest, RecoveryRestoresEachCubeOnce) {
  auto dw = CreateExample(PaperSpec(*MakeIspExample().mo));
  ASSERT_NE(dw, nullptr);
  ASSERT_TRUE(dw->EnableSubcubes().ok());
  ASSERT_TRUE(dw->SynchronizePass(Now2000()).ok());
  ASSERT_TRUE(dw->Checkpoint().ok());
  const size_t cubes = dw->subcubes()->num_subcubes();
  size_t rows = 0;
  for (size_t i = 0; i < cubes; ++i) {
    rows += dw->subcubes()->subcube(i).table.num_rows();
  }
  ASSERT_GT(rows, cubes);
  dw.reset();

  obs::TraceBuffer::Global().Enable(64);
  auto back = DurableWarehouse::Open(dir_);
  std::vector<obs::TraceEvent> events = obs::TraceBuffer::Global().Snapshot();
  obs::TraceBuffer::Global().Disable();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LE(back.value()->subcubes()->epoch(), cubes);
  uint64_t root = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "io.recover") root = e.span_id;
  }
  ASSERT_NE(root, 0u);
  std::set<std::string> phases;
  for (const obs::TraceEvent& e : events) {
    if (e.parent_id == root) phases.insert(e.name);
  }
  EXPECT_EQ(phases, (std::set<std::string>{"io.recover.load",
                                           "io.recover.restore",
                                           "io.recover.replay"}));
}

}  // namespace
}  // namespace dwred
