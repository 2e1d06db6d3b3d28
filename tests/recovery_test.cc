// Durable-warehouse recovery tests: create/open round trips, journal replay
// without a checkpoint, checkpoint idempotence, rollback of uncommitted
// intents (including an already-applied op whose commit never made it), the
// poison latch after mid-protocol IO failures, the torn-tail cut on open, a
// committed directory from an earlier build, and the subcube organization.

#include "io/recovery.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chrono/civil.h"
#include "io/snapshot.h"
#include "mdm/paper_example.h"
#include "paper_actions.h"
#include "io/csv.h"
#include "io/journal.h"
#include "obs/metrics.h"
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

}  // namespace
}  // namespace dwred
