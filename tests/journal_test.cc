// Write-ahead journal tests: record framing round trips, torn-tail
// tolerance, checksum rejection, intent/commit pairing, supersession, fault
// injection at the append/fsync boundaries, and a real fsync failure that is
// never retried.

#include "io/journal.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "io/csv.h"
#include "obs/metrics.h"
#include "testing/fault.h"

namespace dwred {
namespace {

IntentRecord MakeIntent(uint64_t lsn, JournalOpKind kind) {
  IntentRecord in;
  in.lsn = lsn;
  in.op.kind = kind;
  in.op.now_day = 11111 + static_cast<int64_t>(lsn);
  in.op.aux = "aux-" + std::to_string(lsn);
  in.pre_rows = 100 + lsn;
  in.pre_counts = {40 + lsn, 60};
  in.affected_count = 7;
  in.affected_digest = 0xdeadbeefcafef00dull ^ lsn;
  return in;
}

std::string Committed(uint64_t lsn, JournalOpKind kind) {
  JournalRecord intent;
  intent.type = JournalRecord::Type::kIntent;
  intent.intent = MakeIntent(lsn, kind);
  JournalRecord commit;
  commit.type = JournalRecord::Type::kCommit;
  commit.commit.lsn = lsn;
  commit.commit.post_rows = 90 + lsn;
  return EncodeJournalRecord(intent) + EncodeJournalRecord(commit);
}

TEST(JournalTest, RecordRoundTrip) {
  std::string bytes =
      Committed(1, JournalOpKind::kInsertFacts) + Committed(2, JournalOpKind::kReduce);
  auto scan = ScanJournal(bytes);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  const JournalScan& s = scan.value();
  EXPECT_EQ(s.records, 4u);
  EXPECT_EQ(s.torn_bytes, 0u);
  EXPECT_FALSE(s.has_pending_intent);
  ASSERT_EQ(s.committed.size(), 2u);
  const IntentRecord& in = s.committed[0].intent;
  EXPECT_EQ(in.lsn, 1u);
  EXPECT_EQ(in.op.kind, JournalOpKind::kInsertFacts);
  EXPECT_EQ(in.op.now_day, 11112);
  EXPECT_EQ(in.op.aux, "aux-1");
  EXPECT_EQ(in.pre_rows, 101u);
  EXPECT_EQ(in.pre_counts, (std::vector<uint64_t>{41, 60}));
  EXPECT_EQ(in.affected_count, 7u);
  EXPECT_EQ(in.affected_digest, 0xdeadbeefcafef00dull ^ 1u);
  EXPECT_EQ(s.committed[0].commit.post_rows, 91u);
  EXPECT_EQ(s.committed[1].intent.op.kind, JournalOpKind::kReduce);
}

TEST(JournalTest, EmptyJournalScansClean) {
  auto scan = ScanJournal("");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().records, 0u);
  EXPECT_TRUE(scan.value().committed.empty());
  EXPECT_FALSE(scan.value().has_pending_intent);
}

TEST(JournalTest, TornTailIsDiscardedAtEveryCut) {
  std::string good = Committed(1, JournalOpKind::kReduce);
  std::string bytes = good;
  JournalRecord intent;
  intent.type = JournalRecord::Type::kIntent;
  intent.intent = MakeIntent(2, JournalOpKind::kSynchronize);
  bytes += EncodeJournalRecord(intent);
  // Cut the trailing intent record anywhere — including inside its length
  // prefix — and the committed prefix must survive with torn bytes counted.
  for (size_t cut = good.size(); cut < bytes.size(); ++cut) {
    auto scan = ScanJournal(std::string_view(bytes).substr(0, cut));
    ASSERT_TRUE(scan.ok()) << "cut at " << cut << ": " << scan.status().ToString();
    EXPECT_EQ(scan.value().committed.size(), 1u) << cut;
    EXPECT_FALSE(scan.value().has_pending_intent) << cut;
    EXPECT_EQ(scan.value().torn_bytes, cut - good.size()) << cut;
  }
  // Uncut, the trailing intent is pending.
  auto scan = ScanJournal(bytes);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().has_pending_intent);
  EXPECT_EQ(scan.value().pending_intent.lsn, 2u);
}

TEST(JournalTest, ChecksumFailureStopsTheScan) {
  std::string bytes = Committed(1, JournalOpKind::kInsertFacts) +
                      Committed(2, JournalOpKind::kReduce);
  // Flip one payload bit in the second pair; the scanner treats the corrupt
  // record as the torn tail and keeps only the intact prefix.
  std::string corrupt = bytes;
  size_t pos = Committed(1, JournalOpKind::kInsertFacts).size() + 10;
  corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
  auto scan = ScanJournal(corrupt);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan.value().committed.size(), 1u);
  EXPECT_GT(scan.value().torn_bytes, 0u);
}

TEST(JournalTest, SupersededIntentIsCounted) {
  // intent(1) with no commit, then intent(2)+commit(2): the dead intent is
  // rolled over, not treated as pending.
  JournalRecord stale;
  stale.type = JournalRecord::Type::kIntent;
  stale.intent = MakeIntent(1, JournalOpKind::kReduce);
  std::string bytes =
      EncodeJournalRecord(stale) + Committed(2, JournalOpKind::kReduce);
  auto scan = ScanJournal(bytes);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan.value().superseded_intents, 1u);
  EXPECT_FALSE(scan.value().has_pending_intent);
  ASSERT_EQ(scan.value().committed.size(), 1u);
  EXPECT_EQ(scan.value().committed[0].intent.lsn, 2u);
}

TEST(JournalTest, CommitWithoutIntentIsStructurallyInvalid) {
  JournalRecord commit;
  commit.type = JournalRecord::Type::kCommit;
  commit.commit.lsn = 5;
  commit.commit.post_rows = 1;
  auto scan = ScanJournal(EncodeJournalRecord(commit));
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kParseError);
}

class JournalFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dwred_journal_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "journal.dwal").string();
  }
  void TearDown() override {
    testing::FaultInjector::Global().Disarm();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(JournalFileTest, AppendScanResetCycle) {
  auto j = Journal::Open(path_);
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  Journal journal = std::move(j.value());
  IntentRecord in = MakeIntent(1, JournalOpKind::kInsertFacts);
  ASSERT_TRUE(journal.AppendIntent(in).ok());
  CommitRecord c;
  c.lsn = 1;
  c.post_rows = 101;
  ASSERT_TRUE(journal.AppendCommit(c).ok());

  auto bytes = ReadFile(path_);
  ASSERT_TRUE(bytes.ok());
  auto scan = ScanJournal(bytes.value());
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.value().committed.size(), 1u);
  EXPECT_EQ(scan.value().committed[0].commit.post_rows, 101u);

  ASSERT_TRUE(journal.Reset().ok());
  bytes = ReadFile(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(bytes.value().empty());
}

TEST_F(JournalFileTest, ErrorModeFaultSurfacesAsStatus) {
  auto j = Journal::Open(path_);
  ASSERT_TRUE(j.ok());
  Journal journal = std::move(j.value());
  testing::FaultInjector::Global().Arm("journal.intent.fsync", 1,
                                       testing::FaultMode::kError);
  IntentRecord in = MakeIntent(1, JournalOpKind::kReduce);
  Status s = journal.AppendIntent(in);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_TRUE(testing::FaultInjector::Global().fired());
  // The record's bytes were written before the fsync failed.
  EXPECT_TRUE(journal.tail_in_doubt());
  testing::FaultInjector::Global().Disarm();
  // The journal object is still usable at the file level; a fresh append
  // after the failed one leaves a scannable file (the recovery layer is what
  // decides to poison, not the journal).
  ASSERT_TRUE(journal.AppendIntent(MakeIntent(2, JournalOpKind::kReduce)).ok());
  auto bytes = ReadFile(path_);
  ASSERT_TRUE(bytes.ok());
  auto scan = ScanJournal(bytes.value());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan.value().has_pending_intent);
}

// A failed fsync is never retried: after one, the kernel may already have
// marked the dirty pages clean, so a second fsync can return 0 for data that
// never reached the disk. /dev/null takes the write and fails fsync with
// EINVAL, so the intent must fail after exactly one fsync.
TEST(JournalTest, FailedFsyncIsNotRetried) {
  auto j = Journal::Open("/dev/null");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  Journal journal = std::move(j.value());
  const obs::Histogram& fsyncs = obs::MetricsRegistry::Global().GetHistogram(
      "dwred_io_fsync_seconds", obs::DefaultLatencyBuckets());
  const uint64_t before = fsyncs.Count();
  Status s = journal.AppendIntent(MakeIntent(1, JournalOpKind::kInsertFacts));
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  EXPECT_EQ(fsyncs.Count(), before + 1);
}

}  // namespace
}  // namespace dwred
