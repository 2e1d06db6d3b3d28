#pragma once

// Write-ahead intent journal for the durability layer (docs/DURABILITY.md).
//
// Reduction physically and irreversibly deletes detail facts (Definition 2,
// Section 8) and subcube synchronization migrates rows between physical
// cubes (Section 7.2); a crash in the middle of either pass must not lose or
// double-count facts. Following ARIES-style write-ahead logging, every
// mutating pass is split into a two-phase plan/apply protocol:
//
//   1. append an *intent* record — the operation (kind, NOW value, redo
//      payload), the pre-image row counts, and a digest of the affected cell
//      keys — and fsync;
//   2. apply the mutation in memory;
//   3. append a *commit* record (the post-image row count) and fsync.
//
// On-disk format: a sequence of length-prefixed, CRC32-checksummed records
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// with no file header, so a torn tail (truncated or checksum-failing final
// record, the normal residue of a crash mid-append) is recognized and
// discarded by the scanner. Records after a corrupt record are unreachable
// by design — the journal is append-only and replayed strictly in order.
//
// Recovery (io/recovery.h) replays *committed* operations newer than the
// last good snapshot and rolls back (ignores) intents without a matching
// commit.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dwred {

/// Journaled operation kinds. The redo payload (`aux`) makes each operation
/// deterministic to re-apply against the pre-state:
/// insert carries the batch (io/insert_redo.h), set-spec the action texts;
/// reduce / enable-subcubes / synchronize are pure functions of
/// (state, now_day). Writers emit kInsertFacts for inserts; kInsertRows is
/// read only, so journals written before it was replaced still recover.
enum class JournalOpKind : uint8_t {
  kInsertRows = 1,      ///< bulk fact insert, one tagged value per coordinate
  kReduce = 2,          ///< Definition 2 reduction pass at now_day
  kEnableSubcubes = 3,  ///< switch to the Section 7 subcube organization
  kSynchronize = 4,     ///< Section 7.2 synchronization pass at now_day
  kSetSpec = 5,         ///< replace the specification (aux: action texts)
  kInsertFacts = 6,     ///< bulk fact insert, per-dimension dictionaries
};

/// One journaled operation: what to re-apply during recovery.
struct JournalOp {
  JournalOpKind kind = JournalOpKind::kInsertFacts;
  int64_t now_day = 0;  ///< NOW for reduce/synchronize; 0 otherwise
  std::string aux;      ///< op-specific redo payload
};

/// The plan half of the two-phase protocol.
struct IntentRecord {
  uint64_t lsn = 0;  ///< 1-based sequence number of the operation
  JournalOp op;
  uint64_t pre_rows = 0;  ///< total logical rows before the operation
  /// Pre-image row count per physical table (one entry for a plain
  /// warehouse; one per subcube in subcube mode). Replay verifies these.
  std::vector<uint64_t> pre_counts;
  uint64_t affected_count = 0;   ///< cells the plan pass says will change
  uint64_t affected_digest = 0;  ///< FNV-1a digest of the affected cell keys
};

/// The commit half: present iff the apply completed.
struct CommitRecord {
  uint64_t lsn = 0;
  uint64_t post_rows = 0;  ///< total logical rows after the operation
};

/// One decoded record.
struct JournalRecord {
  enum class Type : uint8_t { kIntent = 1, kCommit = 2 };
  Type type = Type::kIntent;
  IntentRecord intent;  ///< valid when type == kIntent
  CommitRecord commit;  ///< valid when type == kCommit
};

/// An intent paired with its commit.
struct CommittedOp {
  IntentRecord intent;
  CommitRecord commit;
};

/// Result of scanning a journal file.
struct JournalScan {
  std::vector<CommittedOp> committed;  ///< in append (= lsn) order
  bool has_pending_intent = false;     ///< trailing intent without a commit
  IntentRecord pending_intent;
  size_t superseded_intents = 0;  ///< intents replaced by a later intent
  size_t records = 0;             ///< well-formed records decoded
  size_t torn_bytes = 0;          ///< bytes discarded at the torn tail
  /// Offset just past the last commit record: everything after it is a
  /// rolled-back intent or the torn tail.
  size_t committed_bytes = 0;
};

/// Frames a record: [len][crc][payload].
std::string EncodeJournalRecord(const JournalRecord& rec);

/// Decodes a whole journal image, tolerating a torn tail. Fails only on
/// structural impossibilities inside well-formed records (e.g. an unknown
/// record type with a valid checksum — a version skew, not a torn write).
Result<JournalScan> ScanJournal(std::string_view bytes);

/// An open, append-only journal file with explicit fsync barriers.
/// Fault sites: "journal.intent.write", "journal.intent.fsync",
/// "journal.commit.write", "journal.commit.fsync", "journal.reset".
class Journal {
 public:
  Journal() = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  ~Journal();

  /// Opens (creating if absent) the journal for appending.
  static Result<Journal> Open(const std::string& path);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Appends + fsyncs an intent record. A failure past the write fault
  /// site leaves tail_in_doubt() set.
  Status AppendIntent(const IntentRecord& rec);

  /// Appends + fsyncs a commit record, like AppendIntent.
  Status AppendCommit(const CommitRecord& rec);

  /// True once an append failed after it began writing — a partial write
  /// or a failed fsync. The file may then end in a record that is partial
  /// or never reaches the disk, and every later append would sit behind it,
  /// out of a scan's reach after a crash. Truncate and Reset clear it. A
  /// failure at the write fault site itself, before any byte is written,
  /// does not set it.
  bool tail_in_doubt() const { return tail_in_doubt_; }

  /// Truncates the journal to its first `size` bytes and fsyncs. Recovery
  /// cuts what follows the last commit, so the first append after it does
  /// not land behind a torn tail.
  Status Truncate(uint64_t size);

  /// Truncates the journal to empty (after a successful snapshot
  /// checkpoint) and fsyncs.
  Status Reset();

  void Close();

 private:
  Status Append(const std::string& framed, const char* write_site,
                const char* fsync_site);

  std::string path_;
  int fd_ = -1;
  bool tail_in_doubt_ = false;
};

}  // namespace dwred
