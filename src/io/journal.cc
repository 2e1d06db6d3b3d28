#include "io/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "io/atomic_file.h"
#include "io/wire.h"
#include "obs/metrics.h"
#include "testing/fault.h"

namespace dwred {

namespace {

using wire::PutI64;
using wire::PutStr;
using wire::PutU32;
using wire::PutU64;
using wire::PutU8;

/// A single journal record may not exceed this (a valid-checksum record
/// claiming more is version skew or a bug, not a torn write).
constexpr uint32_t kMaxRecordBytes = 1u << 30;

/// A record's frame: [u32 payload_len][u32 crc32(payload)], then the
/// payload written by `put`.
template <typename Put>
std::string Frame(size_t payload_bytes, Put&& put) {
  std::string framed;
  framed.reserve(8 + payload_bytes);
  framed.resize(8);
  put(&framed);
  const std::string_view payload = std::string_view(framed).substr(8);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload);
  std::memcpy(framed.data(), &len, 4);
  std::memcpy(framed.data() + 4, &crc, 4);
  return framed;
}

void PutIntent(std::string* p, const IntentRecord& in) {
  PutU8(p, static_cast<uint8_t>(JournalRecord::Type::kIntent));
  PutU64(p, in.lsn);
  PutU8(p, static_cast<uint8_t>(in.op.kind));
  PutI64(p, in.op.now_day);
  PutU64(p, in.pre_rows);
  PutU32(p, static_cast<uint32_t>(in.pre_counts.size()));
  for (uint64_t c : in.pre_counts) PutU64(p, c);
  PutU64(p, in.affected_count);
  PutU64(p, in.affected_digest);
  PutStr(p, in.op.aux);
}

void PutCommit(std::string* p, const CommitRecord& commit) {
  PutU8(p, static_cast<uint8_t>(JournalRecord::Type::kCommit));
  PutU64(p, commit.lsn);
  PutU64(p, commit.post_rows);
}

std::string FrameIntent(const IntentRecord& in) {
  return Frame(64 + 8 * in.pre_counts.size() + in.op.aux.size(),
               [&](std::string* p) { PutIntent(p, in); });
}

std::string FrameCommit(const CommitRecord& commit) {
  return Frame(17, [&](std::string* p) { PutCommit(p, commit); });
}

Result<JournalRecord> DecodePayload(std::string_view payload) {
  wire::Cursor c(payload, "journal");
  uint8_t type;
  DWRED_RETURN_IF_ERROR(c.U8(&type));
  JournalRecord rec;
  if (type == static_cast<uint8_t>(JournalRecord::Type::kIntent)) {
    rec.type = JournalRecord::Type::kIntent;
    IntentRecord& in = rec.intent;
    DWRED_RETURN_IF_ERROR(c.U64(&in.lsn));
    uint8_t kind;
    DWRED_RETURN_IF_ERROR(c.U8(&kind));
    if (kind < static_cast<uint8_t>(JournalOpKind::kInsertRows) ||
        kind > static_cast<uint8_t>(JournalOpKind::kInsertFacts)) {
      return Status::ParseError("journal: unknown operation kind " +
                                std::to_string(kind));
    }
    in.op.kind = static_cast<JournalOpKind>(kind);
    DWRED_RETURN_IF_ERROR(c.I64(&in.op.now_day));
    DWRED_RETURN_IF_ERROR(c.U64(&in.pre_rows));
    uint32_t n;
    DWRED_RETURN_IF_ERROR(c.U32(&n));
    if (n > c.remaining() / 8) {
      return Status::ParseError("journal: pre-count list exceeds record");
    }
    in.pre_counts.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      DWRED_RETURN_IF_ERROR(c.U64(&in.pre_counts[i]));
    }
    DWRED_RETURN_IF_ERROR(c.U64(&in.affected_count));
    DWRED_RETURN_IF_ERROR(c.U64(&in.affected_digest));
    DWRED_RETURN_IF_ERROR(c.Str(&in.op.aux));
  } else if (type == static_cast<uint8_t>(JournalRecord::Type::kCommit)) {
    rec.type = JournalRecord::Type::kCommit;
    DWRED_RETURN_IF_ERROR(c.U64(&rec.commit.lsn));
    DWRED_RETURN_IF_ERROR(c.U64(&rec.commit.post_rows));
  } else {
    return Status::ParseError("journal: unknown record type " +
                              std::to_string(type));
  }
  if (!c.AtEnd()) {
    return Status::ParseError("journal: trailing bytes inside record");
  }
  return rec;
}

obs::Counter& RecordsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dwred_journal_records_appended",
      "intent + commit records appended to the write-ahead journal");
  return c;
}

obs::Counter& BytesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "dwred_journal_bytes_appended",
      "bytes appended to the write-ahead journal (framing included)");
  return c;
}

}  // namespace

std::string EncodeJournalRecord(const JournalRecord& rec) {
  return rec.type == JournalRecord::Type::kIntent ? FrameIntent(rec.intent)
                                                  : FrameCommit(rec.commit);
}

Result<JournalScan> ScanJournal(std::string_view bytes) {
  JournalScan scan;
  size_t pos = 0;
  while (pos < bytes.size()) {
    // Frame header. Anything that smells like a torn write ends the scan;
    // the bytes from here on are the discarded tail.
    if (bytes.size() - pos < 8) break;
    uint32_t len, crc;
    std::memcpy(&len, bytes.data() + pos, 4);
    std::memcpy(&crc, bytes.data() + pos + 4, 4);
    if (len > kMaxRecordBytes || len > bytes.size() - pos - 8) break;
    std::string_view payload = bytes.substr(pos + 8, len);
    if (Crc32(payload) != crc) break;

    DWRED_ASSIGN_OR_RETURN(JournalRecord rec, DecodePayload(payload));
    ++scan.records;
    if (rec.type == JournalRecord::Type::kIntent) {
      // A new intent supersedes any pending one: the prior intent never
      // committed and was rolled back by recovery before this append.
      if (scan.has_pending_intent) ++scan.superseded_intents;
      scan.has_pending_intent = true;
      scan.pending_intent = std::move(rec.intent);
    } else {
      if (!scan.has_pending_intent ||
          scan.pending_intent.lsn != rec.commit.lsn) {
        return Status::ParseError(
            "journal: commit record " + std::to_string(rec.commit.lsn) +
            " has no matching intent");
      }
      scan.committed.push_back(
          CommittedOp{std::move(scan.pending_intent), rec.commit});
      scan.has_pending_intent = false;
      scan.committed_bytes = pos + 8 + len;
    }
    pos += 8 + len;
  }
  scan.torn_bytes = bytes.size() - pos;
  return scan;
}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      tail_in_doubt_(other.tail_in_doubt_) {
  other.fd_ = -1;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this == &other) return *this;
  Close();
  path_ = std::move(other.path_);
  fd_ = other.fd_;
  tail_in_doubt_ = other.tail_in_doubt_;
  other.fd_ = -1;
  return *this;
}

Journal::~Journal() { Close(); }

void Journal::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Journal> Journal::Open(const std::string& path) {
  Journal j;
  j.path_ = path;
  j.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (j.fd_ < 0) {
    return Status::InvalidArgument("cannot open journal " + path + ": " +
                                   std::strerror(errno));
  }
  return j;
}

Status Journal::Append(const std::string& framed, const char* write_site,
                       const char* fsync_site) {
  if (fd_ < 0) return Status::Internal("journal is not open");
  DWRED_RETURN_IF_ERROR(testing::FaultPoint(write_site));
  Status written = [&]() -> Status {
    size_t off = 0;
    while (off < framed.size()) {
      ssize_t n = ::write(fd_, framed.data() + off, framed.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Internal("journal write failed: " +
                                std::string(std::strerror(errno)));
      }
      off += static_cast<size_t>(n);
    }
    DWRED_RETURN_IF_ERROR(testing::FaultPoint(fsync_site));
    // One fsync, never retried: after a failed fsync the kernel may already
    // have marked the dirty pages clean, so a retry can succeed for data
    // that never reached the disk. The failure surfaces and the durable
    // layer poisons the warehouse.
    return FsyncFd(fd_, path_);
  }();
  if (!written.ok()) {
    tail_in_doubt_ = true;
    return written;
  }
  RecordsCounter().Increment();
  BytesCounter().Increment(framed.size());
  return Status::OK();
}

Status Journal::AppendIntent(const IntentRecord& rec) {
  return Append(FrameIntent(rec), "journal.intent.write",
                "journal.intent.fsync");
}

Status Journal::AppendCommit(const CommitRecord& rec) {
  return Append(FrameCommit(rec), "journal.commit.write",
                "journal.commit.fsync");
}

Status Journal::Truncate(uint64_t size) {
  if (fd_ < 0) return Status::Internal("journal is not open");
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::Internal("journal truncate failed: " +
                            std::string(std::strerror(errno)));
  }
  DWRED_RETURN_IF_ERROR(FsyncFd(fd_, path_));  // never retried (see Append)
  tail_in_doubt_ = false;
  return Status::OK();
}

Status Journal::Reset() {
  if (fd_ < 0) return Status::Internal("journal is not open");
  DWRED_RETURN_IF_ERROR(testing::FaultPoint("journal.reset"));
  DWRED_RETURN_IF_ERROR(Truncate(0));
  static obs::Counter& c_resets = obs::MetricsRegistry::Global().GetCounter(
      "dwred_journal_resets",
      "journal truncations after a successful snapshot checkpoint");
  c_resets.Increment();
  return Status::OK();
}

}  // namespace dwred
