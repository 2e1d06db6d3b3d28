#include "io/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/fault.h"

namespace dwred {

namespace {

/// Records fsync wall time; the durability layer's dominant cost.
obs::Histogram& FsyncLatency() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "dwred_io_fsync_seconds", obs::DefaultLatencyBuckets(),
      "wall time of one fsync barrier (journal, snapshot, directory)");
  return h;
}

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  // Table-driven CRC-32 (IEEE), nibble-at-a-time to keep the table tiny.
  static const uint32_t kTable[16] = {
      0x00000000, 0x1db71064, 0x3b6e20c8, 0x26d930ac, 0x76dc4190, 0x6b6b51f4,
      0x4db26158, 0x5005713c, 0xedb88320, 0xf00f9344, 0xd6d6a3e8, 0xcb61b38c,
      0x9b64c2b0, 0x86d3d2d4, 0xa00ae278, 0xbdbdf21c};
  uint32_t crc = ~seed;
  for (char ch : data) {
    uint8_t b = static_cast<uint8_t>(ch);
    crc = kTable[(crc ^ b) & 0x0f] ^ (crc >> 4);
    crc = kTable[(crc ^ (b >> 4)) & 0x0f] ^ (crc >> 4);
  }
  return ~crc;
}

uint32_t Crc32(std::string_view data) { return Crc32(data, 0); }

Status FsyncFd(int fd, const std::string& what) {
  DWRED_RETURN_IF_ERROR(testing::FaultPoint("file.fsync"));
  obs::TraceSpan span("io.fsync", &FsyncLatency());
  if (::fsync(fd) != 0) {
    return Status::Internal("fsync failed for " + what + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  DWRED_RETURN_IF_ERROR(testing::FaultPoint("dir.fsync"));
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("cannot open directory " + dir + " for fsync: " +
                            std::strerror(errno));
  }
  obs::TraceSpan span("io.fsync", &FsyncLatency());
  int rc = ::fsync(fd);
  int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("fsync failed for directory " + dir + ": " +
                            std::strerror(saved));
  }
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, std::string_view content) {
  // The temp name carries the pid (cross-process uniqueness: two dwredctl
  // runs exporting the same snapshot) *and* a process-wide counter
  // (same-process uniqueness: two dwredd sessions checkpointing the same
  // destination from different threads would otherwise O_TRUNC each other's
  // in-flight temp file and steal each other's rename source). Each writer
  // renames its own file, so the destination ends up whole either way.
  static std::atomic<uint64_t> g_tmp_seq{0};
  const uint64_t seq = g_tmp_seq.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(seq);

  DWRED_RETURN_IF_ERROR(testing::FaultPoint("atomic.tmp.write"));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::InvalidArgument("cannot write " + tmp + ": " +
                                   std::strerror(errno));
  }
  size_t off = 0;
  while (off < content.size()) {
    ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Internal("short write to " + tmp + ": " +
                              std::strerror(saved));
    }
    off += static_cast<size_t>(n);
  }

  Status fault = testing::FaultPoint("atomic.tmp.fsync");
  if (!fault.ok()) {
    ::close(fd);
    return fault;
  }
  {
    obs::TraceSpan span("io.fsync", &FsyncLatency());
    if (::fsync(fd) != 0) {
      int saved = errno;
      ::close(fd);
      return Status::Internal("fsync failed for " + tmp + ": " +
                              std::strerror(saved));
    }
  }
  if (::close(fd) != 0) {
    return Status::Internal("close failed for " + tmp + ": " +
                            std::strerror(errno));
  }

  DWRED_RETURN_IF_ERROR(testing::FaultPoint("atomic.rename"));
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename " + tmp + " -> " + path +
                            " failed: " + std::strerror(errno));
  }

  DWRED_RETURN_IF_ERROR(testing::FaultPoint("atomic.dir.fsync"));
  return FsyncDir(DirOf(path));
}

}  // namespace dwred
