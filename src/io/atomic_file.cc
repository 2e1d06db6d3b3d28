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

/// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320,
/// generated from the polynomial when the program is built. `t[0]` is the
/// classic byte-at-a-time table; `t[k][b]` is byte `b`'s contribution
/// followed by `k` zero bytes, so one step folds eight input bytes with
/// eight independent lookups.
struct Crc32Tables {
  uint32_t t[8][256];

  constexpr Crc32Tables() : t{} {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t c = b;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) != 0 ? (c >> 1) ^ 0xEDB88320u : c >> 1;
      }
      t[0][b] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xff];
      }
    }
  }
};

constexpr Crc32Tables kCrc32{};

/// Little-endian load, whatever the host's byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const auto& t = kCrc32.t;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
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
