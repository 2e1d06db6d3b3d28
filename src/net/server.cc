#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/env.h"
#include "net/client.h"  // IgnoreSigpipe
#include "obs/metrics.h"
#include "obs/profile.h"
#include "runtime/cancel.h"

namespace dwred::net {

namespace {

struct NetMetrics {
  obs::Counter& connections_total;
  obs::Gauge& connections_open;
  obs::Counter& rejected;
  obs::Counter& bytes_read;
  obs::Counter& bytes_written;
  obs::Counter& frames;
  obs::Counter& protocol_errors;
  obs::Counter& disconnects;
  obs::Counter& aborts;

  static NetMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static NetMetrics m{
        reg.GetCounter("dwred_net_connections_total",
                       "connections accepted by dwredd"),
        reg.GetGauge("dwred_net_connections_open",
                     "connections currently open"),
        reg.GetCounter("dwred_net_connections_rejected",
                       "connections shed at the connection cap"),
        reg.GetCounter("dwred_net_bytes_read", "payload+frame bytes received"),
        reg.GetCounter("dwred_net_bytes_written", "payload+frame bytes sent"),
        reg.GetCounter("dwred_net_frames", "request frames processed"),
        reg.GetCounter("dwred_net_protocol_errors",
                       "malformed frames (bad CRC, oversized length, "
                       "undecodable request)"),
        reg.GetCounter("dwred_net_disconnects",
                       "sessions ended by the peer (EOF, reset, EPIPE)"),
        reg.GetCounter("dwred_net_aborts",
                       "commands aborted at a cancel.net.* poll site"),
    };
    return m;
  }
};

/// Per-command request counter and latency histogram (dwred_net_cmd_<cmd>,
/// dwred_op_net_<cmd>_seconds), registered once per command on first use.
struct CommandMetrics {
  obs::Counter& requests;
  obs::Histogram& latency;
};

CommandMetrics& ForCommand(Command c) {
  auto& reg = obs::MetricsRegistry::Global();
  switch (c) {
#define DWRED_NET_CMD_METRICS(cmd, name)                                 \
  case Command::cmd: {                                                   \
    static CommandMetrics m{                                             \
        reg.GetCounter("dwred_net_cmd_" name, name " requests served"),  \
        obs::OpLatencyHistogram("net." name)};                           \
    return m;                                                            \
  }
    DWRED_NET_CMD_METRICS(kPing, "ping")
    DWRED_NET_CMD_METRICS(kQuery, "query")
    DWRED_NET_CMD_METRICS(kInsert, "insert")
    DWRED_NET_CMD_METRICS(kSynchronize, "synchronize")
    DWRED_NET_CMD_METRICS(kSpecChange, "spec_change")
    DWRED_NET_CMD_METRICS(kStats, "stats")
    DWRED_NET_CMD_METRICS(kCacheCtl, "cache_ctl")
    DWRED_NET_CMD_METRICS(kSnapshotCrc, "snapshot_crc")
    DWRED_NET_CMD_METRICS(kShutdown, "shutdown")
#undef DWRED_NET_CMD_METRICS
  }
  static CommandMetrics unknown{
      reg.GetCounter("dwred_net_cmd_unknown", "unknown requests"),
      obs::OpLatencyHistogram("net.unknown")};
  return unknown;
}

Status WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Response FromStatus(const Status& st) {
  Response r;
  r.code = st.code();
  r.message = st.message();
  return r;
}

}  // namespace

Server::Server(ServerConfig config, SubcubeManager* mgr)
    : config_(std::move(config)), mgr_(mgr) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  IgnoreSigpipe();
  max_connections_ =
      config_.max_connections > 0
          ? config_.max_connections
          : static_cast<int>(EnvInt64("DWRED_NET_MAX_CONNECTIONS", 64, 1,
                                      4096, EnvRangePolicy::kClamp));
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    CloseListener();
    return Status::InvalidArgument("not an IPv4 address: '" + config_.host +
                                   "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    int saved = errno;
    CloseListener();
    return Status::Unavailable("bind " + config_.host + ":" +
                               std::to_string(config_.port) + ": " +
                               std::strerror(saved));
  }
  if (::listen(listen_fd_, 128) != 0) {
    int saved = errno;
    CloseListener();
    return Status::Unavailable(std::string("listen: ") +
                               std::strerror(saved));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    int saved = errno;
    CloseListener();
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(saved));
  }
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::CloseListener() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::Stop() {
  // One teardown at a time; a second caller blocks until the first finishes
  // and then finds nothing left to do (idempotent).
  static std::mutex stop_mu;
  std::lock_guard<std::mutex> stop_lock(stop_mu);
  if (!stopping_.exchange(true)) {
    // Closing the listener makes the blocking accept fail and the accept
    // thread exit.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    CloseListener();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Kick every live session off its blocking read, then join.
  std::vector<std::unique_ptr<SessionSlot>> taken;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& s : sessions_) {
      if (s->fd >= 0) ::shutdown(s->fd, SHUT_RDWR);
    }
    taken.swap(sessions_);
  }
  for (auto& s : taken) {
    if (s->thread.joinable()) s->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    shutdown_cv_.notify_all();
  }
}

void Server::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(sessions_mu_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_.load(std::memory_order_acquire) ||
           stopping_.load(std::memory_order_acquire);
  });
}

void Server::AcceptLoop() {
  NetMetrics& m = NetMetrics::Get();
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop()
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::lock_guard<std::mutex> lock(sessions_mu_);
    // Reap sessions that already finished so a long-lived daemon's slot
    // vector tracks live connections, not connections-ever.
    for (size_t i = 0; i < sessions_.size();) {
      if (sessions_[i]->fd < 0) {
        if (sessions_[i]->thread.joinable()) sessions_[i]->thread.join();
        sessions_.erase(sessions_.begin() + i);
      } else {
        ++i;
      }
    }
    if (open_sessions_ >= max_connections_) {
      // Shed with one honest response instead of a silent RST: the client's
      // first Recv() sees ResourceExhausted.
      Response shed;
      shed.code = StatusCode::kResourceExhausted;
      shed.message = "connection cap reached (" +
                     std::to_string(max_connections_) + " sessions open)";
      std::string out;
      AppendFrame(&out, EncodeResponse(shed));
      (void)WriteAll(fd, out);
      ::close(fd);
      m.rejected.Increment();
      continue;
    }
    auto slot = std::make_unique<SessionSlot>();
    slot->fd = fd;
    SessionSlot* raw = slot.get();
    ++open_sessions_;
    m.connections_total.Increment();
    m.connections_open.Set(open_sessions_);
    raw->thread = std::thread([this, raw, fd] {
      Session(fd);
      // The fd is closed and the slot retired under sessions_mu_ so Stop()
      // never races a shutdown() against a concurrent close() (fd reuse).
      std::lock_guard<std::mutex> lock(sessions_mu_);
      ::close(fd);
      raw->fd = -1;
      --open_sessions_;
      NetMetrics::Get().connections_open.Set(open_sessions_);
    });
    sessions_.push_back(std::move(slot));
  }
}

void Server::Session(int fd) {
  NetMetrics& m = NetMetrics::Get();
  std::string inbuf, outbuf;
  bool poisoned = false;
  bool shutdown_cmd = false;
  for (;;) {
    char chunk[65536];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      m.disconnects.Increment();
      break;
    }
    if (n == 0) break;  // clean EOF
    m.bytes_read.Increment(static_cast<uint64_t>(n));
    inbuf.append(chunk, static_cast<size_t>(n));

    // Drain every complete frame before the next read so pipelined bursts
    // are answered in one batched write.
    outbuf.clear();
    std::string payload, error;
    size_t consumed = 0;
    while (!poisoned) {
      FrameParse fp = ExtractFrame(inbuf, &payload, &consumed, &error);
      if (fp == FrameParse::kNeedMore) break;
      if (fp == FrameParse::kBad) {
        m.protocol_errors.Increment();
        Response bad;
        bad.code = StatusCode::kParseError;
        bad.message = error;
        AppendFrame(&outbuf, EncodeResponse(bad));
        poisoned = true;  // frame boundaries are lost; answer once and close
        break;
      }
      inbuf.erase(0, consumed);
      m.frames.Increment();

      auto req = DecodeRequest(payload);
      Response resp;
      if (!req.ok()) {
        m.protocol_errors.Increment();
        resp = FromStatus(req.status());
      } else {
        resp = DispatchImpl(req.value(), &shutdown_cmd);
      }
      AppendFrame(&outbuf, EncodeResponse(resp));
      // Answer the shutdown, then close: frames pipelined behind it die with
      // the session, and a follow-up command on this connection is the
      // documented short read (tools/run_server_kill.sh scenario 2).
      if (shutdown_cmd) break;
    }
    if (!outbuf.empty()) {
      Status wr = WriteAll(fd, outbuf);
      if (!wr.ok()) {
        // EPIPE/ECONNRESET after the peer vanished: drop the session, never
        // the process (SIGPIPE is ignored — net/client.h).
        m.disconnects.Increment();
        break;
      }
      m.bytes_written.Increment(outbuf.size());
    }
    if (shutdown_cmd) {
      // Signal only after the ack is on the wire: the daemon's Stop() runs
      // shutdown(2) on every live session fd, and signaling first lets it
      // race the response write the requesting client is still owed.
      SignalShutdown();
      break;
    }
    if (poisoned) break;
  }
  // The caller (the session thread's lambda) closes the fd and retires the
  // slot under sessions_mu_.
}

Response Server::Dispatch(const Request& req) {
  bool shutdown_cmd = false;
  Response resp = DispatchImpl(req, &shutdown_cmd);
  if (shutdown_cmd) SignalShutdown();
  return resp;
}

void Server::SignalShutdown() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  shutdown_.store(true, std::memory_order_release);
  shutdown_cv_.notify_all();
}

Response Server::DispatchImpl(const Request& req, bool* shutdown_cmd) {
  NetMetrics& m = NetMetrics::Get();
  CommandMetrics& cmd_metrics = ForCommand(req.cmd);
  cmd_metrics.requests.Increment();

  // Every command runs under a fresh operation context: the request's
  // deadline and row budget, plus a cancellable token so an injected or
  // propagated cancel stops engine shards cooperatively.
  runtime::OpContext ctx;
  ctx.token = runtime::CancelToken::Create();
  if (req.deadline_ms > 0) {
    ctx.deadline = runtime::Deadline::AfterMillis(req.deadline_ms);
  }
  if (req.max_rows > 0) {
    ctx.SetMaxRows(static_cast<int64_t>(req.max_rows));
  }
  runtime::ScopedOpContext scope(ctx);

  const auto start = std::chrono::steady_clock::now();
  Response resp;
  // The three net poll sites all sit before any warehouse byte moves, so an
  // abort at any of them leaves the epoch unbumped and the snapshot
  // byte-identical (tests/server_test.cc sweeps them).
  Status poll = runtime::PollCancel("cancel.net.read");
  if (poll.ok()) poll = runtime::PollCancel("cancel.net.dispatch");
  if (!poll.ok()) {
    m.aborts.Increment();
    resp = FromStatus(poll);
  } else {
    if (req.cmd == Command::kShutdown) *shutdown_cmd = true;
    resp = Execute(req, CommandTarget{mgr_});
    Status respond = runtime::PollCancel("cancel.net.respond");
    if (!respond.ok()) {
      m.aborts.Increment();
      resp = FromStatus(respond);
    }
  }

  const int64_t wall_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  cmd_metrics.latency.Record(static_cast<double>(wall_us) * 1e-6);
  if (obs::FlightRecorder::Global().WouldRecord(wall_us)) {
    obs::OpProfile profile;
    profile.op = std::string("net.") + CommandName(req.cmd);
    profile.epoch = mgr_->epoch();
    profile.now_day = req.now_day;
    profile.outcome = runtime::OutcomeLabel(resp.code);
    profile.total_us = wall_us;
    profile.AddCounter("response_bytes",
                       static_cast<int64_t>(resp.body.size()));
    obs::FlightRecorder::Global().Record(profile);
  }
  return resp;
}

}  // namespace dwred::net
