// The dwredd child process: spawn, listener-line handshake, peak RSS, and
// clean shutdown with reaping.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/strings.h"
#include "e2e.h"
#include "net/client.h"

extern char** environ;

namespace dwred::e2e {

bool CpuHalf(int half, cpu_set_t* out) {
  // The CPUs allowed at the first call, i.e. before the harness pins itself.
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return v;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) v.push_back(c);
    }
    return v;
  }();
  if (cpus.size() < 4) return false;
  CPU_ZERO(out);
  const size_t mid = cpus.size() / 2;
  for (size_t i = half == 0 ? 0 : mid; i < (half == 0 ? mid : cpus.size()); ++i) {
    CPU_SET(cpus[i], out);
  }
  return true;
}

double PeakRssMb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

Result<std::unique_ptr<Daemon>> Daemon::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    double timeout_s) {
  // Everything the child needs is built before fork: after it, only
  // async-signal-safe calls run.
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_s;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DWRED_THREADS=", 14) != 0) env_s.emplace_back(*e);
  }
  env_s.emplace_back("DWRED_THREADS=2");
  std::vector<char*> envp;
  for (std::string& s : env_s) envp.push_back(s.data());
  envp.push_back(nullptr);

  cpu_set_t daemon_cpus;
  const bool pin = CpuHalf(1, &daemon_cpus);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // The daemon dies with the harness (the forking thread is the main
    // thread, which lives as long as the process).
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (pin) ::sched_setaffinity(0, sizeof(daemon_cpus), &daemon_cpus);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::unique_ptr<Daemon> d(new Daemon());
  d->pid_ = pid;
  d->out_fd_ = fds[0];

  const auto deadline =
      Clock::now() + std::chrono::milliseconds(static_cast<int64_t>(timeout_s * 1e3));
  const std::string marker = "dwredd listening on ";
  std::string out;
  for (;;) {
    size_t at = out.find(marker);
    size_t eol = at == std::string::npos ? std::string::npos : out.find('\n', at);
    if (eol != std::string::npos) {
      std::string addr = out.substr(at + marker.size(), eol - at - marker.size());
      int64_t port = 0;
      size_t colon = addr.rfind(':');
      if (colon == std::string::npos ||
          !ParseInt64(addr.substr(colon + 1), &port) || port <= 0 ||
          port > 65535) {
        return Status::Internal("unparsable listener line: " + addr);
      }
      d->port_ = static_cast<uint16_t>(port);
      return d;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) {
      return Status::Unavailable("dwredd printed no listener line within " +
                                 std::to_string(timeout_s) + " s");
    }
    pollfd p{d->out_fd_, POLLIN, 0};
    int rc = ::poll(&p, 1, static_cast<int>(left));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    char buf[4096];
    ssize_t n = ::read(d->out_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::Unavailable("dwredd exited before listening: " + out);
    }
    out.append(buf, static_cast<size_t>(n));
  }
}

Daemon::~Daemon() { Reap(/*kill_first=*/true); }

void Daemon::Reap(bool kill_first) {
  if (pid_ > 0) {
    if (kill_first) ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

double Daemon::PeakRssMb() const { return e2e::PeakRssMb(pid_); }

Status Daemon::Shutdown() {
  if (pid_ <= 0) return Status::OK();
  auto client = net::Client::Connect("127.0.0.1", port_);
  if (!client.ok()) return client.status();
  net::Request req;
  req.cmd = net::Command::kShutdown;
  auto resp = client.value().Call(req);
  if (!resp.ok()) return resp.status();
  client.value().Close();
  // A clean shutdown exits 0 promptly; give it 30 s before killing.
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  int status = 0;
  for (;;) {
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) {
      return Status::Internal(std::string("waitpid: ") + std::strerror(errno));
    }
    if (Clock::now() > deadline) {
      Reap(/*kill_first=*/true);
      return Status::Unavailable("dwredd did not exit after shutdown");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  Reap(/*kill_first=*/false);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("dwredd exited with status " +
                            std::to_string(status));
  }
  return Status::OK();
}

}  // namespace dwred::e2e
