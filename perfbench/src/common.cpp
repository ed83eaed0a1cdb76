#include "common.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {

void Result::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void Result::fail(std::string why) {
  correct = false;
  ++failed;
  if (failures.size() < 20) failures.push_back(std::move(why));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double InputRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t InputRng::below(std::uint64_t n) { return next() % n; }

void append_number(std::string& out, double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, res.ptr);
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

double rusage_mb(const struct rusage& usage) {
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// fork + exec with stdout on a pipe. The child asks to be killed when
/// the benchmark dies, so no daemon outlives an aborted run.
pid_t spawn(const std::vector<std::string>& argv, int& out_fd) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd = fds[0];
  return pid;
}

/// Reaps `pid`, SIGKILLing it once `deadline` passes. Returns the exit
/// code (-1 on a signal) and the child's rusage.
int reap(pid_t pid, Clock::time_point deadline, struct rusage& usage) {
  int status = 0;
  for (;;) {
    const pid_t got = ::wait4(pid, &status, WNOHANG, &usage);
    if (got == pid) break;
    if (got < 0 && errno != EINTR) return -1;
    if (Clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
      }
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

ProcessRun run_process(const std::vector<std::string>& argv) {
  ProcessRun result;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + std::chrono::minutes(2);
  int out_fd = -1;
  const pid_t pid = spawn(argv, out_fd);
  char chunk[65536];
  for (;;) {
    pollfd p{out_fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, 100);
    if (ready > 0) {
      const ssize_t got = ::read(out_fd, chunk, sizeof chunk);
      if (got > 0) {
        result.out.append(chunk, static_cast<std::size_t>(got));
        continue;
      }
      if (got == 0 || errno != EINTR) break;
    }
    if (Clock::now() > deadline) break;
  }
  ::close(out_fd);
  struct rusage usage {};
  result.exit_code = reap(pid, deadline, usage);
  result.wall_s = seconds_since(start);
  result.max_rss_mb = rusage_mb(usage);
  return result;
}

Daemon::~Daemon() { stop(); }

void Daemon::start(const std::string& binary,
                   const std::vector<std::string>& args) {
  std::vector<std::string> argv{binary, "--port", "0"};
  argv.insert(argv.end(), args.begin(), args.end());
  pid_ = spawn(argv, out_fd_);
  std::string banner;
  char chunk[256];
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  while (banner.find('\n') == std::string::npos && Clock::now() < deadline) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    const ssize_t got = ::read(out_fd_, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    banner.append(chunk, static_cast<std::size_t>(got));
  }
  const std::size_t newline = banner.find('\n');
  const std::size_t colon = newline == std::string::npos
                                ? std::string::npos
                                : banner.rfind(':', newline);
  if (colon != std::string::npos) port_ = std::atoi(banner.c_str() + colon + 1);
  if (port_ <= 0) {
    stop();
    throw std::runtime_error("hmdiv_serve did not report a port: '" + banner +
                             "'");
  }
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  // Drain stdout so the exit message never blocks on a full pipe.
  char chunk[256];
  for (;;) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) > 0) {
      const ssize_t got = ::read(out_fd_, chunk, sizeof chunk);
      if (got > 0) continue;
      if (got < 0 && errno == EINTR) continue;
      break;
    }
    if (Clock::now() > deadline) break;
  }
  ::close(out_fd_);
  out_fd_ = -1;
  struct rusage usage {};
  (void)reap(pid_, deadline, usage);
  max_rss_mb_ = rusage_mb(usage);
  pid_ = -1;
}

std::string Daemon::address() const {
  return "127.0.0.1:" + std::to_string(port_);
}

LineClient::~LineClient() { close(); }

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect to daemon failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void LineClient::connect(int port) {
  close();
  fd_ = connect_loopback(port);
  buffer_.clear();
}

std::string LineClient::call(std::string_view line) {
  std::string message(line);
  message += '\n';
  std::size_t sent = 0;
  while (sent < message.size()) {
    const ssize_t n =
        ::send(fd_, message.data() + sent, message.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send to daemon failed");
    sent += static_cast<std::size_t>(n);
  }
  char chunk[65536];
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string reply = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return reply;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("daemon closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void LineClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void StealMeter::read(std::uint64_t& steal, std::uint64_t& total) {
  steal = total = 0;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    steal = v[7];
    for (const unsigned long long ticks : v) total += ticks;
  }
  std::fclose(f);
}

double StealMeter::percent_since_start() const {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  read(steal, total);
  if (total <= total_ || steal < steal_) return 0.0;
  return 100.0 * static_cast<double>(steal - steal_) /
         static_cast<double>(total - total_);
}

double self_max_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return rusage_mb(usage);
}

double children_max_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return rusage_mb(usage);
}

}  // namespace perfbench
