#include "exec/shard.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "exec/cluster.hpp"
#include "exec/cluster_protocol.hpp"
#include "exec/config.hpp"
#include "obs/obs.hpp"

extern char** environ;

namespace hmdiv::exec {

namespace {

using Clock = std::chrono::steady_clock;

// --- Workload registry ----------------------------------------------------

std::mutex& registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, ShardHandler, std::less<>>& handler_registry() {
  static std::map<std::string, ShardHandler, std::less<>> registry;
  return registry;
}

}  // namespace

// --- Worker-side fault injection (test hook) ------------------------------
// HMDIV_SHARD_FAULT="<mode>:<shard>" makes the worker for `shard`
// misbehave right before shipping its result: "sigkill" (SIGKILL itself
// mid-write), "shortwrite" (drop the final bytes of the stream and exit
// cleanly), "hang" (never write, sleep past any deadline), "exit" (exit 7
// without writing), and — over the serve transport only — "connreset"
// (RST the connection instead of replying) and "slowdrain" (stall
// mid-reply past any per-task deadline). Only fault-injection tests set
// this.

namespace {

/// Parses the "<ms>" tail of "delay:<shard|*>:<ms>"; true iff well-formed,
/// with `target_matches` reporting whether the middle field names
/// `shard_index` (or is '*').
bool parse_delay_fault(const char* target, std::uint32_t shard_index,
                       bool& target_matches, unsigned& delay_ms) noexcept {
  const char* second = std::strchr(target, ':');
  if (second == nullptr) return false;
  if (second == target + 1 && *target == '*') {
    target_matches = true;
  } else {
    char* end = nullptr;
    const unsigned long t = std::strtoul(target, &end, 10);
    if (end == target || end != second) return false;
    target_matches = t == shard_index;
  }
  char* end = nullptr;
  const unsigned long ms = std::strtoul(second + 1, &end, 10);
  if (end == second + 1 || *end != '\0' || ms > 60'000) return false;
  delay_ms = static_cast<unsigned>(ms);
  return true;
}

}  // namespace

ShardFaultMode shard_fault_mode(std::uint32_t shard_index) noexcept {
  const char* raw = std::getenv("HMDIV_SHARD_FAULT");
  if (raw == nullptr || *raw == '\0') return ShardFaultMode::none;
  const char* colon = std::strchr(raw, ':');
  if (colon == nullptr) return ShardFaultMode::none;
  const std::string mode(raw, static_cast<std::size_t>(colon - raw));
  if (mode == "delay") {
    bool matches = false;
    unsigned ms = 0;
    if (parse_delay_fault(colon + 1, shard_index, matches, ms) && matches) {
      return ShardFaultMode::delay;
    }
    return ShardFaultMode::none;
  }
  bool matches = false;
  if (colon[1] == '*' && colon[2] == '\0') {
    matches = true;  // every task, whichever worker it lands on
  } else {
    char* end = nullptr;
    const unsigned long target = std::strtoul(colon + 1, &end, 10);
    matches = end != colon + 1 && *end == '\0' && target == shard_index;
  }
  if (!matches) return ShardFaultMode::none;
  if (mode == "sigkill") return ShardFaultMode::sigkill;
  if (mode == "shortwrite") return ShardFaultMode::shortwrite;
  if (mode == "hang") return ShardFaultMode::hang;
  if (mode == "exit") return ShardFaultMode::exit_code;
  if (mode == "connreset") return ShardFaultMode::connreset;
  if (mode == "slowdrain") return ShardFaultMode::slowdrain;
  return ShardFaultMode::none;
}

unsigned shard_fault_delay_ms() noexcept {
  const char* raw = std::getenv("HMDIV_SHARD_FAULT");
  if (raw == nullptr || std::strncmp(raw, "delay:", 6) != 0) return 0;
  bool matches = false;
  unsigned ms = 0;
  if (!parse_delay_fault(raw + 6, 0, matches, ms)) return 0;
  return ms;
}

ShardHandler find_shard_workload(std::string_view name) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = handler_registry().find(name);
  return it == handler_registry().end() ? nullptr : it->second;
}

std::string_view to_string(ShardFailure::Kind kind) noexcept {
  switch (kind) {
    case ShardFailure::Kind::none: return "none";
    case ShardFailure::Kind::spawn: return "spawn";
    case ShardFailure::Kind::write: return "write";
    case ShardFailure::Kind::timeout: return "timeout";
    case ShardFailure::Kind::signal: return "signal";
    case ShardFailure::Kind::exit_code: return "exit_code";
    case ShardFailure::Kind::truncated: return "truncated";
    case ShardFailure::Kind::protocol: return "protocol";
    case ShardFailure::Kind::worker: return "worker";
  }
  return "unknown";
}

namespace {

// Built by appending only: mixing `const char* + std::string` here trips
// GCC 12's -Wrestrict false positive on the inlined concatenation under
// -O2 and above (same issue tests/CMakeLists.txt documents).
std::string describe(const ShardFailure& failure) {
  std::string out = "shard ";
  out += std::to_string(failure.shard);
  out += " failed (";
  out += to_string(failure.kind);
  if (failure.code != 0) {
    out += ' ';
    out += std::to_string(failure.code);
  }
  out += ')';
  if (!failure.detail.empty()) {
    out += ": ";
    out += failure.detail;
  }
  return out;
}

}  // namespace

ShardError::ShardError(ShardFailure failure)
    : std::runtime_error(describe(failure)), failure_(std::move(failure)) {}

void register_shard_workload(std::string_view name, ShardHandler handler) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  handler_registry()[std::string(name)] = handler;
}

bool shard_worker_requested(int argc, const char* const* argv) noexcept {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != nullptr && kShardWorkerFlag == argv[i]) return true;
  }
  return false;
}

std::string self_exe_path() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) {
    throw ShardError(ShardFailure{ShardFailure::Kind::spawn, 0, errno,
                                  "cannot resolve /proc/self/exe"});
  }
  buffer[n] = '\0';
  return std::string(buffer, static_cast<std::size_t>(n));
}

// --- Worker entry point ---------------------------------------------------

namespace {

/// Sends all of `bytes` on stdout, the worker's end of the socketpair;
/// false once the parent is gone (MSG_NOSIGNAL: EPIPE, not SIGPIPE).
bool send_stdout(std::span<const std::uint8_t> bytes) noexcept {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(STDOUT_FILENO, bytes.data() + off,
                             bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Ships one task's reply, applying the local-worker fault modes to its
/// bytes. Returns -1 to keep serving, else the process exit code.
int ship_reply(const ShardSession::Reply& reply) {
  const std::span<const std::uint8_t> bytes(reply.bytes);
  switch (shard_fault_mode(reply.shard_index)) {
    case ShardFaultMode::sigkill:
      // Die mid-stream: half the bytes make it out, then SIGKILL — the
      // parent must see a signal death plus a truncated frame, not hang.
      static_cast<void>(send_stdout(bytes.first(bytes.size() / 2)));
      ::raise(SIGKILL);
      break;
    case ShardFaultMode::shortwrite:
      // Clean exit but a short stream: parent must flag truncation.
      static_cast<void>(send_stdout(bytes.first(
          bytes.size() - std::min<std::size_t>(16, bytes.size()))));
      return 0;
    case ShardFaultMode::hang:
      std::this_thread::sleep_for(std::chrono::hours(1));
      break;
    case ShardFaultMode::exit_code:
      return 7;
    default:  // none, and the serve-transport faults
      break;
  }
  if (!send_stdout(bytes)) return 4;
  return reply.close ? 3 : -1;
}

}  // namespace

int shard_worker_main() {
  ShardSession session;
  std::uint8_t buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(STDIN_FILENO, buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    for (const ShardSession::Reply& reply :
         session.consume({buffer, static_cast<std::size_t>(n)})) {
      if (const int code = ship_reply(reply); code >= 0) return code;
    }
  }
  if (session.idle()) return 0;
  // The stream ended mid-frame: say so, so the parent reports a cause.
  wire::Writer message;
  message.str("shard worker: task stream truncated");
  std::vector<std::uint8_t> frame;
  wire::append_frame(frame, wire::FrameType::error, message.data());
  static_cast<void>(send_stdout(frame));
  return 3;
}

// --- Parent-side runner ---------------------------------------------------

namespace {

struct Child {
  pid_t pid = -1;
  int status = 0;
  bool killed = false;  ///< SIGKILLed by the parent
  bool reaped = false;
};

/// posix_spawn one worker with both stdin and stdout on one end of a fresh
/// socketpair; returns the parent's end (non-blocking). A missing or
/// unexecutable binary fails here, as Kind::spawn with its errno.
int spawn_worker(Child& child, std::uint32_t shard, const std::string& exe) {
  int pair[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair) != 0) {
    throw ShardError(
        ShardFailure{ShardFailure::Kind::spawn, shard, errno,
                     "socketpair failed"});
  }
  // dup2 clears O_CLOEXEC on the descriptors it creates; every other
  // socket (including other workers') closes on exec.
  posix_spawn_file_actions_t actions;
  int rc = ::posix_spawn_file_actions_init(&actions);
  if (rc == 0) {
    rc = ::posix_spawn_file_actions_adddup2(&actions, pair[1], STDIN_FILENO);
    if (rc == 0) {
      rc = ::posix_spawn_file_actions_adddup2(&actions, pair[1],
                                              STDOUT_FILENO);
    }
    const char* argv[] = {exe.c_str(), kShardWorkerFlag.data(), nullptr};
    if (rc == 0) {
      rc = ::posix_spawn(&child.pid, exe.c_str(), &actions, nullptr,
                         const_cast<char* const*>(argv), environ);
    }
    ::posix_spawn_file_actions_destroy(&actions);
  }
  ::close(pair[1]);
  if (rc != 0) {
    child.pid = -1;
    ::close(pair[0]);
    throw ShardError(ShardFailure{ShardFailure::Kind::spawn, shard, rc,
                                  std::string("posix_spawn failed: ")
                                      .append(exe)});
  }
  ::fcntl(pair[0], F_SETFL, O_NONBLOCK);
  return pair[0];
}

void kill_child(Child& child) {
  if (child.pid >= 0 && !child.reaped) {
    ::kill(child.pid, SIGKILL);
    child.killed = true;
  }
}

/// Reaps every child within a shared grace window, SIGKILLing whatever is
/// still running when it passes. Every spawned pid goes through here on
/// every path, so no run ever leaks a zombie.
void reap_all(std::vector<Child>& children) {
  const auto grace = Clock::now() + std::chrono::seconds(2);
  for (Child& child : children) {
    while (child.pid >= 0 && !child.reaped) {
      const pid_t got = ::waitpid(child.pid, &child.status, WNOHANG);
      if (got == child.pid || (got < 0 && errno != EINTR)) {
        child.reaped = true;
      } else if (Clock::now() >= grace) {
        kill_child(child);
        child.reaped = ::waitpid(child.pid, &child.status, 0) == child.pid ||
                       errno != EINTR;
      } else {
        // Short naps: a worker exits within microseconds of its stream
        // closing, and every run waits for the last one.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }
}

/// The failure, if any, of one reaped worker. `observed` is what the
/// scheduler saw on its stream (nullptr if nothing went wrong there). A
/// structured error frame or a blown deadline names the cause best; next
/// come the wait status and then the stream diagnosis.
ShardFailure diagnose(const Child& child, std::uint32_t shard,
                      const ShardFailure* observed) {
  using Kind = ShardFailure::Kind;
  if (observed != nullptr &&
      (observed->kind == Kind::worker || observed->kind == Kind::timeout)) {
    return *observed;
  }
  if (child.killed) {
    return ShardFailure{Kind::timeout, shard, 0,
                        "worker did not exit after its stream closed"};
  }
  if (WIFSIGNALED(child.status)) {
    return ShardFailure{Kind::signal, shard, WTERMSIG(child.status),
                        "worker killed by signal " +
                            std::to_string(WTERMSIG(child.status))};
  }
  if (WIFEXITED(child.status) && WEXITSTATUS(child.status) != 0) {
    return ShardFailure{Kind::exit_code, shard, WEXITSTATUS(child.status),
                        "worker exited non-zero"};
  }
  return observed != nullptr ? *observed : ShardFailure{};
}

}  // namespace

ShardRunner::ShardRunner(ShardOptions options) : options_(std::move(options)) {}

unsigned ShardRunner::resolved_shards() const noexcept {
  return std::clamp(options_.shards, 1u, kMaxShards);
}

std::vector<std::vector<std::uint8_t>> ShardRunner::run(
    std::string_view workload, std::span<const std::uint8_t> blob) const {
  const unsigned shards = resolved_shards();
  HMDIV_OBS_SCOPED_TIMER("exec.shard.run_ns");
  HMDIV_OBS_COUNT("exec.shard.runs", 1);
  HMDIV_OBS_COUNT("exec.shard.workers", shards);

  const std::string exe = options_.exe.empty() ? self_exe_path() : options_.exe;
  const auto deadline = Clock::now() + options_.deadline;
  std::vector<Child> children(shards);
  std::vector<int> fds;
  std::optional<ShardFailure> failed;
  std::vector<std::vector<std::uint8_t>> results;

  try {
    for (std::uint32_t s = 0; s < shards; ++s) {
      fds.push_back(spawn_worker(children[s], s, exe));
    }
    // One task per process: shards pinned to the worker count, a window
    // of one, and the whole-run deadline as the task deadline.
    ClusterOptions fleet_options;
    fleet_options.shards = shards;
    // Resolve the per-worker budget here so HMDIV_THREADS (already folded
    // into the parent's default config) reaches workers even though they
    // override their own env-derived default with this value.
    fleet_options.threads =
        options_.threads ? options_.threads : default_config().threads;
    fleet_options.window = 1;
    fleet_options.task_deadline =
        std::max(std::chrono::duration_cast<std::chrono::milliseconds>(
                     deadline - Clock::now()),
                 std::chrono::milliseconds(0));
    ClusterRunner fleet(fds, std::move(fleet_options));
    fds.clear();  // the fleet owns (and closes) them now
    try {
      results = fleet.dispatch(workload, blob, shards);
    } catch (const ShardError& e) {
      failed = e.failure();
    }
    // Fail fast: stop every worker still computing — peers cancelled by
    // the failure, or the worker that blew the deadline. The rest see
    // EOF when the fleet closes their streams, and exit.
    const std::vector<ClusterWorkerStats> stats = fleet.worker_stats();
    for (std::uint32_t s = 0; s < shards; ++s) {
      const bool is_failed = failed && failed->shard == s;
      if (stats[s].tasks == 0 &&
          (!is_failed || failed->kind == ShardFailure::Kind::timeout)) {
        kill_child(children[s]);
      }
    }
  } catch (...) {
    HMDIV_OBS_COUNT("exec.shard.failures", 1);
    for (const int fd : fds) ::close(fd);
    for (Child& child : children) kill_child(child);
    reap_all(children);
    throw;
  }
  reap_all(children);

  // Diagnose in ascending shard order; the first failure wins. A worker
  // killed only because another one failed was cancelled, not failed.
  for (std::uint32_t s = 0; s < shards; ++s) {
    const bool is_failed = failed && failed->shard == s;
    if (failed && !is_failed && children[s].killed) continue;
    ShardFailure failure =
        diagnose(children[s], s, is_failed ? &*failed : nullptr);
    if (failure.kind != ShardFailure::Kind::none) {
      HMDIV_OBS_COUNT("exec.shard.failures", 1);
      throw ShardError(std::move(failure));
    }
  }
  return results;
}

}  // namespace hmdiv::exec
