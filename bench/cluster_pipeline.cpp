// cluster_pipeline — latency-hiding bench for the pipelined cluster
// scheduler (DESIGN.md §16, PR 10).
//
// perfbench's fanout_grid workload measures fan-out on a zero-RTT
// loopback, where a lockstep request/reply loop looks fine because the
// network round trip is ~free. This bench makes the round trip *expensive*
// on purpose — every worker runs with HMDIV_SHARD_FAULT="delay:*:<ms>",
// so each shard reply ships `ms` late, emulating a WAN link — and then
// sweeps the task-window depth. At window=1 the coordinator pays the full
// RTT between consecutive tasks on each connection; at window=4 up to four
// tasks are in flight per worker and the RTT hides behind compute.
//
// Matrix: window ∈ {1, 2, 4} × injected delay ∈ {0, 2 ms}, 4 loopback
// workers, shards=0 (adaptive micro-tasking picks the task grain). Every
// cell's sweep output is compared bit-for-bit against the in-process
// single-thread baseline — the exit code is non-zero only on a mismatch
// or a transport failure, never on a missed speedup. The headline figure,
// `pipeline_speedup_at_delay` (window=4 throughput ÷ window=1 throughput
// at the injected RTT), lands in BENCH_pr10_cluster_pipeline.json; the
// PR 10 target is >= 2x on any box, single-core included, because the
// win comes from overlapping *sleeps*, not from extra cores.
//
//   cluster_pipeline [--grid-steps N] [--delay-ms N] [--serve-bin PATH]
//                    [--out FILE]
//
// The daemon binary resolves from --serve-bin, then $HMDIV_SERVE_BIN,
// then ../src/cli/hmdiv_serve next to this binary (the build layout).
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/paper_example.hpp"
#include "core/tradeoff.hpp"
#include "core/tradeoff_shard.hpp"
#include "exec/cluster.hpp"
#include "exec/config.hpp"

namespace {

using namespace hmdiv;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One spawned `hmdiv_serve --example` worker on an ephemeral port. The
/// child inherits the parent's environment, so setting HMDIV_SHARD_FAULT
/// around spawn() injects the delay fault into every worker of a fleet.
struct Daemon {
  pid_t pid = -1;
  int port = 0;

  [[nodiscard]] bool spawn(const std::string& binary) {
    int out_pipe[2];
    if (::pipe(out_pipe) != 0) return false;
    pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      ::execl(binary.c_str(), binary.c_str(), "--example", "--port", "0",
              "--threads", "1", "--no-obs", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out_pipe[1]);
    std::string banner;
    char chunk[256];
    while (banner.find('\n') == std::string::npos) {
      const ssize_t got = ::read(out_pipe[0], chunk, sizeof chunk);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      banner.append(chunk, static_cast<std::size_t>(got));
    }
    ::close(out_pipe[0]);
    const std::size_t newline = banner.find('\n');
    const std::size_t colon =
        newline == std::string::npos ? std::string::npos
                                     : banner.rfind(':', newline);
    if (colon != std::string::npos) port = std::atoi(banner.c_str() + colon + 1);
    return port > 0;
  }

  void stop() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }
};

std::string default_serve_binary(const char* argv0) {
  if (const char* env = std::getenv("HMDIV_SERVE_BIN");
      env != nullptr && *env != '\0') {
    return env;
  }
  std::string self(argv0);
  char resolved[4096];
  const ssize_t n = ::readlink("/proc/self/exe", resolved, sizeof resolved - 1);
  if (n > 0) {
    resolved[n] = '\0';
    self = resolved;
  }
  const std::size_t slash = self.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : self.substr(0, slash);
  return dir + "/../src/cli/hmdiv_serve";
}

core::TradeoffAnalyzer reference_analyzer() {
  core::BinormalMachine machine;
  machine.cancer_class_means = {2.0, 0.8};
  machine.normal_class_means = {-2.0, -0.5};
  core::DemandProfile cancers({"easy", "difficult"}, {0.9, 0.1});
  std::vector<core::HumanFnResponse> fn(2);
  fn[0] = {0.14, 0.18};
  fn[1] = {0.4, 0.9};
  core::DemandProfile normals({"typical", "complex"}, {0.85, 0.15});
  std::vector<core::HumanFpResponse> fp(2);
  fp[0] = {0.10, 0.02};
  fp[1] = {0.35, 0.12};
  return core::TradeoffAnalyzer(std::move(machine), std::move(cancers),
                                std::move(fn), std::move(normals),
                                std::move(fp), 0.01);
}

bool points_equal(const std::vector<core::SystemOperatingPoint>& a,
                  const std::vector<core::SystemOperatingPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].system_fn) !=
            std::bit_cast<std::uint64_t>(b[i].system_fn) ||
        std::bit_cast<std::uint64_t>(a[i].system_fp) !=
            std::bit_cast<std::uint64_t>(b[i].system_fp) ||
        std::bit_cast<std::uint64_t>(a[i].ppv) !=
            std::bit_cast<std::uint64_t>(b[i].ppv)) {
      return false;
    }
  }
  return true;
}

struct CellResult {
  unsigned window = 0;
  unsigned delay_ms = 0;
  double sweep_ms = 0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  constexpr unsigned kWorkers = 4;
  // Small enough that serialization overhead doesn't drown the injected
  // RTT (the quantity under test); perfbench's fanout_grid covers
  // compute scaling.
  std::size_t grid_steps = 10'000;
  unsigned delay_ms = 2;
  std::string out_path = "BENCH_pr10_cluster_pipeline.json";
  std::string serve_bin;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "cluster_pipeline: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--grid-steps") {
      grid_steps = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--delay-ms") {
      delay_ms = static_cast<unsigned>(std::stoul(next()));
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--serve-bin") {
      serve_bin = next();
    } else {
      std::cerr << "cluster_pipeline: unknown flag '" << arg << "'\n";
      return 2;
    }
  }
  if (serve_bin.empty()) serve_bin = default_serve_binary(argv[0]);

  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  std::vector<double> thresholds(grid_steps);
  for (std::size_t i = 0; i < grid_steps; ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) /
                               static_cast<double>(grid_steps - 1);
  }

  const auto baseline_start = Clock::now();
  const auto sweep_reference = analyzer.sweep(thresholds, exec::Config{1});
  const double baseline_ms = ms_since(baseline_start);

  std::vector<CellResult> cells;
  bool all_identical = true;
  bool transport_ok = true;
  for (const unsigned delay : {0u, delay_ms}) {
    // One 4-worker fleet per delay setting; the fault rides in on the
    // inherited environment and is scrubbed again before the parent does
    // anything else.
    const std::string fault = "delay:*:" + std::to_string(delay);
    if (delay > 0) ::setenv("HMDIV_SHARD_FAULT", fault.c_str(), 1);
    std::vector<Daemon> daemons(kWorkers);
    std::vector<std::string> addresses;
    bool spawned = true;
    for (Daemon& daemon : daemons) {
      if (!daemon.spawn(serve_bin)) {
        spawned = false;
        break;
      }
      addresses.push_back("127.0.0.1:" + std::to_string(daemon.port));
    }
    ::unsetenv("HMDIV_SHARD_FAULT");
    if (!spawned) {
      std::cerr << "cluster_pipeline: failed to spawn '" << serve_bin << "'\n";
      for (Daemon& daemon : daemons) daemon.stop();
      return 1;
    }

    for (const unsigned window : {1u, 2u, 4u}) {
      CellResult cell;
      cell.window = window;
      cell.delay_ms = delay;
      try {
        exec::ClusterOptions options;
        options.workers = addresses;
        options.shards = 0;  // adaptive micro-tasking picks the grain
        options.threads = 1;
        options.window = window;
        exec::ClusterRunner cluster(std::move(options));
        const auto cell_start = Clock::now();
        const auto swept =
            core::sweep_clustered(analyzer, thresholds, cluster);
        cell.sweep_ms = ms_since(cell_start);
        cell.identical = points_equal(swept, sweep_reference);
      } catch (const std::exception& e) {
        std::cerr << "cluster_pipeline: window " << window << " delay "
                  << delay << "ms: " << e.what() << "\n";
        transport_ok = false;
      }
      if (!cell.identical) all_identical = false;
      cells.push_back(cell);
      if (!transport_ok) break;
    }
    for (Daemon& daemon : daemons) daemon.stop();
    if (!transport_ok) break;
  }

  // Headline: throughput ratio of window=4 over window=1 at the injected
  // RTT — the latency actually hidden by pipelining.
  double w1_delay_ms = 0;
  double w4_delay_ms = 0;
  for (const CellResult& cell : cells) {
    if (cell.delay_ms != delay_ms) continue;
    if (cell.window == 1) w1_delay_ms = cell.sweep_ms;
    if (cell.window == 4) w4_delay_ms = cell.sweep_ms;
  }
  const double pipeline_speedup =
      w4_delay_ms > 0 ? w1_delay_ms / w4_delay_ms : 0.0;

  std::string json = "{\"bench\":\"pr10_cluster_pipeline\",";
  json += "\"grid_steps\":" + std::to_string(grid_steps) + ",";
  json += "\"workers\":" + std::to_string(kWorkers) + ",";
  json += "\"delay_ms\":" + std::to_string(delay_ms) + ",";
  json += "\"hardware_threads\":" +
          std::to_string(std::thread::hardware_concurrency()) + ",";
  json += "\"inprocess_sweep_ms\":" + std::to_string(baseline_ms) + ",";
  json += "\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    if (i != 0) json += ',';
    json += "{\"window\":" + std::to_string(cell.window) +
            ",\"delay_ms\":" + std::to_string(cell.delay_ms) +
            ",\"sweep_ms\":" + std::to_string(cell.sweep_ms) +
            ",\"bitwise_identical\":" + (cell.identical ? "true" : "false") +
            "}";
  }
  json += "],\"pipeline_speedup_at_delay\":" +
          std::to_string(pipeline_speedup) + ",";
  json += "\"all_bitwise_identical\":";
  json += all_identical ? "true" : "false";
  json += "}";

  std::cout << json << "\n";
  std::ofstream out(out_path);
  if (out) out << json << "\n";

  if (!transport_ok || !all_identical) {
    std::cerr << "cluster_pipeline: FAILED (transport_ok=" << transport_ok
              << ", all_bitwise_identical=" << all_identical << ")\n";
    return 1;
  }
  std::cout << "cluster_pipeline: OK — every window x delay cell "
               "bit-identical; window=4 vs window=1 at " << delay_ms
            << "ms RTT: " << pipeline_speedup << "x\n";
  return 0;
}
