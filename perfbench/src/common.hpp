// Shared pieces of the benchmark binary: the run context, the result that
// becomes the last stdout line, quantiles over raw samples, sampling only
// while the host is quiet, child processes (the CLI and the daemon) and a
// loopback NDJSON client.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Everything one invocation was asked to do.
struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;  ///< directory holding hmdiv_analyze / hmdiv_serve
  std::string out_dir;  ///< where traces, spans and the result file go
  std::string commit;

  [[nodiscard]] std::string analyze_bin() const {
    return bin_dir + "/hmdiv_analyze";
  }
  [[nodiscard]] std::string serve_bin() const {
    return bin_dir + "/hmdiv_serve";
  }
};

/// One reported number. `samples` is how many measurements stand behind
/// it (1 for a count); it goes into the result file, not the last line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// The outcome of one run: correctness verdict, operation tallies and
/// the metrics. Wrong answers are recorded through fail(), which also
/// counts the operation as failed.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  /// Sample groups discarded because the host was busy (quiet_samples).
  std::size_t noisy_groups = 0;

  void add(std::string name, double value, std::string unit,
           std::size_t samples);
  void fail(std::string why);
};

/// Type-7 (linear interpolation) quantile of raw samples, q in [0, 1].
/// Throws on an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Splitmix64 step: the benchmark's own seeded input generator, kept
/// apart from the program's RNG so inputs depend on --seed alone.
struct InputRng {
  std::uint64_t state;
  explicit InputRng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n);
};

/// Appends `value` to `out` in the shortest form that reads back exactly.
void append_number(std::string& out, double value);
/// JSON string literal (quotes included) for `text`.
[[nodiscard]] std::string json_string(std::string_view text);

/// Outcome of running a program to completion with stdout captured.
struct ProcessRun {
  int exit_code = -1;        ///< -1 when it did not exit normally
  std::string out;           ///< captured stdout
  double wall_s = 0.0;       ///< fork to reap
  double max_rss_mb = 0.0;   ///< peak resident set of the child
};

/// Runs argv[0] with argv, stdout captured and stderr inherited; kills
/// the child after two minutes. The child dies with the benchmark.
[[nodiscard]] ProcessRun run_process(const std::vector<std::string>& argv);

/// A spawned `hmdiv_serve` on an ephemeral loopback port.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the daemon with `args` after `--port 0` and waits for its
  /// "listening on" line. Throws std::runtime_error on failure.
  void start(const std::string& binary, const std::vector<std::string>& args);
  /// SIGTERM, drain stdout, reap; fills max_rss_mb(). No-op when the
  /// daemon is not running.
  void stop();

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] double max_rss_mb() const { return max_rss_mb_; }
  [[nodiscard]] std::string address() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  double max_rss_mb_ = 0.0;
};

/// A blocking TCP socket connected to 127.0.0.1:port with TCP_NODELAY.
/// Throws on failure.
[[nodiscard]] int connect_loopback(int port);

/// A blocking loopback connection speaking newline-delimited JSON.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Connects to 127.0.0.1:port with TCP_NODELAY. Throws on failure.
  void connect(int port);
  /// Sends `line` (a newline is appended) and returns the reply line
  /// without its newline.
  [[nodiscard]] std::string call(std::string_view line);
  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Share of the machine's CPU time, in percent, that the hypervisor took
/// away (steal) between two readings of /proc/stat; 0 where it is not
/// reported. A run measured while the host was busy says so.
class StealMeter {
 public:
  StealMeter() { read(steal_, total_); }
  [[nodiscard]] double percent_since_start() const;

 private:
  static void read(std::uint64_t& steal, std::uint64_t& total);
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

/// Timings taken while the hypervisor withholds CPU time from this
/// machine measure the host, not the program: a group of samples counts
/// only if at most this share of the machine's CPU time was stolen while
/// it ran. A job that runs a thread on every CPU waits for the slowest,
/// so even 1% stolen machine-wide can slow it by a fifth.
inline constexpr double kMaxStealPct = 1.0;

/// Repeats `group()`, which takes a few samples and returns their
/// timings, keeping the groups the host left quiet (kMaxStealPct). Stops
/// once `min_kept` timings are kept and `seconds` have passed, or once
/// `seconds + budget_s` have passed; if too few timings were kept by
/// then, returns those of the least disturbed groups, at least
/// `min_kept`. Counts the groups left out in result.noisy_groups.
template <typename Group>
[[nodiscard]] std::vector<double> quiet_samples(Group&& group,
                                                std::size_t min_kept,
                                                double seconds,
                                                double budget_s,
                                                Result& result) {
  std::vector<std::pair<double, std::vector<double>>> groups;  // steal, timings
  std::size_t quiet = 0;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const StealMeter steal;
    std::vector<double> taken = group();
    const double steal_pct = steal.percent_since_start();
    if (steal_pct <= kMaxStealPct) quiet += taken.size();
    groups.emplace_back(steal_pct, std::move(taken));
    const double elapsed = seconds_since(start);
    if ((quiet >= min_kept && elapsed >= seconds) ||
        elapsed >= seconds + budget_s) {
      break;
    }
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> kept;
  for (const auto& [steal_pct, taken] : groups) {
    if (steal_pct > kMaxStealPct && kept.size() >= min_kept) {
      ++result.noisy_groups;
      continue;
    }
    kept.insert(kept.end(), taken.begin(), taken.end());
  }
  return kept;
}

/// Peak resident set of this process and of its reaped children, MB.
[[nodiscard]] double self_max_rss_mb();
[[nodiscard]] double children_max_rss_mb();

}  // namespace perfbench
