// The three workloads, the pieces the traced per-layer run shares with
// them, and the gate self-test.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/demand_profile.hpp"
#include "core/sequential_model.hpp"
#include "core/tradeoff.hpp"
#include "exec/cluster.hpp"
#include "gates.hpp"
#include "trace.hpp"

namespace perfbench {

// ---- analysis_batch -------------------------------------------------------

/// Trial size, bootstrap replicates / posterior draws and sweep grid of
/// `hmdiv_analyze --profile` at its defaults.
inline constexpr std::uint64_t kAnalysisCases = 200'000;
inline constexpr std::size_t kAnalysisSamples = 500;
inline constexpr std::size_t kAnalysisGridSteps = 20'000;

/// The seeded part of an analysis job: the `--improve` what-ifs handed to
/// the CLI, and what it must print for them.
struct AnalysisInputs {
  std::vector<std::string> improve_args;
  std::vector<std::string> expected_lines;
  double prediction = 0.0;  ///< Eq.-(8) failure probability, trial profile
};

[[nodiscard]] AnalysisInputs analysis_inputs(std::uint64_t seed);
[[nodiscard]] std::vector<std::string> analysis_argv(
    const Context& ctx, const AnalysisInputs& inputs, bool profile);
/// Applies every analysis gate to one CLI run; returns the failure
/// reason or "".
[[nodiscard]] std::string check_analysis_run(const ProcessRun& run,
                                             const AnalysisInputs& inputs,
                                             bool profile);

/// Wall time of the trial, of the bootstrap and of the whole of one
/// in-process analysis pipeline.
struct PipelineTimes {
  double trial_s = 0.0;
  double bootstrap_s = 0.0;
  double total_s = 0.0;
  std::uint32_t root_span = 0;
};

/// The CLI's profiling workload (trial, bootstrap, posterior, sweep,
/// minimise) run in this process through the same public calls, each
/// wrapped in a span. Seeds derive from `seed`. The bootstrap interval is
/// gated like the CLI's; a wrong one is recorded in `result`.
[[nodiscard]] PipelineTimes run_analysis_pipeline(Tracer& tracer,
                                                  std::uint64_t trace_id,
                                                  std::uint64_t seed,
                                                  unsigned threads,
                                                  Result& result);

[[nodiscard]] Result run_analysis_batch(const Context& ctx);

/// The trade-off analyzer the CLI's profiling workload sweeps.
[[nodiscard]] hmdiv::core::TradeoffAnalyzer profile_analyzer(
    const hmdiv::core::SequentialModel& model,
    const hmdiv::core::DemandProfile& field);
/// Per-class trial counts behind the posterior, as the CLI tabulates them.
[[nodiscard]] std::vector<hmdiv::core::ClassCounts> class_counts(
    const hmdiv::sim::TrialData& data, std::size_t classes);

// ---- fanout_grid ----------------------------------------------------------

/// Sizes of one grid pass (the ROADMAP ladder sizes by default).
struct GridSizes {
  std::uint64_t cases = 200'000;
  std::size_t sweep_points = 120'000;
  std::size_t minimise_steps = 120'000;
  std::size_t draws = 40'000;
};

/// Seeded inputs of a grid pass.
struct GridInputs {
  GridSizes sizes;
  std::uint64_t trial_seed = 0;
  std::uint64_t posterior_seed = 0;
  std::vector<double> thresholds;
  double cost_fn = 0.0;
  double cost_fp = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

[[nodiscard]] GridInputs grid_inputs(std::uint64_t seed, GridSizes sizes);

enum class Engine { in_process, shard, cluster };
inline constexpr unsigned kFanout = 4;  ///< shard processes / cluster workers

/// Wall time of each phase of one grid pass.
struct PassTimes {
  double trial_s = 0.0;
  double sweep_s = 0.0;
  double minimise_s = 0.0;
  double uq_s = 0.0;
  double total_s = 0.0;
};

/// Four loopback `hmdiv_serve --example` workers and a ClusterRunner with
/// warm connections to them.
class Fleet {
 public:
  /// Spawns `workers` daemons and connects (one tiny sweep).
  void start(const Context& ctx, unsigned workers = kFanout);
  /// Stops every daemon; returns the largest peak RSS among them, MB.
  double stop();
  [[nodiscard]] hmdiv::exec::ClusterRunner& runner() { return *runner_; }

 private:
  std::vector<std::unique_ptr<Daemon>> daemons_;
  std::unique_ptr<hmdiv::exec::ClusterRunner> runner_;
};

/// One grid pass through `engine`: trial, sweep, minimise, posterior
/// prediction, each through its public sim/core entry point and wrapped
/// in a span named "<layer>.<phase>". `threads` is the in-process thread
/// budget (0 = all hardware threads); fan-out tasks get one thread each.
[[nodiscard]] GridOutput run_grid_pass(Engine engine, const GridInputs& in,
                                       Tracer& tracer, std::uint64_t trace_id,
                                       Fleet* fleet, PassTimes& times,
                                       unsigned threads = 0);

/// A tiny sweep (one point per worker) through `engine`: the fixed cost
/// of the layer.
[[nodiscard]] double grid_floor_s(Engine engine, const GridInputs& in,
                                  Fleet* fleet);

[[nodiscard]] Result run_fanout_grid(const Context& ctx);

// ---- serve_trace ----------------------------------------------------------

enum class Op : std::uint8_t {
  whatif_hot,
  whatif_unique,
  compare_unique,
  sweep,
  minimise,
  uq,
  reload,
};
inline constexpr std::size_t kOpCount = 7;
/// The endpoint an op calls ("whatif", "compare", ...).
[[nodiscard]] const char* op_endpoint(Op op);

struct TraceEntry {
  Op op = Op::whatif_hot;
  std::uint8_t conn = 0;
  std::string line;  ///< one NDJSON request, no newline
};

/// Records the seeded request trace to `path` (one JSON line per entry,
/// carrying the op, the connection and the request) and returns it.
[[nodiscard]] std::vector<TraceEntry> record_trace(std::uint64_t seed,
                                                   std::size_t requests,
                                                   const std::string& path);
/// Reads a trace written by record_trace. Throws on a malformed file.
[[nodiscard]] std::vector<TraceEntry> load_trace(const std::string& path);

/// Client-side outcome of replaying a trace.
struct Replay {
  Clock::time_point start;  ///< when request 0 was due
  double rate = 0.0;        ///< requests/s (open loop)
  double wall_s = 0.0;
  std::vector<double> latency_us;  ///< per request, from when it was due
  std::vector<double> lag_us;      ///< per request, send time minus due
  std::vector<std::string> replies;
  bool backlog_grew = false;
};

/// Sends every entry as fast as the daemon answers (up to `window`
/// requests in flight per connection): the daemon's capacity.
[[nodiscard]] Replay replay_closed(int port, const std::vector<TraceEntry>& trace,
                                   std::size_t window);
/// Sends the entries open loop at `rate` requests/s from one generator
/// thread, `count` of them starting at `first` (wrapping).
[[nodiscard]] Replay replay_open(int port, const std::vector<TraceEntry>& trace,
                                 std::size_t first, std::size_t count,
                                 double rate);

/// Serve-side tallies of a replay: error codes and cache flags.
struct ReplyTally {
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
};
[[nodiscard]] ReplyTally tally_replies(const std::vector<std::string>& replies);

/// Byte-compares a seeded sample of `replay` replies against an
/// in-process Service and records mismatches in `result`.
void check_sampled_replies(const std::vector<TraceEntry>& trace,
                           std::size_t first, const Replay& replay,
                           std::uint64_t seed, std::size_t sample,
                           Result& result);

/// Requests in flight per connection in a capacity pass: deep enough that
/// the daemon never waits for the client.
inline constexpr std::size_t kCapacityWindow = 256;

/// The p99 limit a rate must meet to count as sustained, microseconds.
inline constexpr double kP99LimitUs = 2000.0;
/// A traced phase whose median send ran later than this is invalid: the
/// generator fell behind its schedule.
inline constexpr double kMaxLagUs = 500.0;

/// The reload request the benchmark sends before each replay so every
/// replay starts from empty caches.
[[nodiscard]] std::string reload_request();

[[nodiscard]] Result run_serve_trace(const Context& ctx);

// ---- traced per-layer run and self-test -----------------------------------

[[nodiscard]] Result run_layers(const Context& ctx);
[[nodiscard]] int run_selftest(const Context& ctx);

}  // namespace perfbench
