// fanout_grid: the grid phases of the profiling workload at the ladder
// sizes, run in-process, through exec::ShardRunner (4 local processes x
// 1 thread) and through exec::ClusterRunner (4 loopback daemons x
// 1 thread). The shard and cluster layers do nearly all of this work, and
// no bootstrap or serve code runs.
#include <algorithm>

#include "core/paper_example.hpp"
#include "core/tradeoff_shard.hpp"
#include "core/uncertainty_shard.hpp"
#include "exec/shard.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial_shard.hpp"
#include "stats/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = hmdiv::core;
namespace exec = hmdiv::exec;
namespace sim = hmdiv::sim;

GridInputs grid_inputs(std::uint64_t seed, GridSizes sizes) {
  InputRng rng(seed ^ 0x6121Du);
  GridInputs in;
  in.sizes = sizes;
  in.trial_seed = rng.next();
  in.posterior_seed = rng.next();
  in.lo = -4.0 - 0.5 * rng.uniform();
  in.hi = 4.0 + 0.5 * rng.uniform();
  in.cost_fn = 400.0 + 200.0 * rng.uniform();
  in.cost_fp = 15.0 + 10.0 * rng.uniform();
  in.thresholds.resize(sizes.sweep_points);
  for (std::size_t i = 0; i < sizes.sweep_points; ++i) {
    in.thresholds[i] = in.lo + (in.hi - in.lo) * static_cast<double>(i) /
                                   static_cast<double>(sizes.sweep_points - 1);
  }
  return in;
}

void Fleet::start(const Context& ctx, unsigned workers) {
  exec::ClusterOptions options;
  for (unsigned i = 0; i < workers; ++i) {
    daemons_.push_back(std::make_unique<Daemon>());
    daemons_.back()->start(ctx.serve_bin(), {"--example"});
    options.workers.push_back(daemons_.back()->address());
  }
  options.threads = 1;
  runner_ = std::make_unique<exec::ClusterRunner>(std::move(options));
  // Connections open on the first run.
  const core::TradeoffAnalyzer analyzer = profile_analyzer(
      core::paper::example_model(), core::paper::field_profile());
  (void)core::sweep_clustered(analyzer, {-1.0, 0.0, 1.0, 2.0}, *runner_);
}

double Fleet::stop() {
  runner_.reset();  // no-op when the fleet is not running
  double rss = 0.0;
  for (auto& d : daemons_) {
    d->stop();
    rss = std::max(rss, d->max_rss_mb());
  }
  daemons_.clear();
  return rss;
}

namespace {

/// "<layer>.<phase>": the module called in-process, or the fan-out layer.
std::string phase_span(Engine engine, const char* in_process_layer,
                       const char* phase) {
  switch (engine) {
    case Engine::in_process: return std::string(in_process_layer) + "." + phase;
    case Engine::shard: return std::string("exec.shard.") + phase;
    case Engine::cluster: return std::string("exec.cluster.") + phase;
  }
  return phase;
}

exec::ShardOptions shard_options(Engine engine, unsigned threads = 0) {
  exec::ShardOptions options;
  options.shards = engine == Engine::shard ? kFanout : 1;
  options.threads = engine == Engine::shard ? 1 : threads;
  return options;
}

const char* root_span(Engine engine) {
  switch (engine) {
    case Engine::in_process: return "bench.grid_in_process";
    case Engine::shard: return "bench.grid_shard";
    case Engine::cluster: return "bench.grid_cluster";
  }
  return "bench.grid";
}

}  // namespace

GridOutput run_grid_pass(Engine engine, const GridInputs& in, Tracer& tracer,
                         std::uint64_t trace_id, Fleet* fleet,
                         PassTimes& times, unsigned threads) {
  const core::SequentialModel model = core::paper::example_model();
  const core::DemandProfile field = core::paper::field_profile();
  const sim::TabularWorld world(model, core::paper::trial_profile());
  const core::TradeoffAnalyzer analyzer = profile_analyzer(model, field);
  const exec::ShardOptions options = shard_options(engine, threads);
  const bool cluster = engine == Engine::cluster;
  GridOutput out;

  const Clock::time_point start = Clock::now();
  const ScopedSpan root(tracer, root_span(engine), trace_id);
  Clock::time_point t = Clock::now();
  {
    const ScopedSpan span(tracer, phase_span(engine, "sim", "trial"), trace_id);
    out.trial = cluster ? sim::run_trial_clustered(world, in.sizes.cases,
                                                   in.trial_seed,
                                                   fleet->runner())
                        : sim::run_trial_sharded(world, in.sizes.cases,
                                                 in.trial_seed, options);
  }
  times.trial_s = seconds_since(t);
  t = Clock::now();
  {
    const ScopedSpan span(tracer, phase_span(engine, "core", "sweep"), trace_id);
    out.sweep = cluster ? core::sweep_clustered(analyzer, in.thresholds,
                                                fleet->runner())
                        : core::sweep_sharded(analyzer, in.thresholds, options);
  }
  times.sweep_s = seconds_since(t);
  t = Clock::now();
  {
    const ScopedSpan span(tracer, phase_span(engine, "core", "minimise"),
                          trace_id);
    out.best = cluster ? core::minimise_cost_clustered(
                             analyzer, in.cost_fn, in.cost_fp, in.lo, in.hi,
                             in.sizes.minimise_steps, fleet->runner())
                       : core::minimise_cost_sharded(
                             analyzer, in.cost_fn, in.cost_fp, in.lo, in.hi,
                             in.sizes.minimise_steps, options);
  }
  times.minimise_s = seconds_since(t);
  t = Clock::now();
  {
    const ScopedSpan span(tracer, phase_span(engine, "core", "uq"), trace_id);
    const core::PosteriorModelSampler sampler(
        model.class_names(), class_counts(out.trial, model.class_count()));
    hmdiv::stats::Rng rng(in.posterior_seed);
    out.uq = cluster ? core::predict_clustered(sampler, field, rng,
                                               in.sizes.draws, 0.95,
                                               fleet->runner())
                     : core::predict_sharded(sampler, field, rng,
                                             in.sizes.draws, 0.95, options);
  }
  times.uq_s = seconds_since(t);
  times.total_s = seconds_since(start);
  return out;
}

double grid_floor_s(Engine engine, const GridInputs& in, Fleet* fleet) {
  const core::TradeoffAnalyzer analyzer = profile_analyzer(
      core::paper::example_model(), core::paper::field_profile());
  std::vector<double> thresholds(kFanout);
  for (unsigned i = 0; i < kFanout; ++i) {
    thresholds[i] = in.lo + (in.hi - in.lo) * i / (kFanout - 1);
  }
  const Clock::time_point start = Clock::now();
  if (engine == Engine::cluster) {
    (void)core::sweep_clustered(analyzer, thresholds, fleet->runner());
  } else {
    (void)core::sweep_sharded(analyzer, thresholds, shard_options(engine));
  }
  return seconds_since(start);
}

Result run_fanout_grid(const Context& ctx) {
  Result result;
  const GridInputs in = grid_inputs(ctx.seed, GridSizes{});
  Tracer untraced;

  // Set-up: spawn the cluster workers and connect, plus one spawn of the
  // shard workers (a tiny sharded run); the last fleet stays up.
  Fleet fleet;
  double daemon_rss = 0.0;
  const std::vector<double> setup = quiet_samples(
      [&] {
        std::vector<double> group;
        for (int i = 0; i < 15; ++i) {
          daemon_rss = std::max(daemon_rss, fleet.stop());
          const Clock::time_point start = Clock::now();
          fleet.start(ctx);
          (void)grid_floor_s(Engine::shard, in, nullptr);
          group.push_back(seconds_since(start));
        }
        return group;
      },
      15, 0.0, 5.0, result);

  PassTimes times;
  const GridOutput reference =
      run_grid_pass(Engine::in_process, in, untraced, 0, nullptr, times);
  const auto checked_pass = [&](Engine engine) {
    PassTimes pass;
    const GridOutput out =
        run_grid_pass(engine, in, untraced, 0, &fleet, pass);
    ++result.attempted;
    if (const std::string why = check_identical(out, reference); !why.empty()) {
      result.fail(std::string(root_span(engine)) + ": " + why);
    }
    return pass.total_s;
  };
  // Warm-up round: page cache and the workers' first-task costs.
  (void)checked_pass(Engine::shard);
  (void)checked_pass(Engine::cluster);

  // Three rounds per group, so a group lasts long enough for the steal
  // counter's 10 ms ticks to resolve a 1% share.
  const std::vector<double> job = quiet_samples(
      [&] {
        std::vector<double> group;
        for (int i = 0; i < 3; ++i) {
          const double shard_s = checked_pass(Engine::shard);
          group.push_back(shard_s + checked_pass(Engine::cluster));
        }
        return group;
      },
      5, ctx.seconds, ctx.seconds / 2, result);
  daemon_rss = std::max(daemon_rss, fleet.stop());
  result.add("setup_s", median(setup), "s", setup.size());
  result.add("job_s", median(job), "s", job.size());
  result.add("peak_rss_mb",
             std::max({self_max_rss_mb(), children_max_rss_mb(), daemon_rss}),
             "MB", 1);
  return result;
}

}  // namespace perfbench
