// The traced per-layer run. It covers every layer whatever --workload
// names, so each per-layer metric comes from the workload that exercises
// it: stats, sim and the exec pool from the analysis pipeline; core, the
// pool speedups and the shard and cluster layers from the grid passes;
// serve from the request trace. Spans are recorded around the benchmark's
// own calls into each module's public functions; quantiles come from the
// benchmark's raw samples and only counts and totals from obs.
#include <algorithm>
#include <cmath>
#include <thread>

#include "core/paper_example.hpp"
#include "obs/obs.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = hmdiv::core;
namespace obs = hmdiv::obs;

double histogram_sum_s(const obs::Snapshot& delta, std::string_view name) {
  for (const auto& h : delta.histograms) {
    if (h.name == name) return static_cast<double>(h.sum) * 1e-9;
  }
  return 0.0;
}

double counter(const obs::Snapshot& delta, std::string_view name) {
  for (const auto& c : delta.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}

/// Medians of named samples, with their counts.
struct Samples {
  std::map<std::string, std::vector<double>> values;
  void push(const std::string& name, double v) { values[name].push_back(v); }
  [[nodiscard]] double med(const std::string& name) const {
    return median(values.at(name));
  }
  [[nodiscard]] std::size_t n(const std::string& name) const {
    return values.at(name).size();
  }
};

void analysis_layers(const Context& ctx, Tracer& tracer, Result& result) {
  const unsigned threads = std::max(2u, std::thread::hardware_concurrency());
  const AnalysisInputs inputs = analysis_inputs(ctx.seed);
  const auto cli_run = [&] {
    const ProcessRun run = run_process(analysis_argv(ctx, inputs, true));
    ++result.attempted;
    if (const std::string why = check_analysis_run(run, inputs, true);
        !why.empty()) {
      result.fail(why);
    }
    return run.wall_s;
  };

  // Each round times the CLI's job_s, then the pipeline untraced with obs
  // off and on, then traced with obs on, as `--profile` runs the CLI, so
  // the spans time the same work job_s does. Shares of job_s are taken
  // within a round, where the machine's speed is the same for both.
  Samples s;
  std::uint64_t trace_id = 1;
  (void)cli_run();  // warm-up
  (void)run_analysis_pipeline(tracer, 0, ctx.seed, threads, result);
  for (int round = 0; round < 5; ++round) {
    const double job_s = cli_run();
    s.push("job", job_s);
    tracer.set_enabled(false);
    s.push("untraced", run_analysis_pipeline(tracer, 0, ctx.seed, threads,
                                             result).total_s);
    obs::set_enabled(true);
    const obs::Snapshot before = obs::registry_snapshot();
    s.push("obs", run_analysis_pipeline(tracer, 0, ctx.seed, threads, result)
                      .total_s);
    const obs::Snapshot delta =
        obs::snapshot_delta(before, obs::registry_snapshot());
    s.push("caller_busy", histogram_sum_s(delta, "exec.pool.caller_busy_ns"));
    s.push("helper_busy", histogram_sum_s(delta, "exec.pool.helper_busy_ns"));
    s.push("queue_wait", histogram_sum_s(delta, "exec.pool.queue_wait_ns"));
    s.push("pool_tasks", counter(delta, "exec.pool.tasks"));

    tracer.set_enabled(true);
    const PipelineTimes t =
        run_analysis_pipeline(tracer, trace_id++, ctx.seed, threads, result);
    obs::set_enabled(false);
    s.push("traced", t.total_s);
    s.push("bootstrap", t.bootstrap_s);
    s.push("bootstrap_share", t.bootstrap_s / job_s);
    s.push("trial", t.trial_s);
    std::map<std::string, double> self = tracer.self_seconds(t.root_span);
    double layers = 0.0;
    for (const char* layer : {"stats", "sim", "core"}) {
      s.push(std::string("self.") + layer, self[layer]);
      layers += self[layer];
    }
    s.push("self.bench", self["bench"]);
    s.push("coverage", layers / job_s);
  }
  const PipelineTimes serial =
      run_analysis_pipeline(tracer, trace_id++, ctx.seed, 1, result);

  const double bootstrap = s.med("bootstrap");
  const double trial = s.med("trial");
  result.add("stats.bootstrap_s", bootstrap, "s", s.n("bootstrap"));
  result.add("stats.bootstrap.replicates_per_s",
             static_cast<double>(kAnalysisSamples) / bootstrap, "1/s",
             s.n("bootstrap"));
  result.add("stats.bootstrap.share_pct", 100.0 * s.med("bootstrap_share"),
             "%", s.n("bootstrap_share"));
  result.add("stats.self_s", s.med("self.stats"), "s", s.n("self.stats"));
  result.add("sim.trial_s", trial, "s", s.n("trial"));
  result.add("sim.trial.cases_per_s", static_cast<double>(kAnalysisCases) / trial,
             "1/s", s.n("trial"));
  result.add("sim.self_s", s.med("self.sim"), "s", s.n("self.sim"));
  result.add("core.self_s", s.med("self.core"), "s", s.n("self.core"));
  result.add("bench.self_s", s.med("self.bench"), "s", s.n("self.bench"));
  result.add("bench.layer_coverage_pct", 100.0 * s.med("coverage"), "%",
             s.n("coverage"));
  result.add("bench.analysis_job_s", s.med("job"), "s", s.n("job"));
  result.add("bench.trace_overhead_pct",
             100.0 * (s.med("traced") / s.med("obs") - 1.0), "%",
             s.n("traced"));
  result.add("obs.enabled_overhead_pct",
             100.0 * (s.med("obs") / s.med("untraced") - 1.0), "%", s.n("obs"));
  result.add("exec.pool.speedup.bootstrap", serial.bootstrap_s / bootstrap,
             "ratio", 1);
  result.add("exec.pool.caller_busy_s", s.med("caller_busy"), "s",
             s.n("caller_busy"));
  result.add("exec.pool.helper_busy_s", s.med("helper_busy"), "s",
             s.n("helper_busy"));
  result.add("exec.pool.queue_wait_s", s.med("queue_wait"), "s",
             s.n("queue_wait"));
  result.add("exec.pool.tasks", s.med("pool_tasks"), "count",
             s.n("pool_tasks"));
}

struct ClusterTally {
  double bytes_out = 0, bytes_in = 0, tasks = 0, retries = 0;
};

ClusterTally cluster_tally(const hmdiv::exec::ClusterRunner& runner) {
  ClusterTally t;
  for (const auto& w : runner.worker_stats()) {
    t.bytes_out += static_cast<double>(w.bytes_out);
    t.bytes_in += static_cast<double>(w.bytes_in);
    t.tasks += static_cast<double>(w.tasks);
    t.retries += static_cast<double>(w.retries);
  }
  return t;
}

void grid_layers(const Context& ctx, Tracer& tracer, Result& result) {
  const GridInputs in = grid_inputs(ctx.seed, GridSizes{});
  Fleet fleet;
  fleet.start(ctx);
  Samples s;
  PassTimes times;
  std::uint64_t trace_id = 1000;
  const GridOutput reference =
      run_grid_pass(Engine::in_process, in, tracer, trace_id++, nullptr, times);
  const auto check = [&](const GridOutput& out, const char* what) {
    ++result.attempted;
    if (const std::string why = check_identical(out, reference); !why.empty()) {
      result.fail(std::string(what) + ": " + why);
    }
  };
  check(run_grid_pass(Engine::shard, in, tracer, trace_id++, &fleet, times),
        "shard warm-up pass");
  check(run_grid_pass(Engine::cluster, in, tracer, trace_id++, &fleet, times),
        "cluster warm-up pass");
  const auto push_pass = [&](const std::string& prefix, const PassTimes& t) {
    s.push(prefix + "trial_s", t.trial_s);
    s.push(prefix + "sweep_s", t.sweep_s);
    s.push(prefix + "minimise_s", t.minimise_s);
    s.push(prefix + "uq_s", t.uq_s);
    s.push(prefix + "job_s", t.total_s);
  };
  for (int round = 0; round < 3; ++round) {
    check(run_grid_pass(Engine::in_process, in, tracer, trace_id++, nullptr,
                        times),
          "in-process pass");
    push_pass("core.", times);
    check(run_grid_pass(Engine::in_process, in, tracer, trace_id++, nullptr,
                        times, 1),
          "serial pass");
    push_pass("serial.", times);
    check(run_grid_pass(Engine::shard, in, tracer, trace_id++, &fleet, times),
          "shard pass");
    push_pass("exec.shard.", times);
    const ClusterTally before = cluster_tally(fleet.runner());
    check(run_grid_pass(Engine::cluster, in, tracer, trace_id++, &fleet, times),
          "cluster pass");
    push_pass("exec.cluster.", times);
    const ClusterTally after = cluster_tally(fleet.runner());
    s.push("bytes_out", after.bytes_out - before.bytes_out);
    s.push("bytes_in", after.bytes_in - before.bytes_in);
    s.push("tasks", after.tasks - before.tasks);
    s.push("retries", after.retries - before.retries);
  }
  for (int i = 0; i < 5; ++i) {
    s.push("floor.in_process", grid_floor_s(Engine::in_process, in, nullptr));
    s.push("floor.shard", grid_floor_s(Engine::shard, in, nullptr));
    s.push("floor.cluster", grid_floor_s(Engine::cluster, in, &fleet));
  }
  fleet.stop();

  const double points = static_cast<double>(in.sizes.sweep_points);
  result.add("core.sweep_s", s.med("core.sweep_s"), "s", s.n("core.sweep_s"));
  result.add("core.minimise_s", s.med("core.minimise_s"), "s",
             s.n("core.minimise_s"));
  result.add("core.uq_s", s.med("core.uq_s"), "s", s.n("core.uq_s"));
  result.add("core.sweep.points_per_s", points / s.med("core.sweep_s"), "1/s",
             s.n("core.sweep_s"));
  result.add("core.uq.draws_per_s",
             static_cast<double>(in.sizes.draws) / s.med("core.uq_s"), "1/s",
             s.n("core.uq_s"));
  result.add("exec.pool.speedup.trial",
             s.med("serial.trial_s") / s.med("core.trial_s"), "ratio",
             s.n("serial.trial_s"));
  result.add("exec.pool.speedup.sweep",
             s.med("serial.sweep_s") / s.med("core.sweep_s"), "ratio",
             s.n("serial.sweep_s"));
  const double in_process_floor = s.med("floor.in_process");
  for (const std::string layer : {"exec.shard", "exec.cluster"}) {
    for (const char* phase : {"trial_s", "sweep_s", "minimise_s", "uq_s",
                              "job_s"}) {
      const std::string name = layer + "." + phase;
      result.add(name, s.med(name), "s", s.n(name));
    }
    const std::string floor_key =
        layer == "exec.shard" ? "floor.shard" : "floor.cluster";
    const double floor = s.med(floor_key);
    result.add(layer + ".floor_s", floor, "s", s.n(floor_key));
    result.add(layer + ".speedup",
               s.med("core.job_s") / s.med(layer + ".job_s"), "ratio",
               s.n(layer + ".job_s"));
    // Where the layer's line (floor + slope * points) meets the
    // in-process line, for the sweep; -1 when the layer's per-point
    // slope is no better, so it never catches up.
    const double slope_layer = (s.med(layer + ".sweep_s") - floor) / points;
    const double slope_in_process =
        (s.med("core.sweep_s") - in_process_floor) / points;
    result.add(layer + ".crossover_items",
               slope_layer < slope_in_process
                   ? (floor - in_process_floor) /
                         (slope_in_process - slope_layer)
                   : -1.0,
               "count", s.n(layer + ".sweep_s"));
  }
  result.add("exec.cluster.bytes_out", s.med("bytes_out"), "bytes",
             s.n("bytes_out"));
  result.add("exec.cluster.bytes_in", s.med("bytes_in"), "bytes",
             s.n("bytes_in"));
  result.add("exec.cluster.tasks", s.med("tasks"), "count", s.n("tasks"));
  result.add("exec.cluster.retries", s.med("retries"), "count",
             s.n("retries"));
}

/// Latencies of the requests whose entry and reply satisfy `keep`.
template <typename Keep>
std::vector<double> latencies(const Replay& r,
                              const std::vector<TraceEntry>& trace,
                              std::size_t first, Keep keep) {
  std::vector<double> out;
  for (std::size_t k = 0; k < r.latency_us.size(); ++k) {
    if (keep(trace[(first + k) % trace.size()], r.replies[k])) {
      out.push_back(r.latency_us[k]);
    }
  }
  return out;
}

bool is_hit(std::string_view reply) {
  return reply.find("\"cached\":true") != std::string_view::npos;
}

void serve_layers(const Context& ctx, Tracer& tracer, Result& result) {
  const std::string path = ctx.out_dir + "/serve_trace.ndjson";
  (void)record_trace(ctx.seed, 40'000, path);
  const std::vector<TraceEntry> trace = load_trace(path);

  // Dispatch cost: the same trace through an in-process Service at the
  // daemon's defaults (obs on, as the daemon runs), one request at a time.
  std::map<std::string, std::vector<double>> dispatch;
  std::vector<double> dispatch_hits;
  {
    hmdiv::serve::Service service(core::paper::example_model(),
                                  core::paper::trial_profile(),
                                  core::paper::field_profile());
    hmdiv::serve::RequestScratch scratch;
    std::string reply;
    obs::set_enabled(true);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      reply.clear();
      const Clock::time_point a = Clock::now();
      service.handle_line(trace[i].line, scratch, reply);
      const Clock::time_point b = Clock::now();
      tracer.record("serve.dispatch", i + 1, 0, a, b);
      const double us = std::chrono::duration<double, std::micro>(b - a).count();
      dispatch[op_endpoint(trace[i].op)].push_back(us);
      if (trace[i].op == Op::whatif_hot && is_hit(reply)) {
        dispatch_hits.push_back(us);
      }
    }
    obs::set_enabled(false);
  }
  for (const auto& [endpoint, us] : dispatch) {
    result.add("serve.dispatch_us." + endpoint + ".p50", quantile(us, 0.5), "us",
               us.size());
    result.add("serve.dispatch_us." + endpoint + ".p99", quantile(us, 0.99),
               "us", us.size());
  }

  Daemon daemon;
  daemon.start(ctx.serve_bin(), {"--example"});
  LineClient control;
  control.connect(daemon.port());
  const std::string reload = reload_request();
  const auto fresh = [&] {
    if (control.call(reload).find("\"ok\":true") == std::string::npos) {
      result.fail("reload before a replay failed");
    }
  };
  std::vector<double> capacity_walls;
  for (int i = 0; i < 3; ++i) {
    fresh();
    capacity_walls.push_back(
        replay_closed(daemon.port(), trace, kCapacityWindow).wall_s);
  }
  const double capacity =
      static_cast<double>(trace.size()) / median(capacity_walls);
  result.add("serve.capacity_rps", capacity, "1/s", capacity_walls.size());

  // Open-loop phases. Nominal and peak are traced request by request.
  const double phase_s = std::clamp(0.15 * ctx.seconds, 0.4, 3.0);
  std::size_t first = 0;
  ReplyTally tally;
  std::vector<double> lag;
  std::vector<double> reload_us;
  double max_rate = 0.0;
  const auto phase = [&](const char* name, double fraction, bool traced) {
    fresh();
    const double rate = fraction * capacity;
    const auto count = static_cast<std::size_t>(rate * phase_s);
    const Replay r = replay_open(daemon.port(), trace, first, count, rate);
    result.attempted += count;
    const ReplyTally t = tally_replies(r.replies);
    result.failed += t.errors;
    tally.ok += t.ok;
    tally.errors += t.errors;
    tally.shed += t.shed;
    tally.deadline_exceeded += t.deadline_exceeded;
    tally.cache_lookups += t.cache_lookups;
    tally.cache_hits += t.cache_hits;
    lag.insert(lag.end(), r.lag_us.begin(), r.lag_us.end());
    for (const double us : latencies(r, trace, first, [](const TraceEntry& e,
                                                         std::string_view) {
           return e.op == Op::reload;
         })) {
      reload_us.push_back(us);
    }
    const double p99 = quantile(r.latency_us, 0.99);
    if (p99 <= kP99LimitUs && !r.backlog_grew) max_rate = std::max(max_rate, rate);
    if (traced) {
      // A generator that fell behind did not offer the load it claims. A
      // brief stall of the whole machine delays a burst of sends but not
      // the median one, and the requests it delays are already timed from
      // when they were due.
      if (quantile(r.lag_us, 0.5) > kMaxLagUs) {
        result.fail(std::string("generator fell behind at the ") + name +
                    " rate");
      }
      const std::uint32_t root = tracer.begin(std::string("bench.serve_") + name,
                                              0);
      for (std::size_t k = 0; k < count; ++k) {
        const Clock::time_point due =
            r.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(k) / rate));
        tracer.record("serve.request", (first + k) % trace.size() + 1, root,
                      due,
                      due + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::micro>(
                                    r.latency_us[k])));
      }
      tracer.end(root);
      check_sampled_replies(trace, first, r, ctx.seed, 200, result);
    }
    first = (first + count) % trace.size();
    return r;
  };
  const Replay nominal = phase("nominal", 0.25, true);
  const Replay peak = phase("peak", 0.67, true);
  for (const double fraction : {0.5, 0.8, 0.9, 1.0}) {
    (void)phase("ladder", fraction, false);
  }
  control.close();
  daemon.stop();

  result.add("serve.rate_rps.nominal", nominal.rate, "1/s", 1);
  result.add("serve.p50_us.nominal", quantile(nominal.latency_us, 0.5), "us",
             nominal.latency_us.size());
  result.add("serve.p99_us.nominal", quantile(nominal.latency_us, 0.99), "us",
             nominal.latency_us.size());
  result.add("serve.rate_rps.peak", peak.rate, "1/s", 1);
  result.add("serve.p50_us.peak", quantile(peak.latency_us, 0.5), "us",
             peak.latency_us.size());
  result.add("serve.p99_us.peak", quantile(peak.latency_us, 0.99), "us",
             peak.latency_us.size());
  result.add("serve.max_rate_rps", max_rate, "1/s", 6);
  // The nominal phase ran first, so it started at request 0.
  const std::vector<double> client_hits = latencies(
      nominal, trace, 0, [](const TraceEntry& e, std::string_view reply) {
        return e.op == Op::whatif_hot && is_hit(reply);
      });
  result.add("serve.transport_us.p50",
             quantile(client_hits, 0.5) - quantile(dispatch_hits, 0.5), "us",
             client_hits.size());
  result.add("serve.cache_hit_ratio",
             static_cast<double>(tally.cache_hits) /
                 static_cast<double>(tally.cache_lookups),
             "ratio", tally.cache_lookups);
  result.add("serve.cache_lookups", static_cast<double>(tally.cache_lookups),
             "count", 1);
  result.add("serve.reload_us", median(reload_us), "us", reload_us.size());
  result.add("serve.shed", static_cast<double>(tally.shed), "count", 1);
  result.add("serve.deadline_exceeded",
             static_cast<double>(tally.deadline_exceeded), "count", 1);
  result.add("serve.attempted", static_cast<double>(tally.ok + tally.errors),
             "count", 1);
  result.add("serve.generator_lag_us.p99", quantile(lag, 0.99), "us",
             lag.size());
}

}  // namespace

Result run_layers(const Context& ctx) {
  Result result;
  Tracer tracer;
  tracer.set_enabled(true);
  analysis_layers(ctx, tracer, result);
  tracer.set_enabled(true);
  grid_layers(ctx, tracer, result);
  serve_layers(ctx, tracer, result);
  const std::string path = ctx.out_dir + "/spans-" + ctx.workload + ".ndjson";
  if (!tracer.write(path)) result.fail("cannot write spans to " + path);
  return result;
}

}  // namespace perfbench
