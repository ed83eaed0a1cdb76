// analysis_batch: the wall time of `hmdiv_analyze --example --profile`,
// the job an analyst waits for, at its defaults and all hardware threads.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>

#include "core/paper_example.hpp"
#include "core/tradeoff_shard.hpp"
#include "core/uncertainty.hpp"
#include "core/uncertainty_shard.hpp"
#include "exec/config.hpp"
#include "exec/shard.hpp"
#include "report/format.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial_shard.hpp"
#include "stats/bootstrap.hpp"
#include "stats/rng.hpp"
#include "stats/special.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = hmdiv::core;
namespace exec = hmdiv::exec;
namespace sim = hmdiv::sim;
namespace stats = hmdiv::stats;

AnalysisInputs analysis_inputs(std::uint64_t seed) {
  InputRng rng(seed ^ 0xA11A1u);
  const core::SequentialModel model = core::paper::example_model();
  const core::DemandProfile field = core::paper::field_profile();
  AnalysisInputs in;
  in.prediction = model.system_failure_probability(core::paper::trial_profile());
  const double baseline = model.system_failure_probability(field);
  for (int i = 0; i < 2; ++i) {
    const std::string name = model.class_names()[rng.below(model.class_count())];
    char factor_text[16];
    std::snprintf(factor_text, sizeof factor_text, "%.2f",
                  0.05 + 0.9 * rng.uniform());
    const double factor = std::strtod(factor_text, nullptr);
    in.improve_args.push_back(name + "=" + factor_text);
    const auto improved =
        model.with_machine_improvement(model.index_of(name), factor);
    in.expected_lines.push_back(
        "- improve '" + name + "' by factor " + hmdiv::report::fixed(factor, 2) +
        ": field PHf " + hmdiv::report::fixed(baseline, 3) + " -> " +
        hmdiv::report::fixed(improved.system_failure_probability(field), 3));
  }
  return in;
}

std::vector<std::string> analysis_argv(const Context& ctx,
                                       const AnalysisInputs& inputs,
                                       bool profile) {
  std::vector<std::string> argv{ctx.analyze_bin(), "--example"};
  for (const std::string& arg : inputs.improve_args) {
    argv.push_back("--improve");
    argv.push_back(arg);
  }
  if (profile) argv.push_back("--profile");
  return argv;
}

std::string check_analysis_run(const ProcessRun& run,
                               const AnalysisInputs& inputs, bool profile) {
  if (run.exit_code != 0) {
    return "hmdiv_analyze exited with " + std::to_string(run.exit_code);
  }
  const AnalysisOutput out = parse_analysis_output(run.out);
  if (std::string why = check_lines(out.whatif_lines, inputs.expected_lines);
      !why.empty()) {
    return why;
  }
  if (!profile) return {};
  if (!out.complete) return "profiling table missing from hmdiv_analyze output";
  for (std::string why :
       {check_prediction(out.predicted, inputs.prediction),
        check_observed_rate(out.observed, inputs.prediction, kAnalysisCases),
        check_bootstrap_interval(out.boot_lower, out.boot_upper, out.observed,
                                 kAnalysisCases, 0.95)}) {
    if (!why.empty()) return why;
  }
  return {};
}

core::TradeoffAnalyzer profile_analyzer(const core::SequentialModel& model,
                                        const core::DemandProfile& field) {
  // The binormal machine the CLI's profiling workload sweeps: each
  // class's PMf at threshold 0 fixes its mean score.
  core::BinormalMachine machine;
  std::vector<core::HumanFnResponse> fn_response;
  std::vector<core::HumanFpResponse> fp_response;
  for (std::size_t x = 0; x < model.class_count(); ++x) {
    const auto& p = model.parameters(x);
    const double p_mf =
        std::min(std::max(p.p_machine_fails, 1e-9), 1.0 - 1e-9);
    machine.cancer_class_means.push_back(-stats::normal_quantile(p_mf));
    machine.normal_class_means.push_back(-2.0);
    fn_response.push_back({p.p_human_fails_given_machine_succeeds,
                           p.p_human_fails_given_machine_fails});
    fp_response.push_back({0.1, 0.02});
  }
  return core::TradeoffAnalyzer(machine, field, fn_response, field,
                                fp_response, /*prevalence=*/0.007);
}

std::vector<core::ClassCounts> class_counts(const sim::TrialData& data,
                                            std::size_t classes) {
  std::vector<core::ClassCounts> counts(classes);
  for (const auto& record : data.records) {
    auto& c = counts[record.class_index];
    ++c.cases;
    if (record.machine_failed) {
      ++c.machine_failures;
      if (record.human_failed) ++c.human_failures_given_machine_failed;
    } else if (record.human_failed) {
      ++c.human_failures_given_machine_succeeded;
    }
  }
  return counts;
}

PipelineTimes run_analysis_pipeline(Tracer& tracer, std::uint64_t trace_id,
                                    std::uint64_t seed, unsigned threads,
                                    Result& result) {
  InputRng seeds(seed ^ 0x9199u);
  const core::SequentialModel model = core::paper::example_model();
  const core::DemandProfile trial = core::paper::trial_profile();
  const core::DemandProfile field = core::paper::field_profile();
  const exec::Config config{threads};
  exec::ShardOptions in_process;
  in_process.shards = 1;
  in_process.threads = threads;
  PipelineTimes times;
  const Clock::time_point start = Clock::now();
  const ScopedSpan root(tracer, "bench.analysis_batch", trace_id);
  times.root_span = root.id();

  const sim::TabularWorld world(model, trial);
  Clock::time_point t = Clock::now();
  sim::TrialData data;
  {
    const ScopedSpan span(tracer, "sim.trial", trace_id);
    data = sim::run_trial_sharded(world, kAnalysisCases, seeds.next(),
                                  in_process);
  }
  times.trial_s = seconds_since(t);

  std::vector<double> failures;
  std::vector<core::ClassCounts> counts;
  {
    const ScopedSpan span(tracer, "bench.tabulate", trace_id);
    failures.reserve(data.records.size());
    for (const auto& record : data.records) {
      failures.push_back(record.human_failed ? 1.0 : 0.0);
    }
    counts = class_counts(data, model.class_count());
  }

  t = Clock::now();
  stats::BootstrapResult interval;
  {
    const ScopedSpan span(tracer, "stats.bootstrap", trace_id);
    const auto mean = [](std::span<const double> s) {
      double total = 0.0;
      for (const double v : s) total += v;
      return total / static_cast<double>(s.size());
    };
    stats::Rng rng(seeds.next());
    interval = stats::bootstrap_percentile(failures, mean, rng,
                                           kAnalysisSamples, 0.95, config);
  }
  times.bootstrap_s = seconds_since(t);

  {
    const ScopedSpan span(tracer, "core.predict", trace_id);
    const core::PosteriorModelSampler sampler(model.class_names(), counts);
    stats::Rng rng(seeds.next());
    (void)core::predict_sharded(sampler, field, rng, kAnalysisSamples, 0.95,
                                in_process);
  }

  const core::TradeoffAnalyzer analyzer = profile_analyzer(model, field);
  std::vector<double> thresholds(kAnalysisGridSteps);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) /
                               static_cast<double>(thresholds.size() - 1);
  }
  {
    const ScopedSpan span(tracer, "core.sweep", trace_id);
    (void)core::sweep_sharded(analyzer, thresholds, in_process);
  }
  {
    const ScopedSpan span(tracer, "core.minimise", trace_id);
    (void)core::minimise_cost_sharded(analyzer, 500.0, 20.0, -4.0, 4.0,
                                      kAnalysisGridSteps, in_process);
  }
  times.total_s = seconds_since(start);

  ++result.attempted;
  const double observed = data.observed_failure_rate();
  for (const std::string& why :
       {check_observed_rate(observed, model.system_failure_probability(trial),
                            kAnalysisCases),
        check_bootstrap_interval(interval.lower, interval.upper, observed,
                                 kAnalysisCases, 0.95)}) {
    if (!why.empty()) result.fail("in-process pipeline: " + why);
  }
  return times;
}

Result run_analysis_batch(const Context& ctx) {
  Result result;
  const AnalysisInputs inputs = analysis_inputs(ctx.seed);
  const auto run_checked = [&](bool profile) {
    ProcessRun run = run_process(analysis_argv(ctx, inputs, profile));
    ++result.attempted;
    if (const std::string why = check_analysis_run(run, inputs, profile);
        !why.empty()) {
      result.fail(why);
    }
    return run;
  };

  // Set-up: the same job without --profile (model load and report).
  const std::vector<double> setup = quiet_samples(
      [&] {
        std::vector<double> group;
        for (int i = 0; i < 31; ++i) group.push_back(run_checked(false).wall_s);
        return group;
      },
      31, 0.0, 5.0, result);

  (void)run_checked(true);  // warm-up: page cache, CPU frequency
  std::vector<double> rss;
  const std::vector<double> job = quiet_samples(
      [&]() -> std::vector<double> {
        const ProcessRun run = run_checked(true);
        rss.push_back(run.max_rss_mb);
        return {run.wall_s};
      },
      5, ctx.seconds, ctx.seconds / 2, result);
  result.add("setup_s", median(setup), "s", setup.size());
  result.add("job_s", median(job), "s", job.size());
  result.add("peak_rss_mb", median(rss), "MB", rss.size());
  return result;
}

}  // namespace perfbench
