// Experiment P1 — engineering microbenchmarks (google-benchmark): cost of
// model evaluation, decomposition, RBD evaluation (formula vs enumeration),
// simulation throughput, and the thread-scaling of the exec engine's
// Monte-Carlo hot paths (bootstrap, posterior propagation, trial
// simulation, threshold sweeps) at 1/2/4/8 threads. The scaling benches
// use UseRealTime so wall-clock speedup — the quantity the engine buys —
// is what the trajectory tracks; on an N-core machine the >=4-thread
// numbers should show close to min(4, N)x throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "bench_profile.hpp"

#include "core/design_advisor.hpp"
#include "core/paper_example.hpp"
#include "core/tradeoff.hpp"
#include "core/tradeoff_shard.hpp"
#include "core/uncertainty.hpp"
#include "core/uncertainty_shard.hpp"
#include "exec/parallel.hpp"
#include "exec/shard.hpp"
#include "rbd/structure.hpp"
#include "serve/service.hpp"
#include "sim/estimation.hpp"
#include "sim/feature_world.hpp"
#include "sim/parallel_world.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"
#include "sim/trial_shard.hpp"
#include "stats/bootstrap.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hmdiv;

void BM_SequentialModelEq8(benchmark::State& state) {
  const auto model = core::paper::example_model();
  const auto profile = core::paper::field_profile();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.system_failure_probability(profile));
  }
}
BENCHMARK(BM_SequentialModelEq8);

void BM_SequentialModelDecompose(benchmark::State& state) {
  const auto model = core::paper::example_model();
  const auto profile = core::paper::field_profile();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.decompose(profile));
  }
}
BENCHMARK(BM_SequentialModelDecompose);

void BM_DesignAdvisorDiagnose(benchmark::State& state) {
  const core::DesignAdvisor advisor(core::paper::example_model(),
                                    core::paper::field_profile());
  for (auto _ : state) {
    benchmark::DoNotOptimize(advisor.diagnose());
  }
}
BENCHMARK(BM_DesignAdvisorDiagnose);

rbd::Structure chain_of_parallel_pairs(std::size_t pairs) {
  std::vector<rbd::Structure> blocks;
  for (std::size_t i = 0; i < pairs; ++i) {
    blocks.push_back(rbd::Structure::any_of(
        {rbd::Structure::component(2 * i),
         rbd::Structure::component(2 * i + 1)}));
  }
  return rbd::Structure::series(std::move(blocks));
}

void BM_RbdFormula(benchmark::State& state) {
  const auto pairs = static_cast<std::size_t>(state.range(0));
  const auto structure = chain_of_parallel_pairs(pairs);
  const std::vector<double> success(2 * pairs, 0.9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(structure.success_probability(success));
  }
}
BENCHMARK(BM_RbdFormula)->Arg(2)->Arg(5)->Arg(10);

void BM_RbdEnumeration(benchmark::State& state) {
  const auto pairs = static_cast<std::size_t>(state.range(0));
  const auto structure = chain_of_parallel_pairs(pairs);
  const std::vector<double> success(2 * pairs, 0.9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(structure.success_by_enumeration(success));
  }
}
BENCHMARK(BM_RbdEnumeration)->Arg(2)->Arg(5)->Arg(10);

void BM_TabularWorldCase(benchmark::State& state) {
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  stats::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.simulate_case(rng));
  }
}
BENCHMARK(BM_TabularWorldCase);

void BM_FeatureWorldCase(benchmark::State& state) {
  auto world = sim::reference_feature_world();
  world.set_adaptation_enabled(false);
  stats::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.simulate_case(rng));
  }
}
BENCHMARK(BM_FeatureWorldCase);

// --- Scalar vs batched kernels -------------------------------------------
// BM_TabularWorldCase above is the scalar per-case reference;
// BM_TabularWorldBatchKernel is the SoA kernel (bulk RNG + alias class
// sampling + hoisted tables) on the same world. The per-case ratio is the
// single-thread win of the batched path.

void BM_TabularWorldBatchKernel(benchmark::State& state) {
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  std::vector<sim::CaseRecord> records(sim::TrialRunner::kBatchSize);
  stats::Rng rng(1);
  for (auto _ : state) {
    world.simulate_batch(records, rng);
    benchmark::DoNotOptimize(records.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_TabularWorldBatchKernel);

void BM_ParallelWorldBatchKernel(benchmark::State& state) {
  auto base = sim::reference_feature_world();
  sim::ParallelProcedureWorld world(base.generator(), base.cadt(),
                                    base.reader());
  std::vector<sim::ParallelProcedureRecord> records(
      sim::TrialRunner::kBatchSize);
  stats::Rng rng(5);
  for (auto _ : state) {
    world.simulate_batch(records, rng);
    benchmark::DoNotOptimize(records.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_ParallelWorldBatchKernel);

// Whole-trial comparison: the scalar reference run (per-case virtual
// dispatch, one shared stream) against the batched engine run at one
// thread (same world, same case count). Their items/sec ratio is the
// throughput win the batched path buys before any parallelism.
void BM_TrialRunScalarReference(benchmark::State& state) {
  constexpr std::uint64_t kCases = 200'000;
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  sim::TrialRunner runner(world, kCases);
  for (auto _ : state) {
    stats::Rng rng(1234);
    benchmark::DoNotOptimize(runner.run(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kCases));
}
BENCHMARK(BM_TrialRunScalarReference)->Unit(benchmark::kMillisecond);

void BM_EstimateFromTrial(benchmark::State& state) {
  const auto cases = static_cast<std::uint64_t>(state.range(0));
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  sim::TrialRunner runner(world, cases);
  stats::Rng rng(3);
  const auto data = runner.run(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::estimate_sequential_model(data));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cases));
}
BENCHMARK(BM_EstimateFromTrial)->Arg(1000)->Arg(10000)->Arg(100000);

// --- Analytical sweep engine: scalar vs batched --------------------------
// BM_SweepScalarReference walks a 10k-point threshold grid through the
// documented scalar evaluate(); BM_SweepBatchKernel streams the same grid
// through the SoA evaluate_batch() at one thread. Both produce bit-identical
// operating points (enforced by SweepEngine tests), so the per-point ratio
// is the pure single-thread win of the batched kernel — the PR target is
// >= 3x. BM_SweepZeroAllocation adds the arena-backed sweep_into() path
// whose steady state performs no heap allocation.

core::TradeoffAnalyzer reference_sweep_analyzer() {
  core::BinormalMachine machine;
  machine.cancer_class_means = {2.2, 1.4, 3.0};
  machine.normal_class_means = {-0.3, 0.4};
  return core::TradeoffAnalyzer(
      machine,
      core::DemandProfile::from_weights({"obvious", "subtle", "textbook"},
                                        {0.55, 0.35, 0.10}),
      {{0.08, 0.45}, {0.25, 0.65}, {0.02, 0.30}},
      core::DemandProfile::from_weights({"clear", "confusing"}, {0.85, 0.15}),
      {{0.05, 0.01}, {0.28, 0.09}}, 0.008);
}

std::vector<double> sweep_grid(std::size_t points) {
  std::vector<double> thresholds(points);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) /
                               static_cast<double>(thresholds.size() - 1);
  }
  return thresholds;
}

void BM_SweepScalarReference(benchmark::State& state) {
  const auto analyzer = reference_sweep_analyzer();
  const auto thresholds = sweep_grid(10'000);
  std::vector<core::SystemOperatingPoint> out(thresholds.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
      out[i] = analyzer.evaluate(thresholds[i]);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(thresholds.size()));
}
BENCHMARK(BM_SweepScalarReference);

void BM_SweepBatchKernel(benchmark::State& state) {
  const auto analyzer = reference_sweep_analyzer();
  const auto thresholds = sweep_grid(10'000);
  std::vector<core::SystemOperatingPoint> out(thresholds.size());
  for (auto _ : state) {
    analyzer.evaluate_batch(thresholds, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(thresholds.size()));
}
BENCHMARK(BM_SweepBatchKernel);

void BM_SweepZeroAllocation(benchmark::State& state) {
  const exec::Config config{static_cast<unsigned>(state.range(0))};
  const auto analyzer = reference_sweep_analyzer();
  const auto thresholds = sweep_grid(10'000);
  std::vector<core::SystemOperatingPoint> out(thresholds.size());
  for (auto _ : state) {
    analyzer.sweep_into(thresholds, out, config);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(thresholds.size()));
}
BENCHMARK(BM_SweepZeroAllocation)->Arg(1)->Arg(4)->UseRealTime();

void BM_MinimiseCostGrid(benchmark::State& state) {
  const exec::Config config{static_cast<unsigned>(state.range(0))};
  const auto analyzer = reference_sweep_analyzer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.minimise_cost(
        /*cost_fn=*/500.0, /*cost_fp=*/20.0, -4.0, 4.0, /*steps=*/20'000,
        config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          20'000);
}
BENCHMARK(BM_MinimiseCostGrid)->Arg(1)->Arg(4)->UseRealTime();

// --- Thread-scaling benchmarks -------------------------------------------
// Every BM_*Scaling bench runs the same deterministic workload with a
// thread budget of state.range(0); the outputs are bit-identical across
// rows, so any throughput delta is pure scheduling.

void BM_BootstrapScaling(benchmark::State& state) {
  const exec::Config config{static_cast<unsigned>(state.range(0))};
  std::vector<double> sample(400);
  stats::Rng fill(7);
  for (double& v : sample) v = fill.normal(1.0, 2.0);
  const auto trimmed_mean = [](std::span<const double> s) {
    // A statistic with some real per-replicate cost: 10% trimmed mean.
    std::vector<double> sorted(s.begin(), s.end());
    std::sort(sorted.begin(), sorted.end());
    const std::size_t trim = sorted.size() / 10;
    double total = 0.0;
    for (std::size_t i = trim; i < sorted.size() - trim; ++i) {
      total += sorted[i];
    }
    return total / static_cast<double>(sorted.size() - 2 * trim);
  };
  for (auto _ : state) {
    stats::Rng rng(42);
    benchmark::DoNotOptimize(
        stats::bootstrap_percentile(sample, trimmed_mean, rng, 2000, 0.95,
                                    config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK(BM_BootstrapScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The --profile bootstrap phase: 500 replicates of the mean of a
// 200k-case 0/1 trial outcome vector, one thread. Row case_level:1 is
// the base (bootstrap_percentile redraws all 200k outcomes per
// replicate); case_level:0 is bootstrap_counts over the same sample's
// two cells (one binomial draw per replicate).
void BM_BootstrapCounts(benchmark::State& state) {
  const bool case_level = state.range(0) != 0;
  const exec::Config config{1};
  constexpr std::size_t kCases = 200'000;
  constexpr std::size_t kReplicates = 500;
  std::vector<double> sample(kCases);
  stats::Rng fill(7);
  for (double& v : sample) v = fill.bernoulli(0.2352) ? 1.0 : 0.0;
  const auto failed = static_cast<std::uint64_t>(
      std::accumulate(sample.begin(), sample.end(), 0.0));
  const double values[2] = {0.0, 1.0};
  const std::uint64_t counts[2] = {kCases - failed, failed};
  const stats::Statistic mean = [](std::span<const double> s) {
    return std::accumulate(s.begin(), s.end(), 0.0) /
           static_cast<double>(s.size());
  };
  const stats::CountStatistic count_mean =
      [](std::span<const double> v, std::span<const std::uint64_t> c) {
        return (v[0] * static_cast<double>(c[0]) +
                v[1] * static_cast<double>(c[1])) /
               static_cast<double>(c[0] + c[1]);
      };
  for (auto _ : state) {
    stats::Rng rng(42);
    benchmark::DoNotOptimize(
        case_level ? stats::bootstrap_percentile(sample, mean, rng,
                                                 kReplicates, 0.95, config)
                   : stats::bootstrap_counts(values, counts, count_mean, rng,
                                             kReplicates, 0.95, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kReplicates));
}
BENCHMARK(BM_BootstrapCounts)
    ->ArgName("case_level")
    ->Arg(1)
    ->Arg(0)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_UncertaintyScaling(benchmark::State& state) {
  const exec::Config config{static_cast<unsigned>(state.range(0))};
  const core::PosteriorModelSampler sampler(
      {"easy", "difficult"},
      {core::ClassCounts{800, 56, 28, 40}, core::ClassCounts{200, 82, 74, 30}});
  const auto profile = core::paper::field_profile();
  for (auto _ : state) {
    stats::Rng rng(3);
    benchmark::DoNotOptimize(
        sampler.predict(profile, rng, 20'000, 0.95, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          20'000);
}
BENCHMARK(BM_UncertaintyScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Scalar per-draw reference path (predict_reference) vs the batched
// engine above: the time of BM_UncertaintyScalarReference/1 ÷ that of
// BM_UncertaintyScaling/1 is the batched engine's single-thread speedup.
// Both run the identical 20k-draw posterior-predictive workload.
void BM_UncertaintyScalarReference(benchmark::State& state) {
  const exec::Config config{static_cast<unsigned>(state.range(0))};
  const core::PosteriorModelSampler sampler(
      {"easy", "difficult"},
      {core::ClassCounts{800, 56, 28, 40}, core::ClassCounts{200, 82, 74, 30}});
  const auto profile = core::paper::field_profile();
  for (auto _ : state) {
    stats::Rng rng(3);
    benchmark::DoNotOptimize(
        sampler.predict_reference(profile, rng, 20'000, 0.95, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          20'000);
}
BENCHMARK(BM_UncertaintyScalarReference)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Pool sharing without the daemon: two benchmark threads each run the
// serve `uq` default (2000 draws) at the same time with a thread budget
// of state.range(0), as two hmdiv_serve connections do. Both submit pool
// jobs at once; /2 over /1 is what sharing the helpers buys two callers.
void BM_UncertaintyConcurrentCallers(benchmark::State& state) {
  const exec::Config config{static_cast<unsigned>(state.range(0))};
  const core::PosteriorModelSampler sampler(
      {"easy", "difficult"},
      {core::ClassCounts{800, 56, 28, 40}, core::ClassCounts{200, 82, 74, 30}});
  const auto profile = core::paper::field_profile();
  for (auto _ : state) {
    stats::Rng rng(3);
    benchmark::DoNotOptimize(sampler.predict(profile, rng, 2'000, 0.95, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2'000);
}
BENCHMARK(BM_UncertaintyConcurrentCallers)
    ->Arg(1)
    ->Arg(2)
    ->Threads(2)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// The Beta posteriors of the `uq` endpoint's synthetic counts (2000 cases
// per class of the example model, Jeffreys prior): six (a, b) pairs, drawn
// in the sampler's 512-lane chunks. BM_FillGamma fills the same twelve
// shapes one at a time; both count one output per item.
constexpr double kUqBetaShapes[6][2] = {
    {140.5, 1860.5}, {25.5, 115.5},  {260.5, 1600.5},
    {820.5, 1180.5}, {738.5, 82.5},  {472.5, 708.5}};
constexpr std::size_t kUqChunk = 512;

/// The twelve shapes of kUqBetaShapes, each pair's a then b.
std::vector<stats::Rng::GammaPrep> uq_gamma_preps() {
  std::vector<stats::Rng::GammaPrep> preps;
  for (const auto& pair : kUqBetaShapes) {
    preps.emplace_back(pair[0]);
    preps.emplace_back(pair[1]);
  }
  return preps;
}

void BM_FillGamma(benchmark::State& state) {
  const auto preps = uq_gamma_preps();
  std::vector<double> out(kUqChunk);
  stats::Rng rng(11);
  for (auto _ : state) {
    for (const auto& prep : preps) rng.fill_gamma(prep, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(preps.size() * kUqChunk));
}
BENCHMARK(BM_FillGamma)->Unit(benchmark::kMicrosecond);

void BM_FillBeta(benchmark::State& state) {
  const auto preps = uq_gamma_preps();
  std::vector<double> out(kUqChunk);
  stats::Rng rng(11);
  for (auto _ : state) {
    for (std::size_t i = 0; i < preps.size(); i += 2) {
      rng.fill_beta(preps[i], preps[i + 1], out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(preps.size() / 2 *
                                                    kUqChunk));
}
BENCHMARK(BM_FillBeta)->Unit(benchmark::kMicrosecond);

// One default `uq` request (2000 draws) through Service::handle_line at a
// compute budget of 1 thread, with the uq cache off so every iteration
// computes: parse, the posterior sampler and the reply.
void BM_ServeUq(benchmark::State& state) {
  serve::ServiceOptions options;
  options.compute_threads = 1;
  options.uq_cache_capacity = 0;
  serve::Service service(core::paper::example_model(),
                         core::paper::trial_profile(),
                         core::paper::field_profile(), options);
  serve::RequestScratch scratch;
  const std::string line = R"({"op":"uq","id":1,"params":{"seed":7}})";
  std::string out;
  for (auto _ : state) {
    out.clear();
    service.handle_line(line, scratch, out);
    benchmark::DoNotOptimize(out.data());
  }
  if (out.find("\"mean\"") == std::string::npos) {
    state.SkipWithError("uq request failed");
  }
}
BENCHMARK(BM_ServeUq)->Unit(benchmark::kMicrosecond);

// One 256-line read burst shaped like perfbench's serve_trace mix (whatif
// over hot keys, unique whatif and compare, sweep, minimise and uq past
// their caches) through Service::handle_burst at 1 and 4 threads: the
// daemon-request layer of the serve path, without the socket.
void BM_ServeBurst(benchmark::State& state) {
  serve::ServiceOptions options;
  options.compute_threads = static_cast<unsigned>(state.range(0));
  options.max_concurrent = 4;
  options.sweep_cache_capacity = 0;
  options.minimise_cache_capacity = 0;
  options.uq_cache_capacity = 0;
  serve::Service service(core::paper::example_model(),
                         core::paper::trial_profile(),
                         core::paper::field_profile(), options);
  constexpr std::size_t kLines = 256;
  std::string burst;
  for (std::size_t i = 0; i < kLines; ++i) {
    const std::string id = std::to_string(i + 1);
    const std::string unique = std::to_string(0.5 + 0.001 * static_cast<double>(i));
    switch (i % 40) {
      case 0:
      case 1:
        burst += "{\"op\":\"whatif\",\"id\":" + id +
                 ",\"params\":{\"reader_factor\":" + unique + "}}\n";
        break;
      case 2:
      case 3:
        burst += "{\"op\":\"compare\",\"id\":" + id +
                 ",\"params\":{\"scenarios\":[{\"name\":\"a\","
                 "\"machine_factor\":" + unique +
                 "},{\"name\":\"b\",\"reader_factor\":" + unique + "}]}}\n";
        break;
      case 4:
        burst += "{\"op\":\"sweep\",\"id\":" + id + ",\"params\":{\"lo\":" +
                 std::to_string(-4.0 - 0.001 * static_cast<double>(i)) + ",\"hi\":4}}\n";
        break;
      case 5:
        burst += "{\"op\":\"minimise\",\"id\":" + id +
                 ",\"params\":{\"cost_fn\":" + std::to_string(400 + i) +
                 ",\"cost_fp\":20}}\n";
        break;
      case 6:
      case 7:
        burst += "{\"op\":\"uq\",\"id\":" + id + ",\"params\":{\"seed\":" +
                 id + "}}\n";
        break;
      default:
        burst += "{\"op\":\"whatif\",\"id\":" + id +
                 ",\"params\":{\"reader_factor\":" +
                 std::to_string(0.5 + 0.125 * static_cast<double>(i % 8)) +
                 ",\"machine_factor\":" +
                 std::to_string(0.25 * static_cast<double>(1 + i % 4)) +
                 "}}\n";
    }
  }
  serve::RequestScratch scratch;
  std::string out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(service.handle_burst(burst, scratch, out));
  }
  if (std::count(out.begin(), out.end(), '\n') !=
          static_cast<std::ptrdiff_t>(kLines) ||
      out.find("\"ok\":false") != std::string::npos) {
    state.SkipWithError("burst request failed");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLines));
}
BENCHMARK(BM_ServeBurst)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_TrialScaling(benchmark::State& state) {
  const exec::Config config{static_cast<unsigned>(state.range(0))};
  constexpr std::uint64_t kCases = 200'000;
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  sim::TrialRunner runner(world, kCases);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(1234, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kCases));
}
BENCHMARK(BM_TrialScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_TradeoffSweepScaling(benchmark::State& state) {
  const exec::Config config{static_cast<unsigned>(state.range(0))};
  core::BinormalMachine machine;
  machine.cancer_class_means = {2.0, 0.5};
  machine.normal_class_means = {-1.5, -0.5};
  const auto analyzer = core::TradeoffAnalyzer(
      machine,
      core::DemandProfile::from_weights({"easy-cancer", "hard-cancer"},
                                        {0.9, 0.1}),
      {{0.1, 0.5}, {0.3, 0.7}},
      core::DemandProfile::from_weights({"clear-normal", "odd-normal"},
                                        {0.8, 0.2}),
      {{0.1, 0.02}, {0.3, 0.1}}, 0.01);
  std::vector<double> thresholds(50'000);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) /
                               static_cast<double>(thresholds.size() - 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.sweep(thresholds, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(thresholds.size()));
}
BENCHMARK(BM_TradeoffSweepScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Process-sharding benches (PR 6) --------------------------------------
// Same fixed workloads as the BM_*Scaling benches above, fanned out over
// 1/2/4/8 worker *processes* (one thread each) through exec::ShardRunner.
// Output is bit-identical at every shard count, so the only quantity these
// track is wall-clock: on an N-core box the 4-shard rows should approach
// min(4, N)x; on a 1-core CI runner they stay flat and only the fan-out
// overhead (BM_ShardMergeOverhead) moves. The 1-shard rows run in-process
// — they are the no-spawn baseline the speedup is measured against.

exec::ShardOptions shard_options(unsigned shards, unsigned threads = 1) {
  exec::ShardOptions options;
  options.shards = shards;
  options.threads = threads;
  return options;
}

void BM_ShardTrialScaling(benchmark::State& state) {
  const auto options = shard_options(static_cast<unsigned>(state.range(0)));
  constexpr std::uint64_t kCases = 200'000;
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::run_trial_sharded(world, kCases, 1234, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kCases));
}
BENCHMARK(BM_ShardTrialScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Processes x threads composition: a fixed budget of 4 lanes, split
// between the two levels of the hierarchy. All three rows compute the
// same bits; the spread is pure engine overhead.
void BM_ShardTrialComposition(benchmark::State& state) {
  const auto options =
      shard_options(static_cast<unsigned>(state.range(0)),
                    static_cast<unsigned>(state.range(1)));
  constexpr std::uint64_t kCases = 200'000;
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::run_trial_sharded(world, kCases, 1234, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kCases));
}
BENCHMARK(BM_ShardTrialComposition)
    ->Args({1, 4})
    ->Args({2, 2})
    ->Args({4, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ShardSweepScaling(benchmark::State& state) {
  const auto options = shard_options(static_cast<unsigned>(state.range(0)));
  core::BinormalMachine machine;
  machine.cancer_class_means = {2.0, 0.5};
  machine.normal_class_means = {-1.5, -0.5};
  const auto analyzer = core::TradeoffAnalyzer(
      machine,
      core::DemandProfile::from_weights({"easy-cancer", "hard-cancer"},
                                        {0.9, 0.1}),
      {{0.1, 0.5}, {0.3, 0.7}},
      core::DemandProfile::from_weights({"clear-normal", "odd-normal"},
                                        {0.8, 0.2}),
      {{0.1, 0.02}, {0.3, 0.1}}, 0.01);
  std::vector<double> thresholds(200'000);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) /
                               static_cast<double>(thresholds.size() - 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::sweep_sharded(analyzer, thresholds, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(thresholds.size()));
}
BENCHMARK(BM_ShardSweepScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ShardPosteriorScaling(benchmark::State& state) {
  const auto options = shard_options(static_cast<unsigned>(state.range(0)));
  core::ClassCounts easy;
  easy.cases = 800;
  easy.machine_failures = 56;
  easy.human_failures_given_machine_failed = 28;
  easy.human_failures_given_machine_succeeded = 40;
  core::ClassCounts difficult;
  difficult.cases = 200;
  difficult.machine_failures = 82;
  difficult.human_failures_given_machine_failed = 74;
  difficult.human_failures_given_machine_succeeded = 30;
  const core::PosteriorModelSampler sampler({"easy", "difficult"},
                                            {easy, difficult});
  const core::DemandProfile profile = core::paper::field_profile();
  constexpr std::size_t kDraws = 100'000;
  std::vector<double> draws(kDraws);
  for (auto _ : state) {
    stats::Rng rng(99);
    core::sample_failure_probabilities_sharded(sampler, profile, rng, draws,
                                               options);
    benchmark::DoNotOptimize(draws.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDraws));
}
BENCHMARK(BM_ShardPosteriorScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Fan-out floor: a near-empty sweep, so the measurement is almost entirely
// socketpair setup + posix_spawn + frame round trip + merge + reap, per
// shard count. This is the fixed cost a workload must amortise to win from
// sharding. `parent_mb` of touched heap in the parent tracks the floor
// where fork's page-table copy made it grow with the parent's RSS.
void shard_merge_overhead(benchmark::State& state, std::size_t parent_mb) {
  const auto options = shard_options(static_cast<unsigned>(state.range(0)));
  std::vector<std::uint8_t> ballast(parent_mb << 20);
  for (std::size_t i = 0; i < ballast.size(); i += 4096) {
    ballast[i] = static_cast<std::uint8_t>(i >> 12);
  }
  benchmark::DoNotOptimize(ballast.data());
  core::BinormalMachine machine;
  machine.cancer_class_means = {2.0, 0.5};
  machine.normal_class_means = {-1.5, -0.5};
  const auto analyzer = core::TradeoffAnalyzer(
      machine,
      core::DemandProfile::from_weights({"easy-cancer", "hard-cancer"},
                                        {0.9, 0.1}),
      {{0.1, 0.5}, {0.3, 0.7}},
      core::DemandProfile::from_weights({"clear-normal", "odd-normal"},
                                        {0.8, 0.2}),
      {{0.1, 0.02}, {0.3, 0.1}}, 0.01);
  std::vector<double> thresholds(64);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) / 63.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::sweep_sharded(analyzer, thresholds, options));
  }
}

void BM_ShardMergeOverhead(benchmark::State& state) {
  shard_merge_overhead(state, 0);
}
BENCHMARK(BM_ShardMergeOverhead)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ShardMergeOverheadLargeParent(benchmark::State& state) {
  shard_merge_overhead(state, 64);
}
BENCHMARK(BM_ShardMergeOverheadLargeParent)
    ->Name("BM_ShardMergeOverhead/parent_mb:64")
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: google-benchmark rejects unknown flags, so the shared
// --profile/--profile-csv arguments are consumed by the ProfileGuard and
// stripped from argv before benchmark::Initialize sees them.
int main(int argc, char** argv) {
  // The shard benches re-exec this binary as their worker image.
  if (hmdiv::exec::shard_worker_requested(argc, argv)) {
    return hmdiv::exec::shard_worker_main();
  }
  const hmdiv::benchutil::ProfileGuard profile(argc, argv);
  std::vector<char*> kept;
  kept.reserve(static_cast<std::size_t>(argc));
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--profile") continue;
    if (arg == "--profile-csv" && i + 1 < argc) {
      ++i;
      continue;
    }
    kept.push_back(argv[i]);
  }
  int kept_argc = static_cast<int>(kept.size());
  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
