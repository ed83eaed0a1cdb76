// Gate self-test: every correctness gate passes on real output and trips
// when its expected value is deliberately corrupted.
#include <bit>
#include <cmath>
#include <iostream>

#include "core/paper_example.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

int run_selftest(const Context& ctx) {
  int checks = 0;
  int wrong = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++wrong;
      std::cerr << "selftest FAILED: " << what << "\n";
    }
  };

  // analysis_batch: one real CLI run against true and corrupted values.
  const AnalysisInputs inputs = analysis_inputs(ctx.seed);
  const ProcessRun run = run_process(analysis_argv(ctx, inputs, true));
  expect(check_analysis_run(run, inputs, true).empty(),
         "analysis gates pass on a correct run");
  const AnalysisOutput out = parse_analysis_output(run.out);
  AnalysisInputs wrong_prediction = inputs;
  wrong_prediction.prediction += 0.01;
  expect(!check_analysis_run(run, wrong_prediction, true).empty(),
         "analysis run fails against a corrupted Eq.-(8) prediction");
  expect(!check_prediction(out.predicted, inputs.prediction + 1e-3).empty(),
         "prediction gate trips");
  expect(!check_observed_rate(out.observed, inputs.prediction + 0.01,
                              kAnalysisCases)
              .empty(),
         "observed-rate gate trips");
  expect(!check_bootstrap_interval(out.boot_lower, out.boot_upper,
                                   out.observed + 0.002, kAnalysisCases, 0.95)
              .empty(),
         "bootstrap-interval gate trips");
  AnalysisInputs wrong_line = inputs;
  wrong_line.expected_lines.back().back() ^= 1;
  expect(!check_analysis_run(run, wrong_line, true).empty(),
         "what-if gate trips");

  // fanout_grid: small passes through both fan-out engines.
  const GridInputs grid = grid_inputs(ctx.seed, GridSizes{20'000, 1'000,
                                                          1'000, 2'000});
  Fleet fleet;
  fleet.start(ctx, 2);
  Tracer untraced;
  PassTimes times;
  const GridOutput reference =
      run_grid_pass(Engine::in_process, grid, untraced, 0, nullptr, times);
  const GridOutput sharded =
      run_grid_pass(Engine::shard, grid, untraced, 0, nullptr, times);
  const GridOutput clustered =
      run_grid_pass(Engine::cluster, grid, untraced, 0, &fleet, times);
  fleet.stop();
  expect(check_identical(sharded, reference).empty(), "shard pass identical");
  expect(check_identical(clustered, reference).empty(),
         "cluster pass identical");
  GridOutput corrupt = reference;
  corrupt.trial.records[17].human_failed = !corrupt.trial.records[17].human_failed;
  expect(!check_identical(clustered, corrupt).empty(), "trial gate trips");
  corrupt = reference;
  corrupt.sweep[3].ppv = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(corrupt.sweep[3].ppv) ^ 1u);
  expect(!check_identical(sharded, corrupt).empty(), "sweep gate trips");
  corrupt = reference;
  corrupt.best.system_fn = std::nextafter(corrupt.best.system_fn, 1.0);
  expect(!check_identical(sharded, corrupt).empty(), "minimise gate trips");
  corrupt = reference;
  corrupt.uq.upper = std::nextafter(corrupt.uq.upper, 1.0);
  expect(!check_identical(clustered, corrupt).empty(), "posterior gate trips");

  // serve_trace: a short trace against a daemon, compared in full.
  const std::vector<TraceEntry> trace =
      record_trace(ctx.seed, 3'000, ctx.out_dir + "/selftest_trace.ndjson");
  Daemon daemon;
  daemon.start(ctx.serve_bin(), {"--example"});
  const Replay replay = replay_closed(daemon.port(), trace, 8);
  daemon.stop();
  Result served;
  check_sampled_replies(trace, 0, replay, ctx.seed, 1'000, served);
  expect(served.correct, "daemon replies match the in-process service");
  hmdiv::serve::Service service(hmdiv::core::paper::example_model(),
                                hmdiv::core::paper::trial_profile(),
                                hmdiv::core::paper::field_profile());
  hmdiv::serve::RequestScratch scratch;
  std::size_t uq = 0;
  while (trace[uq].op != Op::uq) ++uq;
  std::string expected;
  service.handle_line(trace[uq].line, scratch, expected);
  expected.pop_back();
  expect(check_reply(replay.replies[uq], expected).empty(),
         "uq reply matches");
  std::string flipped = expected;
  const std::size_t cached = flipped.find("\"cached\":false");
  if (cached != std::string::npos) flipped.replace(cached, 14, "\"cached\":true");
  expect(check_reply(replay.replies[uq], flipped).empty(),
         "the cached flag is allowed to differ");
  std::string corrupted = expected;
  corrupted[corrupted.find("\"mean\":") + 9] ^= 1;
  expect(!check_reply(replay.replies[uq], corrupted).empty(),
         "reply gate trips");

  std::cout << "selftest: " << checks << " checks, " << wrong << " failed\n";
  return wrong == 0 ? 0 : 1;
}

}  // namespace perfbench
