// perfbench_bin — the benchmark binary (see perfbench/README.md).
//
//   perfbench_bin --workload analysis_batch|fanout_grid|serve_trace
//                 --seed N --seconds S --trace 0|1
//                 --bin-dir DIR --out-dir DIR [--commit TEXT]
//   perfbench_bin --selftest --bin-dir DIR --out-dir DIR
//   perfbench_bin --about
//
// --trace 0 runs the workload untraced and reports the end-to-end
// metrics; --trace 1 makes the traced per-layer run. Either way the last
// stdout line is one JSON object {correct, attempted, failed, metrics};
// the lines before it restate every metric with its sample count, and
// the same record, with the run's metadata, goes to
// DIR/result-<workload>-<seed>-trace<0|1>.json.
#include <sys/stat.h>

#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "exec/shard.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

#ifndef __OPTIMIZE__
constexpr bool kOptimized = false;
#else
constexpr bool kOptimized = true;
#endif

std::string about_json() {
  return std::string("{\"build_type\":") + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"optimized\":" + (kOptimized ? "true" : "false") +
         ",\"compiler\":" + json_string("gcc " __VERSION__) +
         ",\"hardware_threads\":" +
         std::to_string(std::thread::hardware_concurrency()) + "}";
}

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench_bin --workload NAME --seed N --seconds S "
               "--trace 0|1 --bin-dir DIR --out-dir DIR [--commit TEXT]\n"
               "       perfbench_bin --selftest --bin-dir DIR --out-dir DIR\n"
               "       perfbench_bin --about\n";
  std::exit(2);
}

std::string metrics_json(const Result& result, bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i != 0) out += ',';
    out += json_string(m.name) + ":{\"value\":";
    append_number(out, m.value);
    out += ",\"unit\":" + json_string(m.unit);
    if (with_samples) out += ",\"samples\":" + std::to_string(m.samples);
    out += '}';
  }
  return out + "}";
}

std::string summary_json(const Result& result, bool with_samples) {
  return std::string("{\"correct\":") + (result.correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(result.attempted) +
         ",\"failed\":" + std::to_string(result.failed) +
         ",\"metrics\":" + metrics_json(result, with_samples) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  // ShardRunner re-executes this binary as its workers.
  if (hmdiv::exec::shard_worker_requested(argc, argv)) {
    return hmdiv::exec::shard_worker_main();
  }
  Context ctx;
  bool selftest = false;
  bool trace_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      ctx.workload = next();
    } else if (arg == "--seed") {
      ctx.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      ctx.seconds = std::stod(next());
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage();
      ctx.trace = v == "1";
      trace_set = true;
    } else if (arg == "--bin-dir") {
      ctx.bin_dir = next();
    } else if (arg == "--out-dir") {
      ctx.out_dir = next();
    } else if (arg == "--commit") {
      ctx.commit = next();
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--about") {
      std::cout << about_json() << "\n";
      return 0;
    } else {
      usage();
    }
  }
  if (!kOptimized) {
    std::cerr << "perfbench_bin: refusing to measure an unoptimised build "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
    return 2;
  }
  if (ctx.bin_dir.empty() || ctx.out_dir.empty()) usage();
  ::mkdir(ctx.out_dir.c_str(), 0755);
  std::signal(SIGPIPE, SIG_IGN);
  if (selftest) {
    try {
      return run_selftest(ctx);
    } catch (const std::exception& e) {
      std::cerr << "perfbench_bin: selftest: " << e.what() << "\n";
      return 1;
    }
  }
  if (!trace_set || !(ctx.seconds > 0.0) ||
      (ctx.workload != "analysis_batch" && ctx.workload != "fanout_grid" &&
       ctx.workload != "serve_trace")) {
    usage();
  }

  const StealMeter steal;
  Result result;
  try {
    if (ctx.trace) {
      result = run_layers(ctx);
    } else if (ctx.workload == "analysis_batch") {
      result = run_analysis_batch(ctx);
    } else if (ctx.workload == "fanout_grid") {
      result = run_fanout_grid(ctx);
    } else {
      result = run_serve_trace(ctx);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_bin: " << ctx.workload << ": " << e.what() << "\n";
    return 1;
  }
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.fail("metric " + m.name + " is not finite");
  }

  const double steal_pct = steal.percent_since_start();
  const std::string tag = ctx.workload + "-" + std::to_string(ctx.seed) +
                          "-trace" + (ctx.trace ? "1" : "0");
  std::ofstream record(ctx.out_dir + "/result-" + tag + ".json");
  record << "{\"workload\":" << json_string(ctx.workload)
         << ",\"seed\":" << ctx.seed << ",\"seconds\":" << ctx.seconds
         << ",\"trace\":" << (ctx.trace ? 1 : 0)
         << ",\"commit\":" << json_string(ctx.commit)
         << ",\"build\":" << about_json()
         << ",\"host_steal_pct\":" << steal_pct
         << ",\"noisy_groups\":" << result.noisy_groups
         << ",\"result\":" << summary_json(result, true) << "}\n";

  std::cout << "# perfbench " << ctx.workload << " seed=" << ctx.seed
            << " trace=" << (ctx.trace ? 1 : 0) << " build=" << about_json()
            << " commit=" << ctx.commit << " host_steal_pct=" << steal_pct
            << " noisy_groups=" << result.noisy_groups << "\n";
  for (const Metric& m : result.metrics) {
    std::cout << "#   " << m.name << " = " << m.value << " " << m.unit
              << " (n=" << m.samples << ")\n";
  }
  for (const std::string& why : result.failures) {
    std::cout << "# WRONG: " << why << "\n";
  }
  std::cout << "# verdict: " << (result.correct ? "correct" : "WRONG") << ", "
            << result.failed << " of " << result.attempted << " failed\n";
  std::cout << summary_json(result, false) << std::endl;
  return result.correct ? 0 : 1;
}
