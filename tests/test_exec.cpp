// Tests for the exec subsystem: thread-pool correctness (exceptions,
// empty ranges, nesting, concurrent callers sharing the helpers) and the determinism contract — every parallel
// Monte-Carlo / sweep entry point must produce bit-identical results at
// 1 and N threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/paper_example.hpp"
#include "core/roc.hpp"
#include "core/tradeoff.hpp"
#include "core/trial_design.hpp"
#include "core/uncertainty.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "sim/feature_world.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"
#include "stats/bootstrap.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace hmdiv {
namespace {

const exec::Config kSerial{1};
const exec::Config kWide{8};

TEST(ExecConfig, ResolvedThreadsNeverZero) {
  EXPECT_GE(exec::Config{}.resolved_threads(), 1U);
  EXPECT_EQ(exec::Config{3}.resolved_threads(), 3U);
  EXPECT_EQ(exec::Config::serial().resolved_threads(), 1U);
}

TEST(ExecConfig, EnvParsing) {
  ASSERT_EQ(setenv("HMDIV_THREADS", "6", 1), 0);
  EXPECT_EQ(exec::config_from_env().threads, 6U);
  ASSERT_EQ(setenv("HMDIV_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(exec::config_from_env().threads, 0U);
  ASSERT_EQ(setenv("HMDIV_THREADS", "0", 1), 0);
  EXPECT_EQ(exec::config_from_env().threads, 0U);
  ASSERT_EQ(unsetenv("HMDIV_THREADS"), 0);
  EXPECT_EQ(exec::config_from_env().threads, 0U);
}

TEST(ExecConfig, EnvParsingWarnsOnceNamingTheBadValue) {
  // A malformed HMDIV_THREADS used to be ignored silently, so typos like
  // "HMDIV_THREADS=2x" ran on all cores with no hint why. The fallback
  // stays the same, but the first malformed read warns on stderr with the
  // offending value; repeats stay silent (once per process).
  exec::detail::reset_env_warning();
  ASSERT_EQ(setenv("HMDIV_THREADS", "2banana", 1), 0);
  testing::internal::CaptureStderr();
  EXPECT_EQ(exec::config_from_env().threads, 0U);
  const std::string first = testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("HMDIV_THREADS"), std::string::npos);
  EXPECT_NE(first.find("2banana"), std::string::npos);

  ASSERT_EQ(setenv("HMDIV_THREADS", "9999999", 1), 0);
  testing::internal::CaptureStderr();
  EXPECT_EQ(exec::config_from_env().threads, 0U);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // Well-formed values never warn, even with the once-flag reset.
  exec::detail::reset_env_warning();
  ASSERT_EQ(setenv("HMDIV_THREADS", "4", 1), 0);
  testing::internal::CaptureStderr();
  EXPECT_EQ(exec::config_from_env().threads, 4U);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  ASSERT_EQ(unsetenv("HMDIV_THREADS"), 0);
  exec::detail::reset_env_warning();
}

TEST(ExecChunks, ChunkCountCoversRange) {
  EXPECT_EQ(exec::chunk_count(0, 10), 0U);
  EXPECT_EQ(exec::chunk_count(1, 10), 1U);
  EXPECT_EQ(exec::chunk_count(10, 10), 1U);
  EXPECT_EQ(exec::chunk_count(11, 10), 2U);
  EXPECT_EQ(exec::chunk_count(5, 0), 5U);  // zero grain treated as 1
}

TEST(ExecParallelFor, EmptyRangeIsNoOp) {
  int calls = 0;
  exec::parallel_for(0, 8, [&](std::size_t) { ++calls; }, kWide);
  EXPECT_EQ(calls, 0);
}

TEST(ExecParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> visits(kN);
  exec::parallel_for(
      kN, 64, [&](std::size_t i) { visits[i].fetch_add(1); }, kWide);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ExecParallelFor, ExceptionsPropagateToCaller) {
  EXPECT_THROW(
      exec::parallel_for(
          1000, 8,
          [](std::size_t i) {
            if (i == 500) throw std::runtime_error("boom");
          },
          kWide),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> count{0};
  exec::parallel_for(100, 8, [&](std::size_t) { ++count; }, kWide);
  EXPECT_EQ(count.load(), 100);
}

TEST(ExecParallelFor, NestedUseRunsInline) {
  std::vector<std::atomic<int>> visits(64 * 64);
  exec::parallel_for(
      64, 1,
      [&](std::size_t outer) {
        exec::parallel_for(
            64, 1,
            [&](std::size_t inner) { visits[outer * 64 + inner].fetch_add(1); },
            kWide);
      },
      kWide);
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

// --- concurrent callers sharing one pool -----------------------------------

/// Holds every invocation that arrives until `expected` are running at
/// once (or a generous timeout passes), so a test can demand that work
/// really overlapped instead of hoping the scheduler interleaves it.
class Rendezvous {
 public:
  explicit Rendezvous(int expected) : expected_(expected) {}

  /// Returns false if the timeout hit before everyone arrived.
  bool arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ >= expected_) {
      all_here_.notify_all();
      return true;
    }
    return all_here_.wait_for(lock, std::chrono::seconds(10),
                              [this] { return arrived_ >= expected_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable all_here_;
  int arrived_ = 0;
  int expected_;
};

/// Thread ids that ran one job's indices.
struct ThreadLog {
  std::mutex mutex;
  std::set<std::thread::id> ids;
  void add() {
    const std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  }
  std::size_t size() {
    const std::lock_guard<std::mutex> lock(mutex);
    return ids.size();
  }
};

TEST(ExecPoolSharing, ConcurrentCallersBothGetHelpers) {
  // Two helpers, two callers, two indices per job, budget 2: the four
  // invocations can only all be running at once if each caller got one
  // helper. A pool that takes one top-level job at a time runs the later
  // job inline and the rendezvous times out.
  exec::ThreadPool pool(2);
  Rendezvous all_four(4);
  ThreadLog logs[2];
  std::atomic<int> timeouts{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      auto body = [&](std::size_t) {
        logs[c].add();
        if (!all_four.arrive_and_wait()) ++timeouts;
      };
      pool.run_indexed(2, 2, exec::FunctionRef<void(std::size_t)>(body));
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(logs[0].size(), 2u);
  EXPECT_EQ(logs[1].size(), 2u);
}

TEST(ExecPoolSharing, FailureRethrowsOnlyOnItsOwnCaller) {
  exec::ThreadPool pool(2);
  Rendezvous overlap(4);
  constexpr std::size_t kCount = 200;
  std::vector<std::atomic<int>> visits(kCount);
  std::atomic<int> timeouts{0};
  bool failing_threw = false;
  bool clean_threw = false;
  // Both jobs run their first two indices at once, on a caller and a
  // helper each, before the failing one throws.
  std::thread failing([&] {
    auto body = [&](std::size_t i) {
      if (i < 2 && !overlap.arrive_and_wait()) ++timeouts;
      if (i == 1) throw std::runtime_error("boom");
    };
    try {
      pool.run_indexed(kCount, 2, exec::FunctionRef<void(std::size_t)>(body));
    } catch (const std::runtime_error&) {
      failing_threw = true;
    }
  });
  std::thread clean([&] {
    auto body = [&](std::size_t i) {
      if (i < 2 && !overlap.arrive_and_wait()) ++timeouts;
      visits[i].fetch_add(1);
    };
    try {
      pool.run_indexed(kCount, 2, exec::FunctionRef<void(std::size_t)>(body));
    } catch (...) {
      clean_threw = true;
    }
  });
  failing.join();
  clean.join();
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_TRUE(failing_threw);
  EXPECT_FALSE(clean_threw);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ExecPoolSharing, NestedCallsRunInlineOnCallerAndHelpers) {
  exec::ThreadPool pool(3);
  std::atomic<int> foreign{0};
  std::atomic<int> inner_calls{0};
  auto outer = [&](std::size_t) {
    const std::thread::id self = std::this_thread::get_id();
    auto inner = [&](std::size_t) {
      if (std::this_thread::get_id() != self) ++foreign;
      ++inner_calls;
    };
    pool.run_indexed(16, 4, exec::FunctionRef<void(std::size_t)>(inner));
  };
  pool.run_indexed(32, 4, exec::FunctionRef<void(std::size_t)>(outer));
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(inner_calls.load(), 32 * 16);
}

TEST(ExecPoolSharing, ManyCallersThenCleanShutdown) {
  // Four callers hammer a three-helper pool with small jobs; every index
  // runs exactly once, and the destructor then joins every helper.
  constexpr int kCallers = 4;
  constexpr int kJobs = 200;
  std::vector<std::atomic<long>> sums(kCallers);
  {
    exec::ThreadPool pool(3);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        for (int j = 0; j < kJobs; ++j) {
          auto body = [&](std::size_t i) {
            sums[c].fetch_add(static_cast<long>(i) + 1);
          };
          pool.run_indexed(64, 1 + (j % 4),
                           exec::FunctionRef<void(std::size_t)>(body));
        }
      });
    }
    for (std::thread& t : callers) t.join();
  }
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c].load(), static_cast<long>(kJobs) * 64 * 65 / 2);
  }
}

TEST(ExecParallelReduce, OrderedSumMatchesSerial) {
  constexpr std::size_t kN = 100'000;
  std::vector<double> values(kN);
  stats::Rng rng(11);
  for (double& v : values) v = rng.uniform() - 0.5;
  auto sum_chunk = [&](std::size_t begin, std::size_t end, std::size_t) {
    double s = 0.0;
    for (std::size_t i = begin; i < end; ++i) s += values[i];
    return s;
  };
  auto add = [](double a, double b) { return a + b; };
  const double serial =
      exec::parallel_reduce(kN, 512, 0.0, sum_chunk, add, kSerial);
  const double wide = exec::parallel_reduce(kN, 512, 0.0, sum_chunk, add, kWide);
  // Bit-identical, not just close: the fold order is fixed by the chunks.
  EXPECT_EQ(serial, wide);
}

TEST(ExecDeterminism, BootstrapIdenticalAcrossThreadCounts) {
  std::vector<double> sample(500);
  stats::Rng fill(21);
  for (double& v : sample) v = fill.normal(1.0, 2.0);
  const auto mean = [](std::span<const double> s) {
    return std::accumulate(s.begin(), s.end(), 0.0) /
           static_cast<double>(s.size());
  };
  stats::Rng rng_a(7), rng_b(7);
  const auto serial =
      stats::bootstrap_percentile(sample, mean, rng_a, 2000, 0.95, kSerial);
  const auto wide =
      stats::bootstrap_percentile(sample, mean, rng_b, 2000, 0.95, kWide);
  EXPECT_EQ(serial.estimate, wide.estimate);
  EXPECT_EQ(serial.lower, wide.lower);
  EXPECT_EQ(serial.upper, wide.upper);
  EXPECT_EQ(serial.standard_error, wide.standard_error);
  // Both consumed exactly one base draw from the caller's generator.
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
}

TEST(ExecDeterminism, PairedBootstrapIdenticalAcrossThreadCounts) {
  std::vector<double> x(300), y(300);
  stats::Rng fill(22);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = fill.normal();
    y[i] = 0.5 * x[i] + fill.normal();
  }
  const auto diff = [](std::span<const double> a, std::span<const double> b) {
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) d += a[i] - b[i];
    return d / static_cast<double>(a.size());
  };
  stats::Rng rng_a(9), rng_b(9);
  const auto serial =
      stats::bootstrap_paired(x, y, diff, rng_a, 1000, 0.9, kSerial);
  const auto wide = stats::bootstrap_paired(x, y, diff, rng_b, 1000, 0.9, kWide);
  EXPECT_EQ(serial.lower, wide.lower);
  EXPECT_EQ(serial.upper, wide.upper);
  EXPECT_EQ(serial.standard_error, wide.standard_error);
}

TEST(ExecDeterminism, UncertaintyPredictionIdenticalAcrossThreadCounts) {
  const core::PosteriorModelSampler sampler(
      {"easy", "difficult"},
      {core::ClassCounts{800, 56, 28, 40}, core::ClassCounts{200, 82, 74, 30}});
  const auto profile = core::paper::field_profile();
  stats::Rng rng_a(31), rng_b(31);
  const auto serial = sampler.predict(profile, rng_a, 4000, 0.95, kSerial);
  const auto wide = sampler.predict(profile, rng_b, 4000, 0.95, kWide);
  EXPECT_EQ(serial.mean, wide.mean);
  EXPECT_EQ(serial.lower, wide.lower);
  EXPECT_EQ(serial.upper, wide.upper);
  EXPECT_EQ(serial.stddev, wide.stddev);
}

TEST(ExecDeterminism, TrialRunIdenticalAcrossThreadCounts) {
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  // > 2 batches so the parallel path genuinely interleaves.
  sim::TrialRunner runner(world, 3 * sim::TrialRunner::kBatchSize + 123);
  const auto serial = runner.run(1234, kSerial);
  const auto wide = runner.run(1234, kWide);
  ASSERT_EQ(serial.records.size(), wide.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].class_index, wide.records[i].class_index);
    EXPECT_EQ(serial.records[i].machine_failed, wide.records[i].machine_failed);
    EXPECT_EQ(serial.records[i].human_failed, wide.records[i].human_failed);
  }
}

TEST(ExecDeterminism, FeatureWorldTrialIdenticalAcrossThreadCounts) {
  auto world = sim::reference_feature_world();
  world.set_adaptation_enabled(false);
  sim::TrialRunner runner(world, 2 * sim::TrialRunner::kBatchSize + 7);
  const auto serial = runner.run(99, kSerial);
  const auto wide = runner.run(99, kWide);
  ASSERT_EQ(serial.records.size(), wide.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].class_index, wide.records[i].class_index);
    EXPECT_EQ(serial.records[i].machine_failed, wide.records[i].machine_failed);
    EXPECT_EQ(serial.records[i].human_failed, wide.records[i].human_failed);
  }
}

core::TradeoffAnalyzer example_tradeoff() {
  core::BinormalMachine machine;
  machine.cancer_class_means = {2.0, 0.5};
  machine.normal_class_means = {-1.5, -0.5};
  auto cancer_profile = core::DemandProfile::from_weights(
      {"easy-cancer", "hard-cancer"}, {0.9, 0.1});
  auto normal_profile = core::DemandProfile::from_weights(
      {"clear-normal", "odd-normal"}, {0.8, 0.2});
  std::vector<core::HumanFnResponse> fn = {{0.1, 0.5}, {0.3, 0.7}};
  std::vector<core::HumanFpResponse> fp = {{0.1, 0.02}, {0.3, 0.1}};
  return core::TradeoffAnalyzer(machine, cancer_profile, fn, normal_profile,
                                fp, 0.01);
}

TEST(ExecDeterminism, TradeoffSweepIdenticalAcrossThreadCounts) {
  const auto analyzer = example_tradeoff();
  std::vector<double> thresholds;
  for (int i = 0; i <= 2000; ++i) {
    thresholds.push_back(-3.0 + 6.0 * static_cast<double>(i) / 2000.0);
  }
  const auto serial = analyzer.sweep(thresholds, kSerial);
  const auto wide = analyzer.sweep(thresholds, kWide);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].system_fn, wide[i].system_fn);
    EXPECT_EQ(serial[i].system_fp, wide[i].system_fp);
    EXPECT_EQ(serial[i].ppv, wide[i].ppv);
  }
  const auto best_serial =
      analyzer.minimise_cost(100.0, 1.0, -3.0, 3.0, 5000, kSerial);
  const auto best_wide =
      analyzer.minimise_cost(100.0, 1.0, -3.0, 3.0, 5000, kWide);
  EXPECT_EQ(best_serial.threshold, best_wide.threshold);
  EXPECT_EQ(best_serial.system_fn, best_wide.system_fn);
}

TEST(ExecDeterminism, EmpiricalAucIdenticalAcrossThreadCounts) {
  stats::Rng rng(77);
  std::vector<double> positives(20'000), negatives(30'000);
  for (double& p : positives) p = rng.normal(1.0, 1.0);
  for (double& n : negatives) n = rng.normal(0.0, 1.0);
  const double serial = core::empirical_auc(positives, negatives, kSerial);
  const double wide = core::empirical_auc(positives, negatives, kWide);
  EXPECT_EQ(serial, wide);
}

TEST(ExecDeterminism, DesignCurveMatchesPointwiseCalls) {
  const auto model = core::paper::example_model();
  const auto field = core::paper::field_profile();
  std::vector<double> budgets;
  for (double b = 100.0; b <= 5000.0; b += 100.0) budgets.push_back(b);
  const auto curve = core::design_curve(model, field, budgets, kWide);
  ASSERT_EQ(curve.size(), budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const auto direct = core::optimal_allocation(model, field, budgets[i]);
    EXPECT_EQ(curve[i].predicted_standard_error,
              direct.predicted_standard_error);
    ASSERT_EQ(curve[i].cases.size(), direct.cases.size());
    for (std::size_t x = 0; x < direct.cases.size(); ++x) {
      EXPECT_EQ(curve[i].cases[x], direct.cases[x]);
    }
  }
}

}  // namespace
}  // namespace hmdiv
