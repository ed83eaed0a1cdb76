// Unit tests for stats/bootstrap.hpp.
#include "stats/bootstrap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "core/paper_example.hpp"
#include "exec/config.hpp"
#include "stats/hypothesis.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace hmdiv::stats {
namespace {

std::vector<double> normal_sample(double mu, double sigma, int n, Rng& rng) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(rng.normal(mu, sigma));
  return out;
}

TEST(Bootstrap, MeanIntervalCoversTruth) {
  Rng rng(77);
  const auto sample = normal_sample(3.0, 1.0, 400, rng);
  const auto result = bootstrap_percentile(
      sample, [](std::span<const double> s) { return mean(s); }, rng, 1500);
  EXPECT_NEAR(result.estimate, 3.0, 0.2);
  EXPECT_LT(result.lower, 3.0);
  EXPECT_GT(result.upper, 3.0);
}

TEST(Bootstrap, StandardErrorMatchesTheory) {
  Rng rng(78);
  const int n = 500;
  const auto sample = normal_sample(0.0, 2.0, n, rng);
  const auto result = bootstrap_percentile(
      sample, [](std::span<const double> s) { return mean(s); }, rng, 3000);
  // SE(mean) = sigma / sqrt(n) ~ 0.089.
  EXPECT_NEAR(result.standard_error, 2.0 / std::sqrt(n), 0.02);
}

TEST(Bootstrap, DegenerateSampleGivesZeroWidth) {
  Rng rng(79);
  const std::vector<double> sample(50, 1.5);
  const auto result = bootstrap_percentile(
      sample, [](std::span<const double> s) { return mean(s); }, rng, 200);
  EXPECT_EQ(result.estimate, 1.5);
  EXPECT_EQ(result.lower, 1.5);
  EXPECT_EQ(result.upper, 1.5);
  EXPECT_EQ(result.standard_error, 0.0);
}

TEST(Bootstrap, RejectsBadArguments) {
  Rng rng(80);
  const std::vector<double> empty;
  const std::vector<double> ok{1.0, 2.0};
  const auto stat = [](std::span<const double> s) { return mean(s); };
  EXPECT_THROW(bootstrap_percentile(empty, stat, rng), std::invalid_argument);
  EXPECT_THROW(bootstrap_percentile(ok, stat, rng, 0), std::invalid_argument);
  EXPECT_THROW(bootstrap_percentile(ok, stat, rng, 100, 1.5),
               std::invalid_argument);
}

TEST(BootstrapPaired, CorrelationIntervalCoversTruth) {
  Rng rng(81);
  // y = 0.8 x + noise: population correlation 0.8/sqrt(0.64+0.36) = 0.8.
  std::vector<double> x, y;
  for (int i = 0; i < 600; ++i) {
    const double xi = rng.normal();
    x.push_back(xi);
    y.push_back(0.8 * xi + 0.6 * rng.normal());
  }
  const auto result = bootstrap_paired(
      x, y,
      [](std::span<const double> a, std::span<const double> b) {
        return correlation(a, b);
      },
      rng, 1500);
  EXPECT_NEAR(result.estimate, 0.8, 0.08);
  EXPECT_LT(result.lower, 0.8);
  EXPECT_GT(result.upper, result.lower);
}

TEST(BootstrapPaired, RejectsSizeMismatch) {
  Rng rng(82);
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> y{1.0};
  EXPECT_THROW(bootstrap_paired(
                   x, y,
                   [](std::span<const double>, std::span<const double>) {
                     return 0.0;
                   },
                   rng),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// bootstrap_counts: the weighted-support bootstrap. Suite names start with
// Bootstrap so the TSan CI job's -R filter runs them.
// ---------------------------------------------------------------------------

// Same acceptance level as the batched-engine equivalence suites
// (test_uq_engine.cpp): fixed seeds, so each test always passes or always
// fails, far below any plausible false-alarm appetite.
constexpr double kAlpha = 1e-3;

/// The mean and the unbiased variance of the sample a weighted support
/// stands for: the count statistics that match stats::mean and
/// stats::sample_variance on the expanded sample.
double count_mean(std::span<const double> values,
                  std::span<const std::uint64_t> counts) {
  double total = 0.0, n = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    total += values[i] * static_cast<double>(counts[i]);
    n += static_cast<double>(counts[i]);
  }
  return total / n;
}

double count_variance(std::span<const double> values,
                      std::span<const std::uint64_t> counts) {
  const double m = count_mean(values, counts);
  double total = 0.0, n = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    total += static_cast<double>(counts[i]) * (values[i] - m) * (values[i] - m);
    n += static_cast<double>(counts[i]);
  }
  return total / (n - 1.0);
}

std::vector<double> expand(std::span<const double> values,
                           std::span<const std::uint64_t> counts) {
  std::vector<double> out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.insert(out.end(), counts[i], values[i]);
  }
  return out;
}

/// Every replicate statistic one bootstrap evaluates at one thread. The
/// first call is the point estimate on the original sample, so it is
/// dropped.
std::vector<double> count_replicates(std::span<const double> values,
                                     std::span<const std::uint64_t> counts,
                                     const CountStatistic& statistic,
                                     std::uint64_t seed,
                                     std::size_t replicates) {
  std::vector<double> seen;
  Rng rng(seed);
  (void)bootstrap_counts(
      values, counts,
      [&](std::span<const double> v, std::span<const std::uint64_t> c) {
        seen.push_back(statistic(v, c));
        return seen.back();
      },
      rng, replicates, 0.95, exec::Config{1});
  seen.erase(seen.begin());
  return seen;
}

std::vector<double> case_replicates(std::span<const double> sample,
                                    const Statistic& statistic,
                                    std::uint64_t seed,
                                    std::size_t replicates) {
  std::vector<double> seen;
  Rng rng(seed);
  (void)bootstrap_percentile(
      sample,
      [&](std::span<const double> s) {
        seen.push_back(statistic(s));
        return seen.back();
      },
      rng, replicates, 0.95, exec::Config{1});
  seen.erase(seen.begin());
  return seen;
}

/// Two-sample homogeneity chi-square over decile bins of equal-sized
/// samples a and b. The edges come from an independent pilot sample:
/// edges taken from a compared sample would make its own bin counts
/// exact while the test assumes both are noisy, inflating the statistic.
double decile_homogeneity_p(std::span<const double> a,
                            std::span<const double> b,
                            std::vector<double> pilot) {
  std::sort(pilot.begin(), pilot.end());
  const std::size_t n = pilot.size();
  const auto bin_of = [&](double v) {
    std::size_t bin = 0;
    while (bin < 9 && v > pilot[(bin + 1) * n / 10 - 1]) ++bin;
    return bin;
  };
  double counts_a[10] = {0}, counts_b[10] = {0};
  for (const double v : a) ++counts_a[bin_of(v)];
  for (const double v : b) ++counts_b[bin_of(v)];
  // Equal sample sizes: X² = Σ (a−b)²/(a+b) is chi-square with 9 dof
  // under homogeneity.
  double x2 = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double total = counts_a[i] + counts_b[i];
    EXPECT_GT(total, 0.0) << "empty decile " << i;
    if (total > 0.0) x2 += (counts_a[i] - counts_b[i]) *
                           (counts_a[i] - counts_b[i]) / total;
  }
  return chi_square_sf(x2, 9.0);
}

/// The count path and the case-level path draw their replicates from the
/// same distribution: a two-sample KS test and a decile chi-square.
void expect_same_replicate_distribution(std::span<const double> values,
                                        std::span<const std::uint64_t> counts,
                                        const CountStatistic& by_count,
                                        const Statistic& by_case) {
  constexpr std::size_t kReplicates = 4000;
  const std::vector<double> sample = expand(values, counts);
  const auto counted = count_replicates(values, counts, by_count, 101,
                                        kReplicates);
  const auto cased = case_replicates(sample, by_case, 102, kReplicates);
  ASSERT_EQ(counted.size(), kReplicates);
  ASSERT_EQ(cased.size(), kReplicates);
  const auto ks = kolmogorov_smirnov_two_sample(counted, cased);
  EXPECT_GT(ks.p_value, kAlpha) << "KS statistic " << ks.statistic;
  const auto pilot = case_replicates(sample, by_case, 103, kReplicates);
  EXPECT_GT(decile_homogeneity_p(counted, cased, pilot), kAlpha);
}

TEST(BootstrapCounts, ZeroOneMeanMatchesCaseLevelDistribution) {
  const std::vector<double> values{0.0, 1.0};
  const std::vector<std::uint64_t> counts{765, 235};
  expect_same_replicate_distribution(
      values, counts, count_mean,
      [](std::span<const double> s) { return mean(s); });
}

TEST(BootstrapCounts, FiveValueVarianceMatchesCaseLevelDistribution) {
  // A nonlinear statistic over a support with more than two cells, so
  // the multinomial runs its full chain of conditional binomials.
  const std::vector<double> values{0.0, 1.0, 2.5, 4.0, 7.0};
  const std::vector<std::uint64_t> counts{120, 300, 250, 200, 130};
  expect_same_replicate_distribution(
      values, counts, count_variance,
      [](std::span<const double> s) { return sample_variance(s); });
}

TEST(BootstrapCounts, BitIdenticalAcrossThreadCounts) {
  const std::vector<double> binary{0.0, 1.0};
  const std::vector<std::uint64_t> trial{152'660, 47'340};
  const std::vector<double> five{0.0, 1.0, 2.5, 4.0, 7.0};
  const std::vector<std::uint64_t> five_counts{0, 300, 250, 200, 130};
  for (const auto& [values, counts, statistic] :
       {std::tuple{binary, trial, CountStatistic(count_mean)},
        std::tuple{five, five_counts, CountStatistic(count_variance)}}) {
    Rng rng1(2024), rng4(2024);
    const auto serial = bootstrap_counts(values, counts, statistic, rng1,
                                         2000, 0.95, exec::Config{1});
    const auto wide = bootstrap_counts(values, counts, statistic, rng4, 2000,
                                       0.95, exec::Config{4});
    EXPECT_EQ(serial.estimate, wide.estimate);
    EXPECT_EQ(serial.lower, wide.lower);
    EXPECT_EQ(serial.upper, wide.upper);
    EXPECT_EQ(serial.standard_error, wide.standard_error);
    EXPECT_LT(serial.lower, serial.upper);
    // The caller's generator advanced by the same single step.
    EXPECT_EQ(rng1.next_u64(), rng4.next_u64());
  }
}

TEST(BootstrapCountsAlloc, SteadyStateDoesNotAllocate) {
  const std::vector<double> values{0.0, 1.0, 2.5};
  const std::vector<std::uint64_t> counts{500, 300, 200};
  const CountStatistic statistic = count_mean;
  const exec::Config serial{1};
  Rng rng(17);
  // Warm-up grows the thread-local arena to the high-water mark.
  (void)bootstrap_counts(values, counts, statistic, rng, 500, 0.95, serial);
  const std::uint64_t before = test::allocation_count();
  (void)bootstrap_counts(values, counts, statistic, rng, 500, 0.95, serial);
  EXPECT_EQ(test::allocation_count() - before, 0u);
}

TEST(BootstrapCounts, RejectsBadArguments) {
  Rng rng(83);
  const std::vector<double> values{0.0, 1.0};
  const std::vector<std::uint64_t> counts{3, 4};
  const std::vector<double> none;
  const std::vector<std::uint64_t> no_counts;
  const std::vector<std::uint64_t> three{1, 2, 3};
  const std::vector<std::uint64_t> zeros{0, 0};
  const std::vector<std::uint64_t> overflow{~0ULL, 1};
  const CountStatistic stat = count_mean;
  EXPECT_THROW(bootstrap_counts(none, no_counts, stat, rng),
               std::invalid_argument);
  EXPECT_THROW(bootstrap_counts(values, three, stat, rng),
               std::invalid_argument);
  EXPECT_THROW(bootstrap_counts(values, zeros, stat, rng),
               std::invalid_argument);
  EXPECT_THROW(bootstrap_counts(values, overflow, stat, rng),
               std::invalid_argument);
  EXPECT_THROW(bootstrap_counts(values, counts, stat, rng, 0),
               std::invalid_argument);
  for (const double confidence : {0.0, 1.0, 1.5, -0.1}) {
    EXPECT_THROW(bootstrap_counts(values, counts, stat, rng, 100, confidence),
                 std::invalid_argument);
  }
}

TEST(BootstrapCounts, NaNStatisticPropagatesToIntervalAndStandardError) {
  // log of the mean minus 0.999: NaN whenever a replicate draws the -1 —
  // and with 63 ones and one -1 some replicates will.
  const std::vector<double> values{-1.0, 1.0};
  const std::vector<std::uint64_t> counts{1, 63};
  const CountStatistic fragile = [](std::span<const double> v,
                                    std::span<const std::uint64_t> c) {
    return std::log(count_mean(v, c) - 0.999);
  };
  Rng rng(5);
  const auto result = bootstrap_counts(values, counts, fragile, rng, 200,
                                       0.95, exec::Config{1});
  EXPECT_TRUE(std::isnan(result.lower));
  EXPECT_TRUE(std::isnan(result.upper));
  EXPECT_TRUE(std::isnan(result.standard_error));
}

// Interval calibration: simulate M trials at the paper's Section 5 trial
// system failure rate (T1's parameters through Eq. (8)), put a
// count-bootstrap 95% interval on each observed rate, and require
// coverage of the true rate within 3 binomial standard errors of 0.95.
// Each replicate is one binomial draw, so M = 1000 is affordable. The
// intervals use the library's default 2000 replicates: at the CLI's 500,
// the type-7 percentile endpoints sit inside the 2.5%/97.5% points and
// cover about 0.945 (EXPERIMENTS.md, C1).
double count_bootstrap_coverage(std::uint64_t n, std::uint64_t seed) {
  constexpr int kTrials = 1000;
  const double p = core::paper::example_model().system_failure_probability(
      core::paper::trial_profile());
  const std::vector<double> values{0.0, 1.0};
  Rng trials(seed);
  int covered = 0;
  for (int m = 0; m < kTrials; ++m) {
    const std::uint64_t failed = trials.binomial(n, p);
    const std::vector<std::uint64_t> counts{n - failed, failed};
    const auto interval =
        bootstrap_counts(values, counts, count_mean, trials, 2000, 0.95);
    if (interval.lower <= p && p <= interval.upper) ++covered;
  }
  return covered / static_cast<double>(kTrials);
}

TEST(BootstrapCalibration, CountIntervalCoversTrialRateAtNominalRate) {
  const double tolerance = 3.0 * std::sqrt(0.95 * 0.05 / 1000.0);
  for (const auto& [n, seed] : {std::pair<std::uint64_t, std::uint64_t>{
                                    200'000, 61},
                                {500, 62}}) {
    EXPECT_NEAR(count_bootstrap_coverage(n, seed), 0.95, tolerance)
        << "n = " << n;
  }
}

}  // namespace
}  // namespace hmdiv::stats
