// Tests for the batched uncertainty engine: the bulk fill_gamma/fill_beta
// kernels and their vector acceptance decision, the fused
// sample-and-evaluate posterior path, and its contracts — statistical
// equivalence with the scalar reference, bit-identical results across
// thread counts, zero steady-state heap allocations, and NaN propagation.
//
// Suite names deliberately start with Uncertainty/Bootstrap so the TSan CI
// job (-R '…|Uncertainty|Bootstrap') runs all of them.
#include "core/uncertainty.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "alloc_count.hpp"
#include "core/paper_example.hpp"
#include "exec/config.hpp"
#include "stats/bootstrap.hpp"
#include "stats/hypothesis.hpp"
#include "stats/rng.hpp"
#include "stats/special.hpp"

namespace hmdiv::core {
namespace {

// House convention for stochastic assertions (see test_batch_sim.cpp):
// each statistical test uses a fixed seed, so it either always passes or
// always fails, and the acceptance threshold is far below any plausible
// false-alarm appetite.
constexpr double kAlpha = 1e-3;

std::vector<ClassCounts> paper_counts() {
  ClassCounts easy;
  easy.cases = 800;
  easy.machine_failures = 56;
  easy.human_failures_given_machine_failed = 28;
  easy.human_failures_given_machine_succeeded = 40;
  ClassCounts difficult;
  difficult.cases = 200;
  difficult.machine_failures = 82;
  difficult.human_failures_given_machine_failed = 74;
  difficult.human_failures_given_machine_succeeded = 30;
  return {easy, difficult};
}

PosteriorModelSampler paper_sampler() {
  return PosteriorModelSampler({"easy", "difficult"}, paper_counts());
}

/// Two-sample z-test on means (unequal variances); returns the p-value.
double mean_z_test_p(std::span<const double> a, std::span<const double> b) {
  auto moments = [](std::span<const double> s) {
    double sum = 0.0;
    for (const double v : s) sum += v;
    const double mean = sum / static_cast<double>(s.size());
    double m2 = 0.0;
    for (const double v : s) m2 += (v - mean) * (v - mean);
    return std::pair{mean, m2 / static_cast<double>(s.size() - 1)};
  };
  const auto [ma, va] = moments(a);
  const auto [mb, vb] = moments(b);
  const double se = std::sqrt(va / static_cast<double>(a.size()) +
                              vb / static_cast<double>(b.size()));
  const double z = (ma - mb) / se;
  return 2.0 * (1.0 - stats::normal_cdf(std::fabs(z)));
}

// ---------------------------------------------------------------------------
// Statistical equivalence: batched kernels vs their scalar references.
// ---------------------------------------------------------------------------

TEST(UncertaintyEngineStats, FillGammaMatchesGammaCdf) {
  // One shape per regime: large (the posterior shapes of an 800-case
  // class), moderate, and boosted (< 1, exercised via Gamma(shape+1)·u^(1/k)).
  for (const double shape : {744.5, 2.5, 0.5}) {
    stats::Rng rng(77);
    const stats::Rng::GammaPrep prep(shape);
    std::vector<double> draws(40'000);
    rng.fill_gamma(prep, draws);
    const auto ks = stats::kolmogorov_smirnov_test(draws, [&](double x) {
      return x <= 0.0 ? 0.0
                      : stats::regularized_lower_incomplete_gamma(shape, x);
    });
    EXPECT_GT(ks.p_value, kAlpha)
        << "shape " << shape << " KS statistic " << ks.statistic;
  }
}

TEST(UncertaintyEngineStats, FillGammaMatchesGammaCdfAtServeShapes) {
  // The uq endpoint's posterior shapes (2000 synthetic cases per class:
  // 25.5 and 115.5 the smallest, 1860.5 the largest), and shape 1, where
  // v = 1 + c·z turns negative for z < −3.7 and refill rounds are frequent.
  for (const double shape : {25.5, 115.5, 1740.5, 1860.5, 1.0}) {
    stats::Rng rng(2003);
    const stats::Rng::GammaPrep prep(shape);
    std::vector<double> draws(40'000);
    rng.fill_gamma(prep, draws);
    const auto ks = stats::kolmogorov_smirnov_test(draws, [&](double x) {
      return x <= 0.0 ? 0.0
                      : stats::regularized_lower_incomplete_gamma(shape, x);
    });
    EXPECT_GT(ks.p_value, kAlpha)
        << "shape " << shape << " KS statistic " << ks.statistic;
  }
}

TEST(UncertaintyEngineStats, FillBetaMatchesBetaCdf) {
  const std::pair<double, double> shapes[] = {{56.5, 744.5}, {2.5, 3.5},
                                              {0.5, 0.5}};
  for (const auto& [a, b] : shapes) {
    stats::Rng rng(123);
    const stats::Rng::GammaPrep prep_a(a);
    const stats::Rng::GammaPrep prep_b(b);
    std::vector<double> draws(40'000);
    rng.fill_beta(prep_a, prep_b, draws);
    const auto ks = stats::kolmogorov_smirnov_test(
        draws, [&](double x) { return stats::beta_cdf(a, b, x); });
    EXPECT_GT(ks.p_value, kAlpha)
        << "Beta(" << a << "," << b << ") KS statistic " << ks.statistic;
  }
}

TEST(UncertaintyEngineStats, FillBetaMatchesScalarBetaDraws) {
  // Two-sample KS: the batched kernel against the scalar beta() the
  // per-draw reference path uses, same shapes, independent streams.
  const stats::Rng::GammaPrep prep_a(82.5), prep_b(118.5);
  stats::Rng rng_batch(5), rng_scalar(6);
  std::vector<double> batched(30'000), scalar(30'000);
  rng_batch.fill_beta(prep_a, prep_b, batched);
  for (double& v : scalar) v = rng_scalar.beta(prep_a, prep_b);
  const auto ks = stats::kolmogorov_smirnov_two_sample(batched, scalar);
  EXPECT_GT(ks.p_value, kAlpha) << "KS statistic " << ks.statistic;
}

TEST(UncertaintyEngineStats, BatchedPosteriorMatchesScalarReference) {
  // The full fused path vs the pre-batching scalar loop: sample the
  // posterior predictive failure probability both ways and compare with a
  // two-sample KS test, a z-test on means, and a chi-square over decile
  // bins of the scalar empirical distribution.
  const auto sampler = paper_sampler();
  const auto profile = paper::field_profile();
  const exec::Config serial{1};
  constexpr std::size_t kDraws = 20'000;

  stats::Rng rng_batch(31);
  std::vector<double> batched(kDraws);
  sampler.sample_failure_probabilities(profile, rng_batch, batched, serial);

  stats::Rng rng_scalar(32);
  std::vector<double> scalar(kDraws);
  for (double& v : scalar) {
    v = sampler.sample(rng_scalar).system_failure_probability(profile);
  }

  const auto ks = stats::kolmogorov_smirnov_two_sample(batched, scalar);
  EXPECT_GT(ks.p_value, kAlpha) << "KS statistic " << ks.statistic;

  EXPECT_GT(mean_z_test_p(batched, scalar), kAlpha);

  // Two-sample homogeneity chi-square over decile bins. The edges come
  // from an independent pilot sample — edges derived from one of the
  // compared samples would make its own bin counts exact (no noise) while
  // the test assumes both are noisy, inflating the statistic.
  std::vector<double> edges(kDraws);
  stats::Rng rng_edges(33);
  for (double& v : edges) {
    v = sampler.sample(rng_edges).system_failure_probability(profile);
  }
  std::sort(edges.begin(), edges.end());
  const auto bin_of = [&](double v) {
    std::size_t bin = 0;
    while (bin < 9 && v > edges[(bin + 1) * kDraws / 10 - 1]) ++bin;
    return bin;
  };
  double counts_batched[10] = {0}, counts_scalar[10] = {0};
  for (const double v : batched) ++counts_batched[bin_of(v)];
  for (const double v : scalar) ++counts_scalar[bin_of(v)];
  // Equal sample sizes: X² = Σ (a−b)²/(a+b) is chi-square with k−1 dof
  // under homogeneity.
  double x2 = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double total = counts_batched[i] + counts_scalar[i];
    ASSERT_GT(total, 0.0);
    const double diff = counts_batched[i] - counts_scalar[i];
    x2 += diff * diff / total;
  }
  EXPECT_GT(stats::chi_square_sf(x2, 9.0), kAlpha) << "chi-square " << x2;
}

TEST(UncertaintyEngineStats, PredictAgreesWithPredictReference) {
  // Same workload through both entry points: the summaries must agree to
  // within a few Monte-Carlo standard errors (they use different draws).
  const auto sampler = paper_sampler();
  const auto profile = paper::field_profile();
  const exec::Config serial{1};
  stats::Rng rng_a(7), rng_b(8);
  const auto batched = sampler.predict(profile, rng_a, 40'000, 0.95, serial);
  const auto reference =
      sampler.predict_reference(profile, rng_b, 40'000, 0.95, serial);
  const double se = batched.stddev / std::sqrt(40'000.0);
  EXPECT_NEAR(batched.mean, reference.mean, 5.0 * se);
  EXPECT_NEAR(batched.stddev, reference.stddev, 0.05 * reference.stddev);
  // Sample quantiles are noisier than the mean (SE ≈ sqrt(p(1-p)/n)/f(q),
  // several times the SE of the mean here), so the bound is looser.
  EXPECT_NEAR(batched.lower, reference.lower, 30.0 * se);
  EXPECT_NEAR(batched.upper, reference.upper, 30.0 * se);
}

// ---------------------------------------------------------------------------
// The vector acceptance decision of fill_gamma against the libm test.
// ---------------------------------------------------------------------------

/// gamma_core's Marsaglia–Tsang test with std::log, for candidate z.
bool libm_accepts(double u, double z, double d, double c) {
  const double v = 1.0 + c * z;
  if (!(v > 0.0)) return false;
  const double v3 = v * v * v;
  if (u < 1.0 - 0.0331 * z * z * z * z) return true;
  return std::log(u) < 0.5 * z * z + d * (1.0 - v3 + std::log(v3));
}

TEST(UncertaintyEngineExact, GammaDecisionMatchesLogTestOutsideBand) {
  // 5 shapes × 240k seeded candidates on fill_gamma's 2⁻³² mid-tread grid:
  // the serve shapes, shape 1 (v ≤ 0 lanes) and the boosted 0.5 (decided
  // as Gamma(1.5)). Then, per shape, candidates whose u sits a relative
  // δ from the exact threshold e^(z²/2 + d(1 − v³ + ln v³)), from well
  // inside the undecided band to far outside it. Every decided lane must
  // agree with std::log.
  constexpr double kIcdfPLow = 0.02425;  // Acklam's tail boundary
  constexpr std::size_t kLanes = 240'000;
  std::size_t total = 0, tails = 0, squeeze_failures = 0, dead = 0;
  std::size_t random_undecided = 0, mismatches = 0, value_errors = 0;
  std::size_t near_undecided = 0, far_undecided = 0;
  for (const double shape : {25.5, 115.5, 1860.5, 1.0, 0.5}) {
    const stats::Rng::GammaPrep prep(shape);
    const double d = prep.d;
    const double c = prep.c;
    std::vector<double> p(kLanes), u(kLanes), z(kLanes), value(kLanes);
    std::vector<std::uint64_t> verdict(kLanes);
    stats::Rng rng(static_cast<std::uint64_t>(shape * 1000.0));
    for (std::size_t j = 0; j < kLanes; ++j) {
      const std::uint64_t r = rng.next_u64();
      p[j] = (static_cast<double>(r >> 32) + 0.5) * 0x1.0p-32;
      u[j] = (static_cast<double>(r & 0xFFFFFFFFULL) + 0.5) * 0x1.0p-32;
    }
    stats::detail::gamma_decide_block(p.data(), u.data(), d, c, z.data(),
                                      value.data(), verdict.data(), kLanes);
    for (std::size_t j = 0; j < kLanes; ++j) {
      ++total;
      const double v = 1.0 + c * z[j];
      tails += (p[j] < kIcdfPLow || p[j] > 1.0 - kIcdfPLow) ? 1 : 0;
      dead += v > 0.0 ? 0 : 1;
      const double z2 = z[j] * z[j];
      squeeze_failures += (v > 0.0 && !(u[j] < 1.0 - 0.0331 * z2 * z2)) ? 1 : 0;
      const double expected_value = d * (v * v * v);
      value_errors +=
          std::fabs(value[j] - expected_value) <=
                  1e-12 * (1.0 + std::fabs(expected_value))
              ? 0
              : 1;
      if (verdict[j] == stats::detail::kGammaUndecided) {
        ++random_undecided;
        continue;
      }
      const bool expected = libm_accepts(u[j], z[j], d, c);
      if ((verdict[j] == stats::detail::kGammaAccept) != expected) ++mismatches;
    }

    // Near-threshold candidates: keep each lane's p (so z is unchanged),
    // move u to threshold·(1 + δ) where that lies in (0, 1) and the
    // squeeze does not already accept.
    constexpr double kDeltas[] = {-1e-6, -1e-9,  -1e-11, -1e-13, -1e-15,
                                  1e-15, 1e-13,  1e-11,  1e-9,   1e-6};
    std::vector<double> np, nu, nz, nvalue;
    std::vector<double> ndelta;
    for (std::size_t j = 0; j < kLanes && np.size() < 40'000; ++j) {
      const double v = 1.0 + c * z[j];
      if (!(v > 0.0)) continue;
      const double v3 = v * v * v;
      const double threshold =
          std::exp(0.5 * z[j] * z[j] + d * (1.0 - v3 + std::log(v3)));
      for (const double delta : kDeltas) {
        const double uu = threshold * (1.0 + delta);
        const double z2 = z[j] * z[j];
        if (!(uu > 0.0 && uu < 1.0) || uu < 1.0 - 0.0331 * z2 * z2) continue;
        np.push_back(p[j]);
        nu.push_back(uu);
        ndelta.push_back(delta);
      }
    }
    ASSERT_GT(np.size(), 10'000u) << "shape " << shape;
    nz.resize(np.size());
    nvalue.resize(np.size());
    std::vector<std::uint64_t> nverdict(np.size());
    stats::detail::gamma_decide_block(np.data(), nu.data(), d, c, nz.data(),
                                      nvalue.data(), nverdict.data(),
                                      np.size());
    for (std::size_t j = 0; j < np.size(); ++j) {
      ++total;
      if (nverdict[j] == stats::detail::kGammaUndecided) {
        if (std::fabs(ndelta[j]) < 1e-14) ++near_undecided;
        if (std::fabs(ndelta[j]) > 1e-10) ++far_undecided;
        continue;
      }
      const bool expected = libm_accepts(nu[j], nz[j], d, c);
      if ((nverdict[j] == stats::detail::kGammaAccept) != expected) {
        ++mismatches;
      }
    }
  }
  EXPECT_GE(total, 1'000'000u);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(value_errors, 0u);
  // The run reaches every lane kind the decision pass handles.
  EXPECT_GT(tails, 40'000u);
  EXPECT_GT(squeeze_failures, 60'000u);
  EXPECT_GT(dead, 0u);
  // The band is live (lanes a few ulps from the threshold defer to
  // std::log) and narrow (a random lane, or one 10⁻⁹ away, never does).
  EXPECT_GT(near_undecided, 0u);
  EXPECT_EQ(far_undecided, 0u);
  EXPECT_EQ(random_undecided, 0u);
}

// ---------------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------------

TEST(UncertaintyEngineDeterminism, PredictBitIdenticalAcrossThreadCounts) {
  const auto sampler = paper_sampler();
  const auto profile = paper::field_profile();
  stats::Rng rng1(99), rng4(99);
  const auto serial = sampler.predict(profile, rng1, 10'000, 0.95,
                                      exec::Config{1});
  const auto wide = sampler.predict(profile, rng4, 10'000, 0.95,
                                    exec::Config{4});
  EXPECT_EQ(serial.mean, wide.mean);
  EXPECT_EQ(serial.stddev, wide.stddev);
  EXPECT_EQ(serial.lower, wide.lower);
  EXPECT_EQ(serial.upper, wide.upper);
}

TEST(UncertaintyEngineDeterminism, SampleBufferIdenticalAcrossThreadCounts) {
  const auto sampler = paper_sampler();
  const auto profile = paper::field_profile();
  stats::Rng rng1(4242), rng4(4242);
  std::vector<double> serial(5'000), wide(5'000);
  sampler.sample_failure_probabilities(profile, rng1, serial, exec::Config{1});
  sampler.sample_failure_probabilities(profile, rng4, wide, exec::Config{4});
  EXPECT_EQ(serial, wide);
}

// ---------------------------------------------------------------------------
// Zero steady-state heap allocations (counting operator new harness shared
// with the sweep engine tests via alloc_count.hpp).
// ---------------------------------------------------------------------------

TEST(UncertaintyEngineAlloc, PredictSteadyStateDoesNotAllocate) {
  const auto sampler = paper_sampler();
  const auto profile = paper::field_profile();
  const exec::Config serial{1};
  stats::Rng rng(1);
  // Warm-up grows the thread-local arena to the high-water mark.
  (void)sampler.predict(profile, rng, 8'192, 0.95, serial);
  const std::uint64_t before = test::allocation_count();
  (void)sampler.predict(profile, rng, 8'192, 0.95, serial);
  EXPECT_EQ(test::allocation_count() - before, 0u);
}

TEST(BootstrapAlloc, PercentileSteadyStateDoesNotAllocate) {
  std::vector<double> sample(256);
  stats::Rng fill(3);
  fill.fill_uniform(sample);
  const stats::Statistic mean_stat = [](std::span<const double> s) {
    double total = 0.0;
    for (const double v : s) total += v;
    return total / static_cast<double>(s.size());
  };
  const exec::Config serial{1};
  stats::Rng rng(17);
  (void)stats::bootstrap_percentile(sample, mean_stat, rng, 500, 0.95, serial);
  const std::uint64_t before = test::allocation_count();
  (void)stats::bootstrap_percentile(sample, mean_stat, rng, 500, 0.95, serial);
  EXPECT_EQ(test::allocation_count() - before, 0u);
}

// ---------------------------------------------------------------------------
// NaN propagation: an undefined statistic must come out as NaN, never as a
// confident-looking clamped bound.
// ---------------------------------------------------------------------------

TEST(UncertaintyEngineNaN, SummariseWithNaNDrawIsAllNaN) {
  std::vector<double> draws(100, 0.25);
  draws[37] = std::numeric_limits<double>::quiet_NaN();
  const auto out = PosteriorModelSampler::summarise(draws, 0.95);
  EXPECT_TRUE(std::isnan(out.mean));
  EXPECT_TRUE(std::isnan(out.stddev));
  EXPECT_TRUE(std::isnan(out.lower));
  EXPECT_TRUE(std::isnan(out.upper));
}

TEST(BootstrapNaN, NaNStatisticPropagatesToIntervalAndStandardError) {
  std::vector<double> sample(64, 1.0);
  sample[0] = -1.0;
  const stats::Statistic fragile = [](std::span<const double> s) {
    // log of the mean: NaN whenever the resample mean dips negative —
    // and with 63 ones and one -1 some resamples will.
    double total = 0.0;
    for (const double v : s) total += v;
    return std::log(total / static_cast<double>(s.size()) - 0.999);
  };
  stats::Rng rng(5);
  const auto result =
      stats::bootstrap_percentile(sample, fragile, rng, 200, 0.95,
                                  exec::Config{1});
  EXPECT_TRUE(std::isnan(result.lower));
  EXPECT_TRUE(std::isnan(result.upper));
  EXPECT_TRUE(std::isnan(result.standard_error));
}

}  // namespace
}  // namespace hmdiv::core
