// Nonparametric bootstrap for statistics of i.i.d. samples, used to put
// intervals on derived quantities (e.g. the importance index t(x) or the
// covariance term of Eq. (10)) for which no closed-form interval exists.
//
// Replicates run in parallel on the exec engine: replicate r draws from
// the substream Rng(base, r), where `base` is one 64-bit draw from the
// caller's generator, so results are bit-identical for any thread count
// (the caller's rng advances by exactly one step either way).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "exec/config.hpp"

namespace hmdiv::stats {

class Rng;

/// Result of a bootstrap run: point estimate on the original sample plus a
/// percentile interval of the resampled statistic.
struct BootstrapResult {
  double estimate = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  /// Bootstrap standard error (stddev of the resampled statistic).
  double standard_error = 0.0;
};

/// A statistic maps a sample (span of doubles) to a scalar.
using Statistic = std::function<double(std::span<const double>)>;

/// Percentile bootstrap with `replicates` resamples at level `confidence`.
/// Throws if the sample is empty or replicates == 0.
[[nodiscard]] BootstrapResult bootstrap_percentile(
    std::span<const double> sample, const Statistic& statistic, Rng& rng,
    std::size_t replicates = 2000, double confidence = 0.95,
    const exec::Config& config = exec::default_config());

/// Paired bootstrap for statistics of two aligned samples (x_i, y_i), e.g.
/// a correlation. The pairs are resampled jointly.
using PairedStatistic =
    std::function<double(std::span<const double>, std::span<const double>)>;

[[nodiscard]] BootstrapResult bootstrap_paired(
    std::span<const double> x, std::span<const double> y,
    const PairedStatistic& statistic, Rng& rng, std::size_t replicates = 2000,
    double confidence = 0.95,
    const exec::Config& config = exec::default_config());

/// A statistic of a weighted support: the sample holds `values[i]`
/// `counts[i]` times.
using CountStatistic = std::function<double(
    std::span<const double> values, std::span<const std::uint64_t> counts)>;

/// Percentile bootstrap over a weighted support: the same resampling
/// distribution as bootstrap_percentile over the sample that repeats
/// values[i] counts[i] times, at O(cells) instead of O(sample) per
/// replicate. Replicate r redraws the counts as one Multinomial(N,
/// counts/N) from substream Rng(base, r) by sequential conditional
/// binomials (for 0/1 data, a single binomial draw), so results are
/// bit-identical at any thread count but not bitwise equal to the
/// case-level path. Throws if the support is empty, the spans differ in
/// size, the counts are all zero or overflow their sum, replicates == 0,
/// or confidence is outside (0, 1).
[[nodiscard]] BootstrapResult bootstrap_counts(
    std::span<const double> values, std::span<const std::uint64_t> counts,
    const CountStatistic& statistic, Rng& rng, std::size_t replicates = 2000,
    double confidence = 0.95,
    const exec::Config& config = exec::default_config());

}  // namespace hmdiv::stats
