#include "stats/bootstrap.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "exec/parallel.hpp"
#include "exec/workspace.hpp"
#include "obs/obs.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace hmdiv::stats {

namespace {

/// Replicates per chunk: large enough to amortise scheduling over the
/// statistic evaluations, small enough that 2000 replicates still split
/// into ~125 chunks for wide machines.
constexpr std::size_t kReplicateGrain = 16;

/// Partially reorders `replicates` in place (workspace scratch — nothing
/// else reads it afterwards) and derives the interval summary. Quantiles
/// come from the shared selection-based stats::quantiles — no full sort,
/// and the same type-7 interpolation as the posterior credible intervals.
/// A NaN replicate yields a NaN interval and standard error: the statistic
/// is undefined, and a NaN must never be sorted to an arbitrary end.
BootstrapResult summarise(double estimate, std::span<double> replicates,
                          double confidence) {
  HMDIV_OBS_SCOPED_TIMER("stats.boot.summarise_ns");
  const double alpha = 1.0 - confidence;
  const double qs[2] = {alpha / 2.0, 1.0 - alpha / 2.0};
  double bounds[2];
  quantiles(replicates, qs, bounds);
  BootstrapResult out;
  out.estimate = estimate;
  out.lower = bounds[0];
  out.upper = bounds[1];
  OnlineStats stats;
  for (const double r : replicates) stats.add(r);
  out.standard_error = stats.stddev();
  return out;
}

void check_args(std::size_t sample_size, std::size_t replicates,
                double confidence) {
  if (sample_size == 0) throw std::invalid_argument("bootstrap: empty sample");
  if (replicates == 0) {
    throw std::invalid_argument("bootstrap: replicates == 0");
  }
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::invalid_argument("bootstrap: confidence outside (0,1)");
  }
}

/// The replicate loop every bootstrap shares. `fill(local, begin, end,
/// base, out)` writes the statistic of replicates [begin, end) to `out`,
/// drawing replicate r from its own substream Rng(base, r) only, where
/// `base` is one 64-bit step of the caller's rng: the statistics come out
/// identical no matter how chunks map to threads. `local` is the executing
/// thread's arena, rewound after each chunk, for per-worker scratch: it is
/// reused across chunks after warm-up, so `fill` must overwrite every
/// element before reading it (the fill order is fixed by the substream,
/// so reuse cannot change the result either).
template <typename FillChunk>
BootstrapResult run_replicates(double estimate, Rng& rng,
                               std::size_t replicates, double confidence,
                               const exec::Config& config,
                               const FillChunk& fill) {
  const std::uint64_t base = rng.next_u64();
  exec::Workspace& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  const std::span<double> out = workspace.alloc<double>(replicates);
  exec::parallel_for_chunks(
      replicates, kReplicateGrain,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        exec::Workspace& local = exec::thread_workspace();
        const exec::Workspace::Scope chunk_scope(local);
        fill(local, begin, end, base, out);
      },
      config);
  return summarise(estimate, out, confidence);
}

}  // namespace

BootstrapResult bootstrap_percentile(std::span<const double> sample,
                                     const Statistic& statistic, Rng& rng,
                                     std::size_t replicates, double confidence,
                                     const exec::Config& config) {
  check_args(sample.size(), replicates, confidence);
  HMDIV_OBS_SCOPED_TIMER("stats.bootstrap.run_ns");
  HMDIV_OBS_COUNT("stats.bootstrap.calls", 1);
  HMDIV_OBS_COUNT("stats.bootstrap.replicates", replicates);
  return run_replicates(
      statistic(sample), rng, replicates, confidence, config,
      [&](exec::Workspace& local, std::size_t begin, std::size_t end,
          std::uint64_t base, std::span<double> out) {
        const std::span<double> resample = local.alloc<double>(sample.size());
        for (std::size_t r = begin; r < end; ++r) {
          Rng replicate_rng(base, r);
          for (double& v : resample) {
            v = sample[static_cast<std::size_t>(
                replicate_rng.uniform_index(sample.size()))];
          }
          out[r] = statistic(resample);
        }
      });
}

BootstrapResult bootstrap_paired(std::span<const double> x,
                                 std::span<const double> y,
                                 const PairedStatistic& statistic, Rng& rng,
                                 std::size_t replicates, double confidence,
                                 const exec::Config& config) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("bootstrap_paired: size mismatch");
  }
  check_args(x.size(), replicates, confidence);
  HMDIV_OBS_SCOPED_TIMER("stats.bootstrap.run_ns");
  HMDIV_OBS_COUNT("stats.bootstrap.calls", 1);
  HMDIV_OBS_COUNT("stats.bootstrap.replicates", replicates);
  return run_replicates(
      statistic(x, y), rng, replicates, confidence, config,
      [&](exec::Workspace& local, std::size_t begin, std::size_t end,
          std::uint64_t base, std::span<double> out) {
        const std::span<double> rx = local.alloc<double>(x.size());
        const std::span<double> ry = local.alloc<double>(y.size());
        for (std::size_t r = begin; r < end; ++r) {
          Rng replicate_rng(base, r);
          for (std::size_t i = 0; i < x.size(); ++i) {
            const auto j = static_cast<std::size_t>(
                replicate_rng.uniform_index(x.size()));
            rx[i] = x[j];
            ry[i] = y[j];
          }
          out[r] = statistic(rx, ry);
        }
      });
}

BootstrapResult bootstrap_counts(std::span<const double> values,
                                 std::span<const std::uint64_t> counts,
                                 const CountStatistic& statistic, Rng& rng,
                                 std::size_t replicates, double confidence,
                                 const exec::Config& config) {
  check_args(values.size(), replicates, confidence);
  if (values.size() != counts.size()) {
    throw std::invalid_argument("bootstrap_counts: values/counts size mismatch");
  }
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) {
    if (c > std::numeric_limits<std::uint64_t>::max() - total) {
      throw std::invalid_argument("bootstrap_counts: counts overflow");
    }
    total += c;
  }
  if (total == 0) throw std::invalid_argument("bootstrap_counts: all counts 0");
  HMDIV_OBS_SCOPED_TIMER("stats.bootstrap.run_ns");
  HMDIV_OBS_COUNT("stats.bootstrap.calls", 1);
  HMDIV_OBS_COUNT("stats.bootstrap.replicates", replicates);
  return run_replicates(
      statistic(values, counts), rng, replicates, confidence, config,
      [&](exec::Workspace& local, std::size_t begin, std::size_t end,
          std::uint64_t base, std::span<double> out) {
        const std::span<std::uint64_t> resample =
            local.alloc<std::uint64_t>(counts.size());
        for (std::size_t r = begin; r < end; ++r) {
          Rng replicate_rng(base, r);
          // Multinomial(total, counts/total) as conditional binomials: of
          // the `left` draws cells 0..i−1 did not take, cell i takes
          // Binomial(left, counts[i]/mass), mass = counts[i] + … + counts[last].
          // The last non-empty cell (counts[i] == mass) takes all of them.
          std::uint64_t left = total;
          std::uint64_t mass = total;
          for (std::size_t i = 0; i < counts.size(); ++i) {
            resample[i] = counts[i] == mass
                              ? left
                              : replicate_rng.binomial(
                                    left, static_cast<double>(counts[i]) /
                                              static_cast<double>(mass));
            left -= resample[i];
            mass -= counts[i];
          }
          out[r] = statistic(values, resample);
        }
      });
}

}  // namespace hmdiv::stats
