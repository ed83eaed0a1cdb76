// Correctness gates. Each check returns an empty string when the output
// is right and a reason when it is wrong; a wrong answer fails the run and
// counts in its `failed` tally. The expected values are parameters so the
// self-test can pass deliberately corrupted ones and see every gate trip.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/tradeoff.hpp"
#include "core/uncertainty.hpp"
#include "sim/trial.hpp"

namespace perfbench {

// ---- analysis_batch -------------------------------------------------------

/// The numbers `hmdiv_analyze --example --profile` prints in its
/// profiling table, plus its what-if lines.
struct AnalysisOutput {
  bool complete = false;
  double observed = 0.0;
  double predicted = 0.0;
  double boot_estimate = 0.0;
  double boot_lower = 0.0;
  double boot_upper = 0.0;
  std::vector<std::string> whatif_lines;
};

[[nodiscard]] AnalysisOutput parse_analysis_output(std::string_view text);

/// Printed Eq.-(8) prediction equals `expected` to its printed 4 decimals.
[[nodiscard]] std::string check_prediction(double printed, double expected);

/// Observed trial failure rate lies within 5 binomial standard errors
/// (plus print rounding) of the Eq.-(8) prediction for `cases` cases.
[[nodiscard]] std::string check_observed_rate(double observed,
                                              double prediction,
                                              std::uint64_t cases);

/// Each endpoint of the bootstrap percentile interval lies within 0.6
/// binomial standard errors (plus print rounding) of the analytic Wald
/// interval `observed ± z·se`. A 500-replicate percentile endpoint has a
/// Monte-Carlo error near 0.12 standard errors, so 0.6 is five of those;
/// any bootstrap with the right distribution passes, bit-exact or not.
[[nodiscard]] std::string check_bootstrap_interval(double lower, double upper,
                                                   double observed,
                                                   std::uint64_t cases,
                                                   double confidence);

/// The what-if lines match the in-process computation byte for byte.
[[nodiscard]] std::string check_lines(const std::vector<std::string>& printed,
                                      const std::vector<std::string>& expected);

// ---- fanout_grid ----------------------------------------------------------

/// The four outputs of one grid pass.
struct GridOutput {
  hmdiv::sim::TrialData trial;
  std::vector<hmdiv::core::SystemOperatingPoint> sweep;
  hmdiv::core::SystemOperatingPoint best;
  hmdiv::core::UncertainPrediction uq;
};

/// Bit-for-bit equality of a fan-out pass with the in-process pass.
[[nodiscard]] std::string check_identical(const GridOutput& actual,
                                          const GridOutput& expected);

// ---- serve_trace ----------------------------------------------------------

/// A reply with the parts that legitimately differ between the daemon
/// and an in-process replay removed: the `"cached"` flag (cache state
/// depends on arrival order across connections) and the epoch a reload
/// reports (reloads of the same model leave every other reply unchanged).
[[nodiscard]] std::string normalise_reply(std::string_view reply);

/// Daemon reply equals the in-process Service::handle_line reply after
/// normalise_reply().
[[nodiscard]] std::string check_reply(std::string_view actual,
                                      std::string_view expected);

}  // namespace perfbench
