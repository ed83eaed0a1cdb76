#include "gates.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "stats/special.hpp"

namespace perfbench {

namespace {

/// Value cell of the markdown row `| label | value |`, or "" if absent.
std::string_view row_value(std::string_view text, std::string_view label) {
  const std::string needle = "| " + std::string(label) + " | ";
  const std::size_t at = text.find(needle);
  if (at == std::string_view::npos) return {};
  const std::size_t from = at + needle.size();
  const std::size_t to = text.find(" |", from);
  if (to == std::string_view::npos) return {};
  return text.substr(from, to - from);
}

bool parse_double(std::string_view s, double& out) {
  const std::string copy(s);
  char* end = nullptr;
  out = std::strtod(copy.c_str(), &end);
  return end != copy.c_str() && std::isfinite(out);
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_point(const hmdiv::core::SystemOperatingPoint& a,
                const hmdiv::core::SystemOperatingPoint& b) {
  return same_bits(a.threshold, b.threshold) &&
         same_bits(a.machine_fn, b.machine_fn) &&
         same_bits(a.machine_fp, b.machine_fp) &&
         same_bits(a.system_fn, b.system_fn) &&
         same_bits(a.system_fp, b.system_fp) &&
         same_bits(a.sensitivity, b.sensitivity) &&
         same_bits(a.specificity, b.specificity) &&
         same_bits(a.recall_rate, b.recall_rate) && same_bits(a.ppv, b.ppv);
}

}  // namespace

AnalysisOutput parse_analysis_output(std::string_view text) {
  AnalysisOutput out;
  std::size_t pos = 0;
  while ((pos = text.find("- improve '", pos)) != std::string_view::npos) {
    const std::size_t eol = text.find('\n', pos);
    out.whatif_lines.emplace_back(text.substr(pos, eol - pos));
    pos = eol == std::string_view::npos ? text.size() : eol;
  }
  const std::string_view boot = row_value(text, "bootstrap 95% interval");
  const std::size_t bracket = boot.find('[');
  const std::size_t comma = boot.find(',');
  if (bracket == std::string_view::npos || comma == std::string_view::npos) {
    return out;
  }
  out.complete =
      parse_double(row_value(text, "observed failure rate"), out.observed) &&
      parse_double(row_value(text, "Eq.-(8) prediction"), out.predicted) &&
      parse_double(boot.substr(0, bracket), out.boot_estimate) &&
      parse_double(boot.substr(bracket + 1, comma - bracket - 1),
                   out.boot_lower) &&
      parse_double(boot.substr(comma + 1), out.boot_upper);
  return out;
}

std::string check_prediction(double printed, double expected) {
  if (std::fabs(printed - expected) <= 0.5e-4 + 1e-12) return {};
  return "printed Eq.-(8) prediction " + fmt(printed) + " is not " +
         fmt(expected);
}

std::string check_observed_rate(double observed, double prediction,
                                std::uint64_t cases) {
  const double se = std::sqrt(prediction * (1.0 - prediction) /
                              static_cast<double>(cases));
  const double tolerance = 5.0 * se + 0.5e-4;
  if (std::fabs(observed - prediction) <= tolerance) return {};
  return "observed failure rate " + fmt(observed) + " is more than " +
         fmt(tolerance) + " from the Eq.-(8) prediction " + fmt(prediction);
}

std::string check_bootstrap_interval(double lower, double upper,
                                     double observed, std::uint64_t cases,
                                     double confidence) {
  const double se =
      std::sqrt(observed * (1.0 - observed) / static_cast<double>(cases));
  const double z = hmdiv::stats::normal_quantile(0.5 + confidence / 2.0);
  const double tolerance = 0.6 * se + 0.5e-4;
  const double analytic_lower = observed - z * se;
  const double analytic_upper = observed + z * se;
  if (std::fabs(lower - analytic_lower) <= tolerance &&
      std::fabs(upper - analytic_upper) <= tolerance) {
    return {};
  }
  return "bootstrap interval [" + fmt(lower) + ", " + fmt(upper) +
         "] is more than " + fmt(tolerance) + " from the binomial interval [" +
         fmt(analytic_lower) + ", " + fmt(analytic_upper) + "]";
}

std::string check_lines(const std::vector<std::string>& printed,
                        const std::vector<std::string>& expected) {
  if (printed.size() != expected.size()) {
    return "expected " + std::to_string(expected.size()) +
           " what-if lines, got " + std::to_string(printed.size());
  }
  for (std::size_t i = 0; i < printed.size(); ++i) {
    if (printed[i] != expected[i]) {
      return "what-if line '" + printed[i] + "' should be '" + expected[i] +
             "'";
    }
  }
  return {};
}

std::string check_identical(const GridOutput& actual,
                            const GridOutput& expected) {
  if (actual.trial.class_names != expected.trial.class_names ||
      actual.trial.records.size() != expected.trial.records.size()) {
    return "trial shape differs";
  }
  for (std::size_t i = 0; i < actual.trial.records.size(); ++i) {
    const auto& a = actual.trial.records[i];
    const auto& b = expected.trial.records[i];
    if (a.class_index != b.class_index || a.machine_failed != b.machine_failed ||
        a.human_failed != b.human_failed) {
      return "trial record " + std::to_string(i) + " differs";
    }
  }
  if (actual.sweep.size() != expected.sweep.size()) return "sweep size differs";
  for (std::size_t i = 0; i < actual.sweep.size(); ++i) {
    if (!same_point(actual.sweep[i], expected.sweep[i])) {
      return "sweep point " + std::to_string(i) + " differs";
    }
  }
  if (!same_point(actual.best, expected.best)) return "minimum differs";
  if (!same_bits(actual.uq.mean, expected.uq.mean) ||
      !same_bits(actual.uq.lower, expected.uq.lower) ||
      !same_bits(actual.uq.upper, expected.uq.upper) ||
      !same_bits(actual.uq.stddev, expected.uq.stddev)) {
    return "posterior prediction differs";
  }
  return {};
}

std::string normalise_reply(std::string_view reply) {
  std::string out(reply);
  for (const std::string_view flag : {",\"cached\":true", ",\"cached\":false"}) {
    for (std::size_t at = out.find(flag); at != std::string::npos;
         at = out.find(flag, at)) {
      out.erase(at, flag.size());
    }
  }
  const std::string_view epoch = "\"epoch\":";
  if (const std::size_t at = out.find(epoch); at != std::string::npos) {
    std::size_t end = at + epoch.size();
    while (end < out.size() && out[end] >= '0' && out[end] <= '9') ++end;
    std::string masked = out.substr(0, at + epoch.size());
    masked += '*';
    masked.append(out, end);
    out = std::move(masked);
  }
  return out;
}

std::string check_reply(std::string_view actual, std::string_view expected) {
  if (normalise_reply(actual) == normalise_reply(expected)) return {};
  return "reply '" + std::string(actual.substr(0, 160)) + "' should be '" +
         std::string(expected.substr(0, 160)) + "'";
}

}  // namespace perfbench
