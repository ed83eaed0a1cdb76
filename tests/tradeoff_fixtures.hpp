// Operating-point fixtures shared by the shard and cluster tests: an
// all-field bit-pattern comparison, and an analyzer whose sweep reaches
// the recall_rate == 0 → ppv = 0 branch.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/demand_profile.hpp"
#include "core/tradeoff.hpp"

namespace hmdiv::test {

/// Every field of SystemOperatingPoint, by name. A field travels over the
/// wire or is recomputed by the coordinator; either way it must match.
inline constexpr std::pair<const char*, double core::SystemOperatingPoint::*>
    kPointFields[] = {
        {"threshold", &core::SystemOperatingPoint::threshold},
        {"machine_fn", &core::SystemOperatingPoint::machine_fn},
        {"machine_fp", &core::SystemOperatingPoint::machine_fp},
        {"system_fn", &core::SystemOperatingPoint::system_fn},
        {"system_fp", &core::SystemOperatingPoint::system_fp},
        {"sensitivity", &core::SystemOperatingPoint::sensitivity},
        {"specificity", &core::SystemOperatingPoint::specificity},
        {"recall_rate", &core::SystemOperatingPoint::recall_rate},
        {"ppv", &core::SystemOperatingPoint::ppv},
};

/// True iff all nine fields have the same bit patterns; names the first
/// field that differs in `why`.
inline bool same_point_bits(const core::SystemOperatingPoint& actual,
                            const core::SystemOperatingPoint& expected,
                            std::string& why) {
  for (const auto& [name, field] : kPointFields) {
    if (std::bit_cast<std::uint64_t>(actual.*field) !=
        std::bit_cast<std::uint64_t>(expected.*field)) {
      why = name;
      return false;
    }
  }
  return true;
}

inline void expect_point_bit_identical(
    const core::SystemOperatingPoint& actual,
    const core::SystemOperatingPoint& expected) {
  std::string why;
  EXPECT_TRUE(same_point_bits(actual, expected, why)) << "field " << why;
}

inline void expect_points_bit_identical(
    const std::vector<core::SystemOperatingPoint>& actual,
    const std::vector<core::SystemOperatingPoint>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    std::string why;
    ASSERT_TRUE(same_point_bits(actual[i], expected[i], why))
        << "point " << i << " field " << why;
  }
}

/// Humans always miss a cancer the machine leaves silent and never recall
/// a normal it leaves silent. At a threshold far above every class mean
/// the machine is silent on all cases, so system_fn = 1, system_fp = 0 and
/// nothing is recalled: recall_rate == 0 and ppv takes its 0 branch.
inline core::TradeoffAnalyzer silent_recall_analyzer() {
  core::BinormalMachine machine;
  machine.cancer_class_means = {2.0, 0.8};
  machine.normal_class_means = {-2.0, -0.5};
  core::DemandProfile cancers({"easy", "difficult"}, {0.5, 0.5});
  std::vector<core::HumanFnResponse> fn{{0.2, 1.0}, {0.6, 1.0}};
  core::DemandProfile normals({"typical", "complex"}, {0.75, 0.25});
  std::vector<core::HumanFpResponse> fp{{0.3, 0.0}, {0.5, 0.0}};
  return core::TradeoffAnalyzer(std::move(machine), std::move(cancers),
                                std::move(fn), std::move(normals),
                                std::move(fp), 0.01);
}

/// `n` thresholds evenly spaced over [-40, 40].
inline std::vector<double> wide_thresholds(std::size_t n) {
  std::vector<double> thresholds(n);
  for (std::size_t i = 0; i < n; ++i) {
    thresholds[i] = -40.0 + 80.0 * static_cast<double>(i) /
                                static_cast<double>(n - 1);
  }
  return thresholds;
}

/// True iff some point took the recall_rate == 0 → ppv = 0 branch.
inline bool reaches_zero_recall(
    const std::vector<core::SystemOperatingPoint>& points) {
  for (const core::SystemOperatingPoint& p : points) {
    if (p.recall_rate == 0.0 && p.ppv == 0.0) return true;
  }
  return false;
}

}  // namespace hmdiv::test
