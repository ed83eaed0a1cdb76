#include "core/extrapolation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "exec/workspace.hpp"
#include "stats/summary.hpp"

namespace hmdiv::core {

Extrapolator::Extrapolator(SequentialModel trial_model,
                           DemandProfile trial_profile)
    : model_(std::move(trial_model)), profile_(std::move(trial_profile)) {
  if (!model_.compatible_with(profile_)) {
    throw std::invalid_argument(
        "Extrapolator: trial profile classes do not match model classes");
  }
}

double Extrapolator::trial_failure_probability() const {
  return model_.system_failure_probability(profile_);
}

double Extrapolator::predict_for_profile(const DemandProfile& field) const {
  if (!model_.compatible_with(field)) {
    throw std::invalid_argument(
        "Extrapolator: field profile classes do not match model classes");
  }
  return model_.system_failure_probability(field);
}

SequentialModel Extrapolator::transformed_model(
    const Scenario& scenario) const {
  SequentialModel m = model_;
  if (scenario.machine_failure_factor != 1.0) {
    m = m.with_uniform_machine_improvement(scenario.machine_failure_factor);
  }
  for (const auto& [class_index, factor] :
       scenario.per_class_machine_factors) {
    m = m.with_machine_improvement(class_index, factor);
  }
  if (scenario.reader_failure_factor != 1.0) {
    m = m.with_reader_improvement(scenario.reader_failure_factor);
  }
  return m;
}

ScenarioResult Extrapolator::evaluate(const Scenario& scenario) const {
  const DemandProfile& profile =
      scenario.profile.has_value() ? *scenario.profile : profile_;
  if (!model_.compatible_with(profile)) {
    throw std::invalid_argument(
        "Extrapolator: scenario profile classes do not match model classes");
  }
  const SequentialModel m = transformed_model(scenario);
  ScenarioResult out;
  out.name = scenario.name;
  out.system_failure = m.system_failure_probability(profile);
  out.machine_failure = m.machine_failure_probability(profile);
  out.failure_floor = m.failure_floor(profile);
  out.decomposition = m.decompose(profile);
  return out;
}

void Extrapolator::evaluate_batch(std::span<const ScenarioSpec> specs,
                                  std::span<ScenarioNumbers> out) const {
  if (specs.size() != out.size()) {
    throw std::invalid_argument(
        "Extrapolator::evaluate_batch: specs/out size mismatch");
  }
  const std::size_t classes = model_.class_count();
  exec::Workspace& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  const std::span<double> pmf = workspace.alloc<double>(classes);
  const std::span<double> phmf = workspace.alloc<double>(classes);
  const std::span<double> phms = workspace.alloc<double>(classes);
  const std::span<double> t = workspace.alloc<double>(classes);

  for (std::size_t s = 0; s < specs.size(); ++s) {
    const ScenarioSpec& spec = specs[s];
    const DemandProfile& profile =
        spec.profile != nullptr ? *spec.profile : profile_;
    if (!model_.compatible_with(profile)) {
      throw std::invalid_argument(
          "Extrapolator: scenario profile classes do not match model classes");
    }
    // Transform the per-class parameters in transformed_model()'s order
    // with its exact clamp expressions. The conditionals matter for bit
    // identity: a factor of 1.0 is skipped there, not applied.
    for (std::size_t x = 0; x < classes; ++x) {
      const ClassConditional& c = model_.parameters(x);
      pmf[x] = c.p_machine_fails;
      phmf[x] = c.p_human_fails_given_machine_fails;
      phms[x] = c.p_human_fails_given_machine_succeeds;
    }
    if (spec.machine_failure_factor != 1.0) {
      if (!(spec.machine_failure_factor >= 0.0)) {
        throw std::invalid_argument(
            "SequentialModel::with_uniform_machine_improvement: factor >= 0");
      }
      for (std::size_t x = 0; x < classes; ++x) {
        pmf[x] = std::clamp(pmf[x] * spec.machine_failure_factor, 0.0, 1.0);
      }
    }
    for (const auto& [class_index, factor] : spec.per_class_machine_factors) {
      if (class_index >= classes) {
        throw std::invalid_argument("SequentialModel: class index out of range");
      }
      if (!(factor >= 0.0)) {
        throw std::invalid_argument(
            "SequentialModel::with_machine_improvement: factor must be >= 0");
      }
      pmf[class_index] = std::clamp(pmf[class_index] * factor, 0.0, 1.0);
    }
    if (spec.reader_failure_factor != 1.0) {
      if (!(spec.reader_failure_factor >= 0.0)) {
        throw std::invalid_argument(
            "SequentialModel::with_reader_improvement: factor >= 0");
      }
      for (std::size_t x = 0; x < classes; ++x) {
        phmf[x] = std::clamp(phmf[x] * spec.reader_failure_factor, 0.0, 1.0);
        phms[x] = std::clamp(phms[x] * spec.reader_failure_factor, 0.0, 1.0);
      }
    }
    // Eq. (8) sums in ascending class order — the scalar path's three
    // accumulations fused into one pass (independent accumulators, so the
    // per-accumulator addition order is unchanged).
    double system = 0.0;
    double machine = 0.0;
    double floor_total = 0.0;
    for (std::size_t x = 0; x < classes; ++x) {
      system += profile[x] * (phms[x] * (1.0 - pmf[x]) + phmf[x] * pmf[x]);
      machine += profile[x] * pmf[x];
      floor_total += profile[x] * phms[x];
      t[x] = phmf[x] - phms[x];
    }
    const auto weights = profile.distribution().probabilities();
    ScenarioNumbers numbers;
    numbers.system_failure = system;
    numbers.machine_failure = machine;
    numbers.failure_floor = floor_total;
    numbers.decomposition.floor = stats::weighted_mean(phms, weights);
    numbers.decomposition.mean_field =
        stats::weighted_mean(pmf, weights) * stats::weighted_mean(t, weights);
    numbers.decomposition.covariance =
        stats::weighted_covariance(pmf, t, weights);
    out[s] = numbers;
  }
}

std::vector<ScenarioResult> Extrapolator::evaluate_all(
    const std::vector<Scenario>& scenarios) const {
  std::vector<ScenarioResult> out;
  out.reserve(scenarios.size());
  for (const auto& s : scenarios) out.push_back(evaluate(s));
  return out;
}

std::pair<double, double> Extrapolator::predict_range_for_reader_drift(
    const DemandProfile& field, double best_factor,
    double worst_factor) const {
  if (!(best_factor >= 0.0) || !(worst_factor >= best_factor)) {
    throw std::invalid_argument(
        "Extrapolator: require 0 <= best_factor <= worst_factor");
  }
  const double lower = model_.with_reader_improvement(best_factor)
                           .system_failure_probability(field);
  const double upper = model_.with_reader_improvement(worst_factor)
                           .system_failure_probability(field);
  return {lower, upper};
}

}  // namespace hmdiv::core
