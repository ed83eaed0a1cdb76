#include "core/tradeoff_shard.hpp"

#include <utility>

#include "exec/cluster.hpp"
#include "obs/obs.hpp"

namespace hmdiv::core {

namespace {

using exec::wire::Reader;
using exec::wire::Writer;

// --- DemandProfile wire helpers -------------------------------------------
// Layout: u64 k, k × str name, doubles probabilities.

void encode_profile(Writer& w, const DemandProfile& profile) {
  w.u64(profile.class_count());
  for (const std::string& name : profile.class_names()) w.str(name);
  std::vector<double> probabilities(profile.class_count());
  for (std::size_t x = 0; x < probabilities.size(); ++x) {
    probabilities[x] = profile.probability(x);
  }
  w.doubles(probabilities);
}

DemandProfile decode_profile(Reader& r) {
  // Each class needs a name's length prefix and a probability.
  const std::size_t k = r.count(16);
  std::vector<std::string> names;
  names.reserve(k);
  for (std::size_t x = 0; x < k; ++x) names.push_back(r.str());
  return DemandProfile::from_normalised(std::move(names), r.doubles());
}

// --- Analyzer round trip --------------------------------------------------
// Layout: doubles cancer means, doubles normal means, cancer profile,
// u64 n + n × 2 f64 fn responses, normal profile, u64 m + m × 2 f64 fp
// responses, f64 prevalence. Every double crosses as its bit pattern and
// the profiles rebuild through from_normalised, so the worker's analyzer
// — SoA tables included — is bit-identical to the parent's.

void encode_analyzer(Writer& w, const TradeoffAnalyzer& analyzer) {
  w.doubles(analyzer.machine().cancer_class_means);
  w.doubles(analyzer.machine().normal_class_means);
  encode_profile(w, analyzer.cancer_profile());
  w.u64(analyzer.fn_response().size());
  for (const HumanFnResponse& r : analyzer.fn_response()) {
    w.f64(r.p_fail_given_machine_prompted);
    w.f64(r.p_fail_given_machine_silent);
  }
  encode_profile(w, analyzer.normal_profile());
  w.u64(analyzer.fp_response().size());
  for (const HumanFpResponse& r : analyzer.fp_response()) {
    w.f64(r.p_recall_given_machine_prompted);
    w.f64(r.p_recall_given_machine_silent);
  }
  w.f64(analyzer.prevalence());
}

TradeoffAnalyzer decode_analyzer(Reader& r) {
  BinormalMachine machine;
  machine.cancer_class_means = r.doubles();
  machine.normal_class_means = r.doubles();
  DemandProfile cancer_profile = decode_profile(r);
  std::vector<HumanFnResponse> fn_response(r.count(16));
  for (HumanFnResponse& response : fn_response) {
    response.p_fail_given_machine_prompted = r.f64();
    response.p_fail_given_machine_silent = r.f64();
  }
  DemandProfile normal_profile = decode_profile(r);
  std::vector<HumanFpResponse> fp_response(r.count(16));
  for (HumanFpResponse& response : fp_response) {
    response.p_recall_given_machine_prompted = r.f64();
    response.p_recall_given_machine_silent = r.f64();
  }
  const double prevalence = r.f64();
  return TradeoffAnalyzer(std::move(machine), std::move(cancer_profile),
                          std::move(fn_response), std::move(normal_profile),
                          std::move(fp_response), prevalence);
}

// --- Measured fields ------------------------------------------------------
// Only the four rates the kernel measures cross the wire. The threshold is
// the coordinator's own input, and derive_system_rates rebuilds the other
// four from system_fn, system_fp and the prevalence exactly as the
// kernel did, so a merged point is bit-identical to an in-process one.

constexpr double SystemOperatingPoint::*kMeasured[] = {
    &SystemOperatingPoint::machine_fn, &SystemOperatingPoint::machine_fp,
    &SystemOperatingPoint::system_fn, &SystemOperatingPoint::system_fp};

// --- "core.sweep" ---------------------------------------------------------
// Blob: analyzer, doubles thresholds. Result: 4 doubles columns —
// machine_fn, machine_fp, system_fn, system_fp — of the task's slice, in
// grid order (32 bytes a point).

std::vector<std::uint8_t> handle_sweep_shard(
    const exec::wire::ShardTask& task) {
  Reader r(task.blob);
  const TradeoffAnalyzer analyzer = decode_analyzer(r);
  const exec::wire::PackedDoubles thresholds = r.packed_doubles();
  if (!r.exhausted()) {
    throw exec::wire::ProtocolError("core.sweep blob: trailing bytes");
  }
  // Decode only this task's slice of the grid.
  const exec::wire::ShardRange range =
      exec::wire::task_range(thresholds.size(), task);
  exec::wire::check_reply_fits(range.size(), sizeof kMeasured);
  const auto n = static_cast<std::size_t>(range.size());
  std::vector<double> slice(n);
  thresholds.copy_to(range.begin, slice);
  std::vector<SystemOperatingPoint> points(n);
  analyzer.sweep_into(slice, points);
  Writer w;
  std::vector<double>& column = slice;  // the grid slice is spent
  for (const auto field : kMeasured) {
    for (std::size_t i = 0; i < n; ++i) column[i] = points[i].*field;
    w.doubles(column);
  }
  return w.take();
}

// --- "core.minimise" ------------------------------------------------------
// Blob: analyzer, f64 cost_fn, f64 cost_fp, f64 lo, f64 hi, u64 steps.
// Result: u8 valid, f64 cost, f64 threshold, the 4 measured f64s.

std::vector<std::uint8_t> handle_minimise_shard(
    const exec::wire::ShardTask& task) {
  Reader r(task.blob);
  const TradeoffAnalyzer analyzer = decode_analyzer(r);
  const double cost_fn = r.f64();
  const double cost_fp = r.f64();
  const double lo = r.f64();
  const double hi = r.f64();
  const std::uint64_t steps = r.u64();
  if (!r.exhausted()) {
    throw exec::wire::ProtocolError("core.minimise blob: trailing bytes");
  }
  const exec::wire::ShardRange range = exec::wire::task_range(steps, task);
  const CostedOperatingPoint best = analyzer.minimise_cost_range(
      cost_fn, cost_fp, lo, hi, static_cast<std::size_t>(steps),
      static_cast<std::size_t>(range.begin),
      static_cast<std::size_t>(range.end));
  Writer w;
  w.u8(best.valid ? 1 : 0);
  w.f64(best.cost);
  w.f64(best.point.threshold);
  for (const auto field : kMeasured) w.f64(best.point.*field);
  return w.take();
}

const exec::ShardWorkloadRegistration kSweepRegistration{
    kSweepShardWorkload, &handle_sweep_shard};
const exec::ShardWorkloadRegistration kMinimiseRegistration{
    kMinimiseShardWorkload, &handle_minimise_shard};

}  // namespace

// --- Transport-independent blob builder and merge -------------------------
// Shared by the process-sharded and clustered paths; both transports
// return payloads in ascending shard order, so the merges make the result
// independent of how the shards ran.

std::vector<std::uint8_t> encode_sweep_blob(
    const TradeoffAnalyzer& analyzer, std::span<const double> thresholds) {
  Writer blob;
  encode_analyzer(blob, analyzer);
  blob.doubles(thresholds);
  return blob.take();
}

std::vector<SystemOperatingPoint> merge_sweep_payloads(
    const TradeoffAnalyzer& analyzer, std::span<const double> thresholds,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::vector<SystemOperatingPoint> points(thresholds.size());
  std::size_t offset = 0;
  for (const auto& payload : payloads) {
    Reader r(payload);
    std::size_t n = 0;
    for (const auto field : kMeasured) {
      const exec::wire::PackedDoubles column = r.packed_doubles();
      if (field == kMeasured[0]) {
        n = column.size();
        if (n > points.size() - offset) {
          throw exec::wire::ProtocolError(
              "core.sweep: merged point count mismatch");
        }
      } else if (column.size() != n) {
        throw exec::wire::ProtocolError("core.sweep result: ragged columns");
      }
      for (std::size_t i = 0; i < n; ++i) points[offset + i].*field = column[i];
    }
    if (!r.exhausted()) {
      throw exec::wire::ProtocolError("core.sweep result: trailing bytes");
    }
    offset += n;
  }
  if (offset != points.size()) {
    throw exec::wire::ProtocolError(
        "core.sweep: merged point count mismatch");
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].threshold = thresholds[i];
    derive_system_rates(points[i], analyzer.prevalence());
  }
  return points;
}

std::vector<std::uint8_t> encode_minimise_blob(const TradeoffAnalyzer& analyzer,
                                               double cost_fn, double cost_fp,
                                               double lo, double hi,
                                               std::size_t steps) {
  Writer blob;
  encode_analyzer(blob, analyzer);
  blob.f64(cost_fn);
  blob.f64(cost_fp);
  blob.f64(lo);
  blob.f64(hi);
  blob.u64(steps);
  return blob.take();
}

SystemOperatingPoint merge_minimise_payloads(
    const TradeoffAnalyzer& analyzer,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  // Ascending shard order = ascending grid order, so the strict-< fold
  // resolves exact cost ties to the earliest grid point — the same rule
  // minimise_cost applies across its chunks.
  CostedOperatingPoint best;
  for (const auto& payload : payloads) {
    Reader r(payload);
    CostedOperatingPoint next;
    next.valid = r.u8() != 0;
    next.cost = r.f64();
    next.point.threshold = r.f64();
    for (const auto field : kMeasured) next.point.*field = r.f64();
    if (!r.exhausted()) {
      throw exec::wire::ProtocolError(
          "core.minimise result: trailing bytes");
    }
    if (!best.valid || (next.valid && next.cost < best.cost)) {
      best = next;
    }
  }
  if (best.valid) derive_system_rates(best.point, analyzer.prevalence());
  return best.point;
}

std::vector<SystemOperatingPoint> sweep_sharded(
    const TradeoffAnalyzer& analyzer, const std::vector<double>& thresholds,
    const exec::ShardOptions& options) {
  const exec::ShardRunner runner(options);
  if (runner.resolved_shards() == 1 || thresholds.empty()) {
    return analyzer.sweep(thresholds,
                          options.threads ? exec::Config{options.threads}
                                          : exec::default_config());
  }
  HMDIV_OBS_SCOPED_TIMER("core.tradeoff.shard_sweep_ns");
  const std::vector<std::uint8_t> blob = encode_sweep_blob(analyzer, thresholds);
  return merge_sweep_payloads(analyzer, thresholds,
                              runner.run(kSweepShardWorkload, blob));
}

SystemOperatingPoint minimise_cost_sharded(const TradeoffAnalyzer& analyzer,
                                           double cost_fn, double cost_fp,
                                           double lo, double hi,
                                           std::size_t steps,
                                           const exec::ShardOptions& options) {
  const exec::ShardRunner runner(options);
  if (runner.resolved_shards() == 1) {
    return analyzer.minimise_cost(cost_fn, cost_fp, lo, hi, steps,
                                  options.threads
                                      ? exec::Config{options.threads}
                                      : exec::default_config());
  }
  HMDIV_OBS_SCOPED_TIMER("core.tradeoff.shard_minimise_ns");
  const std::vector<std::uint8_t> blob =
      encode_minimise_blob(analyzer, cost_fn, cost_fp, lo, hi, steps);
  return merge_minimise_payloads(analyzer,
                                 runner.run(kMinimiseShardWorkload, blob));
}

std::vector<SystemOperatingPoint> sweep_clustered(
    const TradeoffAnalyzer& analyzer, const std::vector<double>& thresholds,
    exec::ClusterRunner& cluster) {
  if (thresholds.empty()) return {};
  HMDIV_OBS_SCOPED_TIMER("core.tradeoff.cluster_sweep_ns");
  const std::vector<std::uint8_t> blob = encode_sweep_blob(analyzer, thresholds);
  return merge_sweep_payloads(
      analyzer, thresholds,
      cluster.run(kSweepShardWorkload, blob, thresholds.size()));
}

SystemOperatingPoint minimise_cost_clustered(const TradeoffAnalyzer& analyzer,
                                             double cost_fn, double cost_fp,
                                             double lo, double hi,
                                             std::size_t steps,
                                             exec::ClusterRunner& cluster) {
  HMDIV_OBS_SCOPED_TIMER("core.tradeoff.cluster_minimise_ns");
  const std::vector<std::uint8_t> blob =
      encode_minimise_blob(analyzer, cost_fn, cost_fp, lo, hi, steps);
  return merge_minimise_payloads(
      analyzer, cluster.run(kMinimiseShardWorkload, blob, steps));
}

void ensure_tradeoff_shard_registered() {}

}  // namespace hmdiv::core
