#include "core/uncertainty_shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exec/cluster.hpp"
#include "obs/obs.hpp"

namespace hmdiv::core {

namespace {

using exec::wire::Reader;
using exec::wire::Writer;

// Blob layout: u64 n_classes, n × str name, n × 4 u64 counts, doubles
// profile probabilities, u64 total_draws, u64 base. Counts are integers,
// so the worker's rebuilt sampler has bit-identical Beta posterior preps;
// the profile rebuilds through from_normalised.

struct UqShardConfig {
  PosteriorModelSampler sampler;
  DemandProfile profile;
  std::uint64_t total_draws = 0;
  std::uint64_t base = 0;
};

UqShardConfig decode_blob(std::span<const std::uint8_t> blob) {
  Reader r(blob);
  // Each class needs a name's length prefix, 4 counts and a probability.
  const std::size_t k = r.count(48);
  std::vector<std::string> names;
  names.reserve(k);
  for (std::size_t x = 0; x < k; ++x) names.push_back(r.str());
  std::vector<ClassCounts> counts(k);
  for (ClassCounts& c : counts) {
    c.cases = r.u64();
    c.machine_failures = r.u64();
    c.human_failures_given_machine_failed = r.u64();
    c.human_failures_given_machine_succeeded = r.u64();
  }
  std::vector<double> probabilities = r.doubles();
  UqShardConfig config{
      PosteriorModelSampler(names, std::move(counts)),
      DemandProfile::from_normalised(std::move(names),
                                     std::move(probabilities)),
      r.u64(), r.u64()};
  if (!r.exhausted()) {
    throw exec::wire::ProtocolError("core.uq.sample blob: trailing bytes");
  }
  return config;
}

/// Worker side: rebuild the sampler, fill this shard's slice of the chunk
/// index space, ship the draws back as bit patterns.
std::vector<std::uint8_t> handle_uq_shard(const exec::wire::ShardTask& task) {
  const UqShardConfig config = decode_blob(task.blob);
  const std::size_t total = static_cast<std::size_t>(config.total_draws);
  const exec::wire::ShardRange range = exec::wire::task_range(
      PosteriorModelSampler::draw_chunk_count(total), task);
  const std::size_t begin = static_cast<std::size_t>(range.begin) *
                            PosteriorModelSampler::kDrawChunk;
  const std::size_t end =
      std::min(static_cast<std::size_t>(range.end) *
                   PosteriorModelSampler::kDrawChunk,
               total);
  exec::wire::check_reply_fits(end - begin, sizeof(double));
  std::vector<double> draws(end - begin);
  config.sampler.sample_failure_probability_chunks(
      config.profile, config.base, total,
      static_cast<std::size_t>(range.begin),
      static_cast<std::size_t>(range.end), draws);
  Writer w;
  w.doubles(draws);
  return w.take();
}

const exec::ShardWorkloadRegistration kRegistration{
    kUncertaintyShardWorkload, &handle_uq_shard};

}  // namespace

std::vector<std::uint8_t> encode_uq_blob(const PosteriorModelSampler& sampler,
                                         const DemandProfile& profile,
                                         std::uint64_t total_draws,
                                         std::uint64_t base) {
  Writer w;
  const std::size_t k = sampler.class_count();
  w.u64(k);
  for (const std::string& name : sampler.class_names()) w.str(name);
  for (const ClassCounts& c : sampler.counts()) {
    w.u64(c.cases);
    w.u64(c.machine_failures);
    w.u64(c.human_failures_given_machine_failed);
    w.u64(c.human_failures_given_machine_succeeded);
  }
  std::vector<double> probabilities(k);
  for (std::size_t x = 0; x < k; ++x) {
    probabilities[x] = profile.probability(x);
  }
  w.doubles(probabilities);
  w.u64(total_draws);
  w.u64(base);
  return w.take();
}

// Each shard's draws are a chunk-aligned slice; concatenate them in shard
// order.
void merge_uq_payloads(const std::vector<std::vector<std::uint8_t>>& payloads,
                       std::span<double> out) {
  std::size_t offset = 0;
  for (const auto& payload : payloads) {
    Reader r(payload);
    const exec::wire::PackedDoubles draws = r.packed_doubles();
    if (!r.exhausted() || draws.size() > out.size() - offset) {
      throw exec::wire::ProtocolError("core.uq.sample result: bad payload");
    }
    draws.copy_to(0, out.subspan(offset, draws.size()));
    offset += draws.size();
  }
  if (offset != out.size()) {
    throw exec::wire::ProtocolError(
        "core.uq.sample: merged draw count mismatch");
  }
}

void sample_failure_probabilities_sharded(
    const PosteriorModelSampler& sampler, const DemandProfile& profile,
    stats::Rng& rng, std::span<double> out,
    const exec::ShardOptions& options) {
  const exec::ShardRunner runner(options);
  if (runner.resolved_shards() == 1) {
    sampler.sample_failure_probabilities(
        profile, rng, out,
        options.threads ? exec::Config{options.threads}
                        : exec::default_config());
    return;
  }
  if (out.empty()) {
    throw std::invalid_argument(
        "sample_failure_probabilities_sharded: empty output");
  }
  HMDIV_OBS_SCOPED_TIMER("core.uq.shard_sample_ns");
  // One step off the caller's rng — exactly what the in-process engine
  // consumes — so caller-visible rng state stays identical.
  const std::uint64_t base = rng.next_u64();
  const std::vector<std::uint8_t> blob =
      encode_uq_blob(sampler, profile, out.size(), base);
  merge_uq_payloads(runner.run(kUncertaintyShardWorkload, blob), out);
}

void sample_failure_probabilities_clustered(
    const PosteriorModelSampler& sampler, const DemandProfile& profile,
    stats::Rng& rng, std::span<double> out, exec::ClusterRunner& cluster) {
  if (out.empty()) {
    throw std::invalid_argument(
        "sample_failure_probabilities_clustered: empty output");
  }
  HMDIV_OBS_SCOPED_TIMER("core.uq.cluster_sample_ns");
  // One step off the caller's rng — exactly what the in-process engine
  // consumes — so caller-visible rng state stays identical.
  const std::uint64_t base = rng.next_u64();
  const std::vector<std::uint8_t> blob =
      encode_uq_blob(sampler, profile, out.size(), base);
  merge_uq_payloads(
      cluster.run(kUncertaintyShardWorkload, blob,
                  PosteriorModelSampler::draw_chunk_count(out.size())),
      out);
}

UncertainPrediction predict_clustered(const PosteriorModelSampler& sampler,
                                      const DemandProfile& profile,
                                      stats::Rng& rng, std::size_t draws,
                                      double credibility,
                                      exec::ClusterRunner& cluster) {
  if (draws == 0) {
    throw std::invalid_argument("predict_clustered: draws == 0");
  }
  std::vector<double> values(draws);
  sample_failure_probabilities_clustered(sampler, profile, rng, values,
                                         cluster);
  return PosteriorModelSampler::summarise(values, credibility);
}

void ensure_uncertainty_shard_registered() {}

UncertainPrediction predict_sharded(const PosteriorModelSampler& sampler,
                                    const DemandProfile& profile,
                                    stats::Rng& rng, std::size_t draws,
                                    double credibility,
                                    const exec::ShardOptions& options) {
  if (draws == 0) {
    throw std::invalid_argument("predict_sharded: draws == 0");
  }
  // At one shard go through predict() itself, not just its sampling
  // stage, so the in-process path keeps its own instrumentation
  // (core.uq.predict_ns et al.) and workspace reuse.
  if (exec::ShardRunner(options).resolved_shards() == 1) {
    return sampler.predict(profile, rng, draws, credibility,
                           options.threads ? exec::Config{options.threads}
                                           : exec::default_config());
  }
  std::vector<double> values(draws);
  sample_failure_probabilities_sharded(sampler, profile, rng, values,
                                       options);
  return PosteriorModelSampler::summarise(values, credibility);
}

}  // namespace hmdiv::core
