// Multi-process sharding of posterior predictive sampling.
//
// The "core.uq.sample" shard workload partitions the batched sampler's
// fixed 512-draw chunk index space (PosteriorModelSampler::kDrawChunk)
// across worker processes. The parent consumes exactly one rng step for
// the substream base — the same step the in-process engine consumes — and
// each worker rebuilds the sampler from the integer trial counts (bit-
// identical Beta preps) plus the from_normalised profile, then fills its
// wire::shard_range slice of chunks. Concatenated in ascending shard
// order, the draws equal the single-process sample_failure_probabilities
// output bit-for-bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/uncertainty.hpp"
#include "exec/shard.hpp"

namespace hmdiv::exec {
class ClusterRunner;
}  // namespace hmdiv::exec

namespace hmdiv::core {

/// Shard-workload name posterior sampling registers under.
inline constexpr std::string_view kUncertaintyShardWorkload =
    "core.uq.sample";

/// PosteriorModelSampler::sample_failure_probabilities across worker
/// processes (options.shards; 1 runs in-process without spawning). Fills
/// `out` bit-identically to the in-process call at any shard × thread
/// composition; `rng` advances by exactly one step either way. Throws
/// exec::ShardError on worker failure.
void sample_failure_probabilities_sharded(
    const PosteriorModelSampler& sampler, const DemandProfile& profile,
    stats::Rng& rng, std::span<double> out,
    const exec::ShardOptions& options = {});

/// predict() on the sharded sampling stage: sample across workers, then
/// summarise in the parent. Bit-identical to the in-process predict().
[[nodiscard]] UncertainPrediction predict_sharded(
    const PosteriorModelSampler& sampler, const DemandProfile& profile,
    stats::Rng& rng, std::size_t draws = 4000, double credibility = 0.95,
    const exec::ShardOptions& options = {});

/// Posterior predictive sampling across remote hmdiv_serve workers via
/// `cluster` (DESIGN.md §15). Identical blob, chunk partition and
/// ascending-shard merge as the process-sharded path; `rng` advances by
/// exactly one step and `out` fills bit-identically to the in-process call
/// at any worker × shard composition. Throws exec::ClusterError when no
/// healthy worker can finish a shard.
void sample_failure_probabilities_clustered(
    const PosteriorModelSampler& sampler, const DemandProfile& profile,
    stats::Rng& rng, std::span<double> out, exec::ClusterRunner& cluster);

/// predict() on the clustered sampling stage: sample across remote
/// workers, then summarise in the parent. Bit-identical to the in-process
/// predict().
[[nodiscard]] UncertainPrediction predict_clustered(
    const PosteriorModelSampler& sampler, const DemandProfile& profile,
    stats::Rng& rng, std::size_t draws, double credibility,
    exec::ClusterRunner& cluster);

/// The "core.uq.sample" task blob: the sampler's class counts, the
/// profile, the total draw count and the base seed (layout in
/// uncertainty_shard.cpp).
[[nodiscard]] std::vector<std::uint8_t> encode_uq_blob(
    const PosteriorModelSampler& sampler, const DemandProfile& profile,
    std::uint64_t total_draws, std::uint64_t base);

/// Ascending-shard merge of "core.uq.sample" result payloads, shared by
/// the sharded and clustered paths: concatenates each shard's draws into
/// `out`. Throws exec::wire::ProtocolError on a malformed payload or a
/// draw count other than out.size().
void merge_uq_payloads(const std::vector<std::vector<std::uint8_t>>& payloads,
                       std::span<double> out);

/// No-op anchor: calling it from an executable forces this translation
/// unit (and its static ShardWorkloadRegistration) to link in, so daemons
/// built against the static libraries can serve "core.uq.sample" shard
/// tasks.
void ensure_uncertainty_shard_registered();

}  // namespace hmdiv::core
