// Multi-process sharding of TabularWorld Monte-Carlo trials.
//
// The "sim.trial" shard workload ships a (SequentialModel, DemandProfile,
// case_count, seed) description to each worker as IEEE-754 bit patterns;
// workers rebuild the world through the bit-exact from_normalised path,
// run their wire::shard_range slice of the fixed batch index space with
// TrialRunner::run_batches, and return the per-case records. The parent's
// concatenation (ascending shard order) is bit-identical to
// TrialRunner::run(seed, config) in one process.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/shard.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"

namespace hmdiv::exec {
class ClusterRunner;
}  // namespace hmdiv::exec

namespace hmdiv::sim {

/// Shard-workload name trial runs are registered under.
inline constexpr std::string_view kTrialShardWorkload = "sim.trial";

/// Runs a `case_count`-case trial on `world` across worker processes
/// (options.shards; 1 falls back to the in-process TrialRunner without
/// spawning anything). Output is bit-identical to
/// TrialRunner(world, case_count).run(seed) at any shard × thread
/// composition. Throws exec::ShardError on worker failure.
[[nodiscard]] TrialData run_trial_sharded(
    const TabularWorld& world, std::uint64_t case_count, std::uint64_t seed,
    const exec::ShardOptions& options = {});

/// Same trial, fanned across remote hmdiv_serve workers via `cluster`
/// (DESIGN.md §15). Identical blob, shard_range partition and ascending-
/// shard merge as run_trial_sharded, so the output is bit-identical to the
/// in-process run at any worker × shard composition. Throws
/// exec::ClusterError when no healthy worker can finish a shard.
[[nodiscard]] TrialData run_trial_clustered(const TabularWorld& world,
                                            std::uint64_t case_count,
                                            std::uint64_t seed,
                                            exec::ClusterRunner& cluster);

/// The "sim.trial" task blob: the world's model and profile, case_count
/// and seed (layout in trial_shard.cpp).
[[nodiscard]] std::vector<std::uint8_t> encode_trial_blob(
    const TabularWorld& world, std::uint64_t case_count, std::uint64_t seed);

/// Ascending-shard merge of "sim.trial" result payloads, shared by the
/// sharded and clustered paths. Throws exec::wire::ProtocolError on a
/// malformed payload or a record count other than `case_count`.
[[nodiscard]] TrialData merge_trial_payloads(
    const TabularWorld& world, std::uint64_t case_count,
    const std::vector<std::vector<std::uint8_t>>& payloads);

/// No-op anchor: calling it from an executable forces this translation
/// unit (and its static ShardWorkloadRegistration) to link in, so daemons
/// built against the static libraries can serve "sim.trial" shard tasks.
void ensure_trial_shard_registered();

}  // namespace hmdiv::sim
