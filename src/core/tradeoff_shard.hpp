// Multi-process sharding of trade-off analyses.
//
// Two shard workloads over the same serialized TradeoffAnalyzer:
//
//   "core.sweep"    — partition the threshold grid's index space; workers
//                     decode only their wire::shard_range slice of the
//                     grid, sweep it with the batched kernel and ship four
//                     columns back as bit patterns: machine_fn,
//                     machine_fp, system_fn, system_fp. The parent fills
//                     in each threshold from its own grid and the other
//                     four fields with derive_system_rates, the function
//                     the kernel itself uses. evaluate_batch is
//                     bit-identical to the scalar evaluate() at any batch
//                     boundary, so the merged sweep equals the
//                     single-process sweep bit-for-bit.
//   "core.minimise" — partition the cost-scan grid; workers return their
//                     range's best CostedOperatingPoint and the parent
//                     folds them in ascending shard order with strict <,
//                     preserving minimise_cost's earliest-grid-point tie
//                     rule exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/tradeoff.hpp"
#include "exec/shard.hpp"

namespace hmdiv::exec {
class ClusterRunner;
}  // namespace hmdiv::exec

namespace hmdiv::core {

/// Shard-workload names the trade-off analyses register under.
inline constexpr std::string_view kSweepShardWorkload = "core.sweep";
inline constexpr std::string_view kMinimiseShardWorkload = "core.minimise";

/// TradeoffAnalyzer::sweep across worker processes (options.shards; 1 runs
/// in-process without spawning). Output is bit-identical to
/// analyzer.sweep(thresholds) at any shard × thread composition. Throws
/// exec::ShardError on worker failure.
[[nodiscard]] std::vector<SystemOperatingPoint> sweep_sharded(
    const TradeoffAnalyzer& analyzer, const std::vector<double>& thresholds,
    const exec::ShardOptions& options = {});

/// TradeoffAnalyzer::minimise_cost across worker processes, merging the
/// per-shard partial minima with the earliest-grid-point tie rule. Output
/// is bit-identical to the in-process scan.
[[nodiscard]] SystemOperatingPoint minimise_cost_sharded(
    const TradeoffAnalyzer& analyzer, double cost_fn, double cost_fp,
    double lo, double hi, std::size_t steps,
    const exec::ShardOptions& options = {});

/// sweep across remote hmdiv_serve workers via `cluster` (DESIGN.md §15).
/// Identical blob, shard_range partition and ascending-shard merge as
/// sweep_sharded, so the points are bit-identical to analyzer.sweep at any
/// worker × shard composition. Throws exec::ClusterError when no healthy
/// worker can finish a shard.
[[nodiscard]] std::vector<SystemOperatingPoint> sweep_clustered(
    const TradeoffAnalyzer& analyzer, const std::vector<double>& thresholds,
    exec::ClusterRunner& cluster);

/// minimise_cost across remote workers with the same earliest-grid-point
/// tie fold as minimise_cost_sharded. Bit-identical to the in-process scan.
[[nodiscard]] SystemOperatingPoint minimise_cost_clustered(
    const TradeoffAnalyzer& analyzer, double cost_fn, double cost_fp,
    double lo, double hi, std::size_t steps, exec::ClusterRunner& cluster);

/// The "core.sweep" task blob: the analyzer, then the threshold grid.
[[nodiscard]] std::vector<std::uint8_t> encode_sweep_blob(
    const TradeoffAnalyzer& analyzer, std::span<const double> thresholds);

/// Ascending-shard merge of "core.sweep" result payloads, shared by the
/// sharded and clustered paths: concatenates the columns and completes
/// each point from `thresholds` and the analyzer's prevalence. Throws
/// exec::wire::ProtocolError on a malformed payload or a point count that
/// does not match the grid.
[[nodiscard]] std::vector<SystemOperatingPoint> merge_sweep_payloads(
    const TradeoffAnalyzer& analyzer, std::span<const double> thresholds,
    const std::vector<std::vector<std::uint8_t>>& payloads);

/// The "core.minimise" task blob: the analyzer, the two costs, the grid
/// bounds and its step count.
[[nodiscard]] std::vector<std::uint8_t> encode_minimise_blob(
    const TradeoffAnalyzer& analyzer, double cost_fn, double cost_fp,
    double lo, double hi, std::size_t steps);

/// Ascending-shard fold of "core.minimise" result payloads with the
/// earliest-grid-point tie rule, shared by the sharded and clustered
/// paths. Throws exec::wire::ProtocolError on a malformed payload.
[[nodiscard]] SystemOperatingPoint merge_minimise_payloads(
    const TradeoffAnalyzer& analyzer,
    const std::vector<std::vector<std::uint8_t>>& payloads);

/// No-op anchor: calling it from an executable forces this translation
/// unit (and its static ShardWorkloadRegistrations) to link in, so daemons
/// built against the static libraries can serve "core.sweep" and
/// "core.minimise" shard tasks.
void ensure_tradeoff_shard_registered();

}  // namespace hmdiv::core
