#include "sim/trial_shard.hpp"

#include <stdexcept>
#include <utility>

#include "core/demand_profile.hpp"
#include "core/sequential_model.hpp"
#include "exec/cluster.hpp"
#include "obs/obs.hpp"

namespace hmdiv::sim {

// Blob layout: u64 n_classes, n × str name, n × 3 f64 conditionals,
// doubles profile probabilities, u64 case_count, u64 seed. Doubles travel
// as bit patterns and the profile rebuilds through from_normalised, so the
// worker's TabularWorld (joint alias table included) matches the parent's
// bit-for-bit.

std::vector<std::uint8_t> encode_trial_blob(const TabularWorld& world,
                                            std::uint64_t case_count,
                                            std::uint64_t seed) {
  const core::SequentialModel& model = world.model();
  exec::wire::Writer w;
  const std::size_t k = model.class_count();
  w.u64(k);
  for (const std::string& name : model.class_names()) w.str(name);
  for (std::size_t x = 0; x < k; ++x) {
    const core::ClassConditional& c = model.parameters(x);
    w.f64(c.p_machine_fails);
    w.f64(c.p_human_fails_given_machine_fails);
    w.f64(c.p_human_fails_given_machine_succeeds);
  }
  std::vector<double> probabilities(k);
  for (std::size_t x = 0; x < k; ++x) {
    probabilities[x] = world.profile().probability(x);
  }
  w.doubles(probabilities);
  w.u64(case_count);
  w.u64(seed);
  return w.take();
}

namespace {

struct TrialShardConfig {
  TabularWorld world;
  std::uint64_t case_count = 0;
  std::uint64_t seed = 0;
};

TrialShardConfig decode_blob(std::span<const std::uint8_t> blob) {
  exec::wire::Reader r(blob);
  // Each class needs a name's length prefix, 3 conditionals and a
  // probability.
  const std::size_t k = r.count(40);
  std::vector<std::string> names;
  names.reserve(k);
  for (std::size_t x = 0; x < k; ++x) names.push_back(r.str());
  std::vector<core::ClassConditional> parameters(k);
  for (auto& c : parameters) {
    c.p_machine_fails = r.f64();
    c.p_human_fails_given_machine_fails = r.f64();
    c.p_human_fails_given_machine_succeeds = r.f64();
  }
  std::vector<double> probabilities = r.doubles();
  core::SequentialModel model(names, std::move(parameters));
  core::DemandProfile profile =
      core::DemandProfile::from_normalised(std::move(names),
                                           std::move(probabilities));
  TrialShardConfig config{
      TabularWorld(std::move(model), std::move(profile)), r.u64(), r.u64()};
  if (!r.exhausted()) {
    throw exec::wire::ProtocolError("sim.trial blob: trailing bytes");
  }
  return config;
}

/// Wire size of one case record: u32 class index, u8 failure flags.
constexpr std::size_t kRecordBytes = 5;

std::vector<std::uint8_t> encode_records(
    std::span<const CaseRecord> records) {
  exec::wire::Writer w;
  w.u64(records.size());
  for (const CaseRecord& record : records) {
    w.u32(static_cast<std::uint32_t>(record.class_index));
    w.u8(static_cast<std::uint8_t>((record.machine_failed ? 2 : 0) |
                                   (record.human_failed ? 1 : 0)));
  }
  return w.take();
}

void decode_records_into(std::span<const std::uint8_t> payload,
                         std::vector<CaseRecord>& out,
                         std::size_t class_count) {
  exec::wire::Reader r(payload);
  const std::size_t n = r.count(kRecordBytes);
  out.reserve(out.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    CaseRecord record;
    record.class_index = r.u32();
    const std::uint8_t flags = r.u8();
    record.machine_failed = (flags & 2) != 0;
    record.human_failed = (flags & 1) != 0;
    if (record.class_index >= class_count || (flags & ~3u) != 0) {
      throw exec::wire::ProtocolError("sim.trial result: bad case record");
    }
    out.push_back(record);
  }
  if (!r.exhausted()) {
    throw exec::wire::ProtocolError("sim.trial result: trailing bytes");
  }
}

/// Worker side: rebuild the world, run this task's slice of the batch
/// index space — a contiguous span of micro-shards — on the in-process
/// engine, ship the records back.
std::vector<std::uint8_t> handle_trial_shard(
    const exec::wire::ShardTask& task) {
  TrialShardConfig config = decode_blob(task.blob);
  TrialRunner runner(config.world, config.case_count);
  const exec::wire::ShardRange range =
      exec::wire::task_range(runner.batch_count(), task);
  exec::wire::check_reply_fits(range.size(),
                               TrialRunner::kBatchSize * kRecordBytes);
  return encode_records(
      runner.run_batches(config.seed, range.begin, range.end));
}

const exec::ShardWorkloadRegistration kRegistration{kTrialShardWorkload,
                                                    &handle_trial_shard};

}  // namespace

// Both transports return payloads in shard order, so the merged record
// stream is transport-independent.
TrialData merge_trial_payloads(
    const TabularWorld& world, std::uint64_t case_count,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  TrialData data;
  data.class_names = world.class_names();
  data.records.reserve(static_cast<std::size_t>(case_count));
  for (const auto& payload : payloads) {
    decode_records_into(payload, data.records, data.class_names.size());
  }
  if (data.records.size() != case_count) {
    throw exec::wire::ProtocolError(
        "sim.trial: merged record count mismatch");
  }
  return data;
}

TrialData run_trial_sharded(const TabularWorld& world,
                            std::uint64_t case_count, std::uint64_t seed,
                            const exec::ShardOptions& options) {
  const exec::ShardRunner runner(options);
  if (runner.resolved_shards() == 1) {
    // No fan-out: run on the in-process engine directly (same output).
    TabularWorld local(world.model(), world.profile());
    return TrialRunner(local, case_count)
        .run(seed, options.threads ? exec::Config{options.threads}
                                   : exec::default_config());
  }
  HMDIV_OBS_SCOPED_TIMER("sim.trial.shard_ns");
  const std::vector<std::uint8_t> blob =
      encode_trial_blob(world, case_count, seed);
  return merge_trial_payloads(world, case_count,
                              runner.run(kTrialShardWorkload, blob));
}

TrialData run_trial_clustered(const TabularWorld& world,
                              std::uint64_t case_count, std::uint64_t seed,
                              exec::ClusterRunner& cluster) {
  HMDIV_OBS_SCOPED_TIMER("sim.trial.cluster_ns");
  const std::vector<std::uint8_t> blob =
      encode_trial_blob(world, case_count, seed);
  // Items hint: batches are the substream grain, so the coordinator can
  // micro-task at batch granularity.
  const std::uint64_t batches =
      (case_count + TrialRunner::kBatchSize - 1) / TrialRunner::kBatchSize;
  return merge_trial_payloads(world, case_count,
                              cluster.run(kTrialShardWorkload, blob, batches));
}

void ensure_trial_shard_registered() {}

}  // namespace hmdiv::sim
