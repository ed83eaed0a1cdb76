#include "exec/cluster_protocol.hpp"

#include <string>
#include <utility>

#include "exec/config.hpp"
#include "exec/shard.hpp"
#include "obs/obs.hpp"

namespace hmdiv::exec {

namespace {

void append_error_frame(std::vector<std::uint8_t>& out,
                        const std::string& message) {
  wire::Writer payload;
  payload.str(message);
  wire::append_frame(out, wire::FrameType::error, payload.data());
}

}  // namespace

bool execute_shard_task(const wire::ShardTask& task,
                        std::vector<std::uint8_t>& out) {
  const ShardHandler handler = find_shard_workload(task.workload);
  if (handler == nullptr) {
    append_error_frame(out, "shard endpoint: unknown workload '" +
                                task.workload + "'");
    return false;
  }
  // Process-global knobs, set per task. The thread budget is perf-only
  // (results are bit-identical at any count), so flipping it per task is
  // safe even with concurrent coordinator connections.
  set_default_config(Config{task.threads});
  const bool was_enabled = obs::enabled();
  if (task.obs_enabled && !was_enabled) obs::set_enabled(true);
  obs::Snapshot before;
  if (task.obs_enabled) before = obs::registry_snapshot();

  std::vector<std::uint8_t> payload;
  try {
    HMDIV_OBS_COUNT("serve.shard.tasks", 1);
    HMDIV_OBS_SCOPED_TIMER("exec.shard.worker_ns");
    payload = handler(task);
  } catch (const std::exception& e) {
    if (task.obs_enabled && !was_enabled) obs::set_enabled(false);
    append_error_frame(out, "shard endpoint: " + task.workload + ": " +
                                e.what());
    return false;
  }

  wire::append_frame(out, wire::FrameType::result, payload);
  if (task.obs_enabled) {
    const obs::Snapshot delta =
        obs::snapshot_delta(before, obs::registry_snapshot());
    wire::append_frame(out, wire::FrameType::obs,
                       obs::serialize_snapshot(delta));
    if (!was_enabled) obs::set_enabled(false);
  }
  return true;
}

std::vector<ShardSession::Reply> ShardSession::consume(
    std::span<const std::uint8_t> bytes) {
  std::vector<Reply> replies;
  if (dead_) return replies;
  const auto die = [&](const std::string& message) {
    dead_ = true;
    Reply reply;
    reply.close = true;
    append_error_frame(reply.bytes, message);
    replies.push_back(std::move(reply));
  };
  try {
    parser_.feed(bytes);
    while (auto frame = parser_.next()) {
      if (frame->type != wire::FrameType::task) {
        die("shard endpoint: expected a task frame");
        break;
      }
      wire::ShardTask task;
      try {
        task = wire::parse_task(std::move(frame->payload));
      } catch (const std::exception& e) {
        die(std::string("shard endpoint: bad task: ") + e.what());
        break;
      }
      Reply reply;
      reply.shard_index = task.shard_index;
      if (!task.blob_cached) {
        blob_ = std::move(task.blob);
        blob_workload_ = task.workload;
        have_blob_ = true;
      } else if (!have_blob_ || blob_workload_ != task.workload) {
        // A correct coordinator ships the blob inline on the first task
        // of every (re)connection; a miss is a protocol bug on its side,
        // reported as a structured (deterministic) error.
        append_error_frame(reply.bytes,
                           "shard endpoint: no cached blob for workload '" +
                               task.workload + "'");
        replies.push_back(std::move(reply));
        continue;
      }
      // Lend the cached blob to the task and take it back: no copy.
      task.blob = std::move(blob_);
      const bool ok = execute_shard_task(task, reply.bytes);
      blob_ = std::move(task.blob);
      if (ok) {
        wire::append_frame(reply.bytes, wire::FrameType::done,
                           wire::serialize_done(task.shard_index));
      }
      replies.push_back(std::move(reply));
    }
  } catch (const wire::ProtocolError& e) {
    die(std::string("shard endpoint: ") + e.what());
  }
  return replies;
}

}  // namespace hmdiv::exec
