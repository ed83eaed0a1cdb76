#include "exec/shard_protocol.hpp"

#include <algorithm>
#include <utility>

namespace hmdiv::exec::wire {

namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 8;  // magic + type + length

bool known_type(std::uint32_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::task:
    case FrameType::result:
    case FrameType::obs:
    case FrameType::error:
    case FrameType::done:
      return true;
  }
  return false;
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload) {
  Writer header;
  header.u32(kFrameMagic);
  header.u32(static_cast<std::uint32_t>(type));
  header.u64(payload.size());
  out.insert(out.end(), header.data().begin(), header.data().end());
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameParser::next() {
  if (buffer_.size() < kHeaderSize) return std::nullopt;
  Reader header(std::span<const std::uint8_t>(buffer_.data(), kHeaderSize));
  if (header.u32() != kFrameMagic) {
    throw ProtocolError("shard frame: bad magic");
  }
  const std::uint32_t type = header.u32();
  if (!known_type(type)) {
    throw ProtocolError("shard frame: unknown frame type " +
                        std::to_string(type));
  }
  const std::uint64_t length = header.u64();
  if (length > kMaxFramePayload) {
    throw ProtocolError("shard frame: declared payload of " +
                        std::to_string(length) + " bytes exceeds limit");
  }
  if (buffer_.size() - kHeaderSize < length) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  const auto payload_begin =
      buffer_.begin() + static_cast<std::ptrdiff_t>(kHeaderSize);
  const auto payload_end =
      payload_begin + static_cast<std::ptrdiff_t>(length);
  if (payload_end == buffer_.end()) {
    // The buffer holds exactly this frame (the usual case for a large
    // one): hand its storage over rather than copying the payload.
    buffer_.erase(buffer_.begin(), payload_begin);
    frame.payload = std::move(buffer_);
    buffer_.clear();
  } else {
    frame.payload.assign(payload_begin, payload_end);
    buffer_.erase(buffer_.begin(), payload_end);
  }
  return frame;
}

std::vector<std::uint8_t> serialize_task(const ShardTask& task) {
  Writer w;
  w.str(task.workload);
  w.u32(task.shard_index);
  w.u32(task.shard_count);
  w.u32(task.span);
  w.u32(task.threads);
  w.u8(task.obs_enabled ? 1 : 0);
  w.u8(task.blob_cached ? 1 : 0);
  w.u64(task.blob.size());
  w.bytes(task.blob);
  return w.take();
}

ShardTask parse_task(std::vector<std::uint8_t> payload) {
  Reader r(payload);
  ShardTask task;
  task.workload = r.str();
  task.shard_index = r.u32();
  task.shard_count = r.u32();
  task.span = r.u32();
  task.threads = r.u32();
  task.obs_enabled = r.u8() != 0;
  task.blob_cached = r.u8() != 0;
  const std::uint64_t blob_size = r.u64();
  static_cast<void>(r.take(blob_size));
  if (!r.exhausted()) {
    throw ProtocolError("shard task: trailing bytes after blob");
  }
  // The blob is the payload's tail: drop the descriptor in front of it.
  payload.erase(payload.begin(),
                payload.end() - static_cast<std::ptrdiff_t>(blob_size));
  task.blob = std::move(payload);
  if (task.shard_count == 0 || task.shard_index >= task.shard_count) {
    throw ProtocolError("shard task: shard_index outside [0, shard_count)");
  }
  if (task.span == 0 ||
      std::uint64_t{task.shard_index} + task.span > task.shard_count) {
    throw ProtocolError("shard task: span outside [1, shard_count - index]");
  }
  if (task.blob_cached && !task.blob.empty()) {
    throw ProtocolError("shard task: cached task carries an inline blob");
  }
  return task;
}

std::vector<std::uint8_t> serialize_done(std::uint32_t task_id) {
  Writer w;
  w.u32(task_id);
  return w.take();
}

std::uint32_t parse_done(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const std::uint32_t id = r.u32();
  if (!r.exhausted()) {
    throw ProtocolError("shard done frame: trailing bytes");
  }
  return id;
}

ShardRange shard_range(std::uint64_t items, std::uint32_t shard,
                       std::uint32_t shards) noexcept {
  const std::uint32_t n = std::max(shards, 1u);
  const std::uint32_t s = std::min(shard, n - 1);
  // floor(k·m/N) without the 128-bit product: with m = q·N + r the cut is
  // k·q + floor(k·r/N); k·q ≤ m and k·r ≤ kMaxShards² so nothing overflows.
  const std::uint64_t q = items / n;
  const std::uint64_t r = items % n;
  const auto cut = [&](std::uint64_t k) { return k * q + (k * r) / n; };
  return ShardRange{cut(s), cut(s + 1)};
}

ShardRange task_range(std::uint64_t items, const ShardTask& task) noexcept {
  // Cuts nest: shard_range(items, s, N).end == shard_range(items, s+1,
  // N).begin, so the span's union is one contiguous range.
  const std::uint32_t span = std::max(task.span, 1u);
  return ShardRange{
      shard_range(items, task.shard_index, task.shard_count).begin,
      shard_range(items, task.shard_index + span - 1, task.shard_count).end};
}

void check_reply_fits(std::uint64_t items, std::size_t bytes_per_item) {
  if (items > kMaxFramePayload / bytes_per_item) {
    throw ProtocolError("shard task: a reply of " + std::to_string(items) +
                        " items exceeds the frame limit");
  }
}

}  // namespace hmdiv::exec::wire
