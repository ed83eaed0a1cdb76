// Wire layer of the TCP shard transport (DESIGN.md §15).
//
// A cluster coordinator talks to `hmdiv_serve` workers over the daemon's
// ordinary NDJSON connection: it sends one `{"op":"shard",...}` request
// (the upgrade handshake), waits for the `"ok":true` response line, and
// from then on the connection carries the same length-prefixed "HMDF"
// frames a local shard worker speaks over its socketpair — task frames in,
// result (+ obs) or error frames out, several tasks per connection. The
// frame format, the wire::shard_range partition, and the ascending-shard
// merge are all shared with the single-host engine, which is what makes
// 1-host-N-shards and N-hosts bit-identical by construction.
//
// This header holds the pieces both ends share: the upgrade request line
// the coordinator sends, and the worker-side ShardSession — a byte-in /
// byte-out state machine that the serve layer's connection loop and the
// local --shard-worker process both drive (no sockets in here, so the
// protocol is unit-testable in-process).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "exec/shard_protocol.hpp"

namespace hmdiv::exec {

/// The NDJSON request a coordinator sends to switch a serve connection
/// into binary shard mode. Every byte the coordinator sends after this
/// line is HMDF frames, so it may pipeline task frames in the same write.
/// The daemon answers with a normal response line (`"ok":true` and
/// `"shard":"ready"`); every byte it sends after that response is HMDF
/// frames.
inline constexpr std::string_view kShardUpgradeLine =
    "{\"op\":\"shard\",\"id\":0}\n";

/// Executes one shard task on this process's engine and appends the reply
/// frames to `out`: a result frame, then — iff task.obs_enabled — an obs
/// frame carrying the *delta* of the global registry across the handler
/// (obs::snapshot_delta; a long-running daemon must not re-ship its whole
/// uptime per task). A failed or unknown workload appends an error frame
/// instead and returns false (the caller must not follow an error with a
/// done frame — done marks successful completion only). Applies
/// task.threads to the process default config (a perf-only knob: results
/// are bit-identical at any thread count). Never throws.
bool execute_shard_task(const wire::ShardTask& task,
                        std::vector<std::uint8_t>& out);

/// Worker-side shard-mode stream: feed it connection bytes, ship back the
/// replies it produces. One session per upgraded connection. Coordinators
/// may pipeline several task frames back to back; each task's reply ends
/// with a done frame carrying the task's id (span-start shard index), so
/// the far end can match replies to its in-flight window FIFO. The session
/// also caches the most recent inline blob per connection: a task with
/// blob_cached set reuses it, so a coordinator ships a large workload
/// config once per connection, not once per micro-task.
class ShardSession {
 public:
  struct Reply {
    /// Span-start shard index of the task (faults key on it).
    std::uint32_t shard_index = 0;
    /// Frames to ship, in order (result [+ obs] + done, or error).
    std::vector<std::uint8_t> bytes;
    /// Unrecoverable stream (bad magic, oversized or non-task frame):
    /// ship `bytes`, then close the connection.
    bool close = false;
  };

  /// Consumes `bytes`, executes every complete task frame in arrival
  /// order, and returns one Reply per task. A malformed stream yields a
  /// final Reply with close=true and the session goes dead (further
  /// bytes are ignored). Never throws.
  [[nodiscard]] std::vector<Reply> consume(
      std::span<const std::uint8_t> bytes);

  /// True iff no partial frame is pending: a stream that ends while this
  /// is false was cut off mid-frame.
  [[nodiscard]] bool idle() const { return parser_.idle(); }

 private:
  wire::FrameParser parser_;
  bool dead_ = false;
  /// Blob cache for blob_cached tasks (one per connection).
  bool have_blob_ = false;
  std::string blob_workload_;
  std::vector<std::uint8_t> blob_;
};

}  // namespace hmdiv::exec
