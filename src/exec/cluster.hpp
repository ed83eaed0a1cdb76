// Multi-host distributed execution: a TCP shard coordinator (DESIGN.md
// §15–16).
//
// ClusterRunner is the third rung of the execution ladder: threads
// (exec/parallel.hpp) → processes (exec/shard.hpp) → hosts, and its
// dispatch loop is the one scheduler both fan-outs run on: ShardRunner
// hands it local worker processes over socketpairs. It fans the
// same substream-partitioned shard tasks the local process shards run —
// sim.trial batch ranges, core.sweep / core.minimise grid subspans,
// core.uq.sample draw chunks — across remote `hmdiv_serve` workers over
// TCP, reusing the HMDF frame format and the wire::shard_range partition
// unchanged. Because a task's payload is a pure function of (blob,
// shard_index, span, shard_count), and the merge is in ascending
// span-start order, output over N hosts is bit-identical to N local
// shards and to the in-process run — the same determinism contract,
// lifted to the network.
//
// Scheduling (the latency-hiding part): instead of `shards == tasks` with
// one outstanding task per worker, the coordinator cuts the substream
// index space into many micro-shards and keeps up to
// ClusterOptions::window tasks in flight per connection, matching replies
// FIFO via per-task done frames — the next task's bytes are on the wire
// while the worker computes the current one, so network RTT hides behind
// compute. Every task's span follows one fixed rule of the remaining
// work, the live worker count and the window (see dispatch()), so a fast
// worker pulls more tasks, not bigger ones, and no task is big enough to
// gate the tail. A ready worker never waits for one still connecting. The
// workload config blob ships once per connection (the session caches it;
// follow-up tasks set blob_cached).
//
// Transport: one warm TCP connection per worker (kept across run() calls,
// so a profiling pipeline pays the connect + NDJSON upgrade handshake
// once). All connects start concurrently as non-blocking sockets polled
// together, bounding startup by the slowest worker. A worker that fails —
// connect refusal, reset, EOF, malformed frames, a done frame out of
// order, or a blown head-of-line deadline — is sidelined, all of its
// in-flight spans requeue at the front of the queue (safe by the purity
// argument above), and after ClusterOptions::readmit_after it gets one
// re-probe per run so a transient outage does not cost the whole fleet
// member; structured error frames, by contrast, are deterministic
// workload failures and abort the run. Worker obs snapshots (per-task
// deltas) fold into this process's registry at each task's done frame.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace hmdiv::exec {

/// Fan-out policy for a cluster of remote workers.
struct ClusterOptions {
  /// Worker endpoints ("host:port" or "[v6]:port"), e.g. from --workers.
  std::vector<std::string> workers;
  /// Shards to partition each run into; 0 lets the run pick an adaptive
  /// micro-shard count from the workload's item hint (many small tasks
  /// per worker — see ClusterRunner::run), falling back to one shard per
  /// worker. More shards than workers is fine (tasks queue).
  unsigned shards = 0;
  /// Thread budget per task on the worker; 0 means this process's default
  /// thread count (mirrors ShardOptions::threads).
  unsigned threads = 0;
  /// Tasks kept in flight per connection (pipelining depth). 1 restores
  /// the strict request/reply lockstep of PR 9.
  unsigned window = 4;
  /// Per-task wall-clock budget, measured at the head of each
  /// connection's in-flight queue. On expiry the worker is dropped and
  /// its in-flight tasks re-issued elsewhere.
  std::chrono::milliseconds task_deadline{120'000};
  /// Budget for connect + upgrade handshake per worker.
  std::chrono::milliseconds connect_timeout{5'000};
  /// Backoff before a transport-sidelined worker gets its one re-probe
  /// per run; 0 disables re-admission.
  std::chrono::milliseconds readmit_after{1'000};
};

/// Per-worker tallies, cumulative across a runner's lifetime.
struct ClusterWorkerStats {
  std::string address;        ///< endpoint as configured
  std::uint64_t tasks = 0;    ///< tasks completed here
  std::uint64_t bytes_out = 0;  ///< task bytes shipped to it
  std::uint64_t bytes_in = 0;   ///< reply bytes drained from it
  std::uint64_t retries = 0;  ///< tasks abandoned here and re-issued
  std::uint64_t readmitted = 0;  ///< times sidelined then re-admitted
  std::string last_error;     ///< most recent transport failure, if any
};

/// A cluster run that could not complete: every worker failed, a task ran
/// out of workers to retry on, or a worker shipped a structured error
/// frame (a deterministic workload failure no reassignment can fix).
class ClusterError : public std::runtime_error {
 public:
  explicit ClusterError(std::string message)
      : std::runtime_error(std::move(message)) {}
};

/// Coordinator. Not thread-safe; one runner per pipeline.
class ClusterRunner {
 public:
  explicit ClusterRunner(ClusterOptions options);
  ~ClusterRunner();
  ClusterRunner(const ClusterRunner&) = delete;
  ClusterRunner& operator=(const ClusterRunner&) = delete;

  /// Shard count per run when explicitly configured (options.shards
  /// resolved as documented there); runs with an items hint and no
  /// explicit count pick their own micro-shard count.
  [[nodiscard]] unsigned resolved_shards() const noexcept;

  /// Runs `workload` across the fleet and returns the raw result
  /// payloads in ascending span-start order — each payload covers the
  /// contiguous micro-shard span of one task, so workload wrappers
  /// concatenate/fold them exactly as they do ShardRunner::run output.
  /// `items_hint` is the workload's natural-grain item count (trial
  /// batches, grid points, draw chunks); when the shard count is not
  /// pinned by options/env it sizes the micro-shard partition (0 keeps
  /// the one-shard-per-worker fallback). Throws ClusterError when the
  /// run cannot complete.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> run(
      std::string_view workload, std::span<const std::uint8_t> blob,
      std::uint64_t items_hint = 0);

  /// Per-worker tallies so far (index-aligned with options.workers).
  [[nodiscard]] std::vector<ClusterWorkerStats> worker_stats() const;

 private:
  friend class ShardRunner;
  struct Conn;

  /// A local fleet: `fds[i]` is an already-connected stream to the shard
  /// worker process ShardRunner spawned as worker i. No connect, no
  /// upgrade, no re-admission; the fleet fails fast (see dispatch()).
  /// Takes ownership of the fds.
  ClusterRunner(std::span<const int> fds, ClusterOptions options);

  /// The dispatch loop both transports share: partitions the work into
  /// `shards` micro-shards, keeps each worker's window full, merges reply
  /// obs deltas, and returns payloads in ascending span-start order. A
  /// remote worker that fails is sidelined and its spans requeue; a local
  /// worker's first failure ends the run with a ShardError naming it.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> dispatch(
      std::string_view workload, std::span<const std::uint8_t> blob,
      unsigned shards);

  ClusterOptions options_;
  std::vector<Conn> conns_;
  bool local_ = false;
};

}  // namespace hmdiv::exec
