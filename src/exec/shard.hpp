// Multi-process sharded execution: posix_spawn worker fan-out with a
// deterministic merge.
//
// The thread pool (exec/parallel.hpp) stops at one process; the shard
// engine is the next rung. A parent `ShardRunner` spawns N worker
// processes — posix_spawn of the *same binary* with the hidden
// `--shard-worker` entry point, whose cost does not grow with the
// parent's memory as fork's page-table copy does — each with stdin and
// stdout on one end of a socketpair, and hands the parent ends to the
// cluster scheduler (exec/cluster.hpp) as already-connected workers. Each
// worker runs one task: its shard descriptor (workload name, shard
// index/count, thread budget, config blob) arrives as a frame of
// shard_protocol.hpp; the worker's ShardSession rebuilds the workload from
// the blob, runs its slice on the ordinary in-process engine (batched
// kernels × thread pool), and ships the result plus its obs delta back.
//
// Determinism contract — the same guarantee the thread pool gives at 1 vs
// N threads, lifted to processes: the work partition depends only on the
// problem size and the shard count (wire::shard_range over the workload's
// *substream* index space — trial batches, grid indices, draw chunks), every
// slice draws from the same Rng(seed, stream) substreams it would occupy
// in a single-process run, doubles cross the socket as bit patterns, and
// the parent merges per-shard results in ascending shard order. N-shard
// output is therefore bit-identical to the 1-shard and to the in-process
// run.
//
// Failure handling: a binary that cannot be executed fails the spawn
// itself (Kind::spawn, code = the errno posix_spawn returned, e.g.
// ENOENT). Local workers fail fast. The first worker that dies
// (non-zero exit, signal, SIGKILL), writes a truncated frame, ships an
// error, or stalls past the deadline stops the run; the parent kills the
// rest, reaps every child via waitpid, and raises a structured ShardError
// naming the shard and the failure kind — never a hang, never a zombie.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "exec/shard_protocol.hpp"

namespace hmdiv::exec {

/// Process-level fan-out policy for one sharded run.
struct ShardOptions {
  /// Worker processes to spawn, clamped to [1, kMaxShards]; 1 runs the
  /// workload in-process without spawning.
  unsigned shards = 1;
  /// Thread budget *per worker* (the processes × threads composition);
  /// 0 means each worker uses all hardware threads.
  unsigned threads = 0;
  /// Wall-clock budget for the whole fan-out (spawn, task hand-off,
  /// result collection, reaping). On expiry the remaining workers are
  /// SIGKILLed, reaped, and a structured timeout error is raised.
  std::chrono::milliseconds deadline{120'000};
  /// Worker binary; empty means the running binary (/proc/self/exe).
  std::string exe;
};

/// Hard ceiling on worker processes (mirrors the --shards CLI range).
inline constexpr unsigned kMaxShards = 256;

/// What went wrong with one shard, in machine-readable form.
struct ShardFailure {
  enum class Kind {
    none,        ///< no failure
    spawn,       ///< socketpair/posix_spawn failed (code = errno)
    write,       ///< task hand-off failed, e.g. worker died reading (errno)
    timeout,     ///< deadline expired before the worker finished
    signal,      ///< worker killed by signal (code = signal number)
    exit_code,   ///< worker exited non-zero without a structured error
    truncated,   ///< worker stream ended mid-frame (short write / kill)
    protocol,    ///< malformed frame, missing result, or garbage bytes
    worker,      ///< worker shipped a structured error frame (detail)
  };
  Kind kind = Kind::none;
  /// Which shard failed, in [0, shard_count).
  std::uint32_t shard = 0;
  /// Kind-dependent: errno, exit status, or signal number.
  int code = 0;
  /// Human-readable specifics (worker error message, frame diagnostics).
  std::string detail;
};

/// Name of a failure kind ("signal", "truncated", ...), for messages/tests.
[[nodiscard]] std::string_view to_string(ShardFailure::Kind kind) noexcept;

/// Structured failure of a sharded run. The what() string names the shard
/// and kind; failure() exposes the machine-readable fields.
class ShardError : public std::runtime_error {
 public:
  explicit ShardError(ShardFailure failure);
  [[nodiscard]] const ShardFailure& failure() const noexcept {
    return failure_;
  }

 private:
  ShardFailure failure_;
};

/// A worker-side workload implementation: rebuilds the workload from
/// task.blob, computes the slice given by wire::shard_range(task) over its
/// own index space, and returns the result payload shipped to the parent.
/// Must be a plain function (workers run it in a fresh process).
using ShardHandler = std::vector<std::uint8_t> (*)(const wire::ShardTask&);

/// Registers `handler` under `name` (process-wide; later registrations of
/// the same name win, so tests can stub workloads). Workload modules
/// register at static-init time via ShardWorkloadRegistration.
void register_shard_workload(std::string_view name, ShardHandler handler);

/// Static registrar:
///   const ShardWorkloadRegistration reg{"sim.trial", &handle_trial};
struct ShardWorkloadRegistration {
  ShardWorkloadRegistration(std::string_view name, ShardHandler handler) {
    register_shard_workload(name, handler);
  }
};

/// Looks up a registered workload; nullptr when the name is unknown. The
/// worker entry point and the serve daemon's `shard` endpoint both dispatch
/// through this.
[[nodiscard]] ShardHandler find_shard_workload(std::string_view name);

/// Worker-side fault injection (test hook), parsed from
/// HMDIV_SHARD_FAULT="<mode>:<shard|*>" ('*' matches every task — the
/// deterministic spelling when the task → worker mapping is timing-
/// dependent, as it is under the pipelined coordinator's concurrent
/// startup). Local shard workers honour sigkill /
/// shortwrite / hang / exit_code; the serve shard endpoint honours
/// connreset (RST the connection instead of replying), slowdrain (stall
/// mid-reply past any per-task deadline), and delay — spelled
/// "delay:<shard|*>:<ms>" — which sleeps `ms` before shipping each reply
/// whose task starts at `shard` ('*' matches every task), emulating WAN
/// round-trip latency on loopback. Modes a transport does not implement
/// are ignored there.
enum class ShardFaultMode {
  none,
  sigkill,
  shortwrite,
  hang,
  exit_code,
  connreset,
  slowdrain,
  delay,
};

/// Fault mode for the worker executing `shard_index`; ShardFaultMode::none
/// unless HMDIV_SHARD_FAULT names this exact shard (or, for delay, '*').
[[nodiscard]] ShardFaultMode shard_fault_mode(std::uint32_t shard_index) noexcept;

/// Per-reply sleep of the delay fault, in milliseconds; 0 unless
/// HMDIV_SHARD_FAULT is a well-formed "delay:<shard|*>:<ms>".
[[nodiscard]] unsigned shard_fault_delay_ms() noexcept;

/// The hidden CLI flag that turns any hmdiv binary into a shard worker.
inline constexpr std::string_view kShardWorkerFlag = "--shard-worker";

/// True iff argv contains --shard-worker: main() should immediately
/// delegate to shard_worker_main() and exit with its return value.
[[nodiscard]] bool shard_worker_requested(int argc,
                                          const char* const* argv) noexcept;

/// Worker entry point: drives an exec::ShardSession over stdin/stdout (one
/// connected stream socket) until EOF, so every task runs through
/// execute_shard_task and replies result [+ obs] + done, or an error
/// frame. The HMDIV_SHARD_FAULT local modes apply to the reply bytes.
/// Returns the process exit code: 0 at a clean EOF, 3 when the stream
/// ends mid-frame or is malformed (after shipping an error frame).
[[nodiscard]] int shard_worker_main();

/// Absolute path of the running binary (via /proc/self/exe); the default
/// worker image. Throws ShardError{spawn} if it cannot be resolved.
[[nodiscard]] std::string self_exe_path();

/// Parent-side fan-out engine. One ShardRunner::run spawns the workers,
/// lets the cluster scheduler hand out tasks, collect results and merge
/// worker obs deltas into this process's registry, then reaps the
/// children and diagnoses any failure.
class ShardRunner {
 public:
  explicit ShardRunner(ShardOptions options = {});

  /// Worker count this runner will spawn (options.shards clamped to
  /// [1, kMaxShards]).
  [[nodiscard]] unsigned resolved_shards() const noexcept;

  /// Runs `workload` across resolved_shards() worker processes, handing
  /// every worker the same `blob` and its own shard index. Returns the raw
  /// result payloads in ascending shard order (the deterministic-merge
  /// order); workload wrappers decode and concatenate/fold them. Throws
  /// ShardError on any worker failure, after killing and reaping every
  /// child.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> run(
      std::string_view workload, std::span<const std::uint8_t> blob) const;

 private:
  ShardOptions options_;
};

}  // namespace hmdiv::exec
