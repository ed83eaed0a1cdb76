// The serve layer's request dispatcher: protocol parsing, model state,
// shared result caches and per-endpoint observability, independent of any
// transport. server.hpp moves bytes; Service turns one request line into
// one response line.
//
// Protocol (newline-delimited JSON, one object per line):
//   {"op":"whatif","id":7,"deadline_ms":250,"params":{...}}
// ->
//   {"id":7,"ok":true,"result":{...}}
//   {"id":7,"ok":false,"error":{"code":"shed","message":"..."}}
//
// Error codes: bad_request, unknown_op, shed, deadline_exceeded, internal.
//
// Request lifecycle (DESIGN.md §13):
//  * Each handle_line() opens a Workspace::Scope on the calling thread's
//    exec workspace; JSON nodes and all per-request scratch live there and
//    are rewound on return. Together with the reused RequestScratch
//    buffers, hot endpoints (whatif/compare on cache hits) perform zero
//    steady-state heap allocations.
//  * Compute endpoints pass through the AdmissionGate (bounded queue +
//    deadline wait); health/metrics/reload bypass it so the daemon stays
//    observable under overload.
//  * Model state (model, profiles, derived engines, epoch and the result
//    caches) is one immutable snapshot per epoch. A request copies the
//    snapshot pointer once and runs with no service lock held; `reload`
//    builds the next snapshot, with empty caches, and swaps the pointer.
//    A cached value is keyed by request inputs only, so it lives in the
//    snapshot of the model it was computed from and dies with it.
//
// Metrics: serve.<ep>.requests / .errors / .shed counters and a
// serve.<ep>.ns histogram per endpoint, plus serve.<ep>.cache_hit/_miss
// for the cached endpoints; all registered once at construction and
// gated on obs::enabled().
//
// Dispatch: one path per request — handle_line -> dispatch_parsed ->
// execute_inline. handle_burst answers a read burst's lines with it, in
// request order: a long burst runs as one job on the process pool, in
// tasks of consecutive lines, with every non-compute request (health,
// metrics, reload, shard) as a barrier that runs alone on the calling
// thread. Handing single requests to other threads to batch them by
// endpoint lost throughput on 4 cores (DESIGN.md §14).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/demand_profile.hpp"
#include "core/extrapolation.hpp"
#include "core/sequential_model.hpp"
#include "core/tradeoff.hpp"
#include "core/uncertainty.hpp"
#include "exec/config.hpp"
#include "obs/obs.hpp"
#include "serve/admission.hpp"
#include "serve/json.hpp"

namespace hmdiv::serve {

struct ServiceOptions {
  /// Shared result-cache capacities (entries; 0 disables a cache).
  std::size_t whatif_cache_capacity = 4096;
  std::size_t sweep_cache_capacity = 64;
  std::size_t minimise_cache_capacity = 128;
  std::size_t uq_cache_capacity = 128;
  /// Deadline applied when a request carries none (requests may ask for
  /// up to 60 s).
  std::uint64_t default_deadline_ms = 1000;
  /// Thread budget for one request's uq, sweep and minimise compute,
  /// caller included; 1 = serial per request. Defaults to the process
  /// budget (HMDIV_THREADS, else all hardware threads). Requests on
  /// different connections share the one process pool (DESIGN.md §6), so
  /// a request gets only the helpers that are free. It also caps the
  /// threads one handle_burst spreads a burst's lines over (together
  /// with max_concurrent).
  unsigned compute_threads = exec::default_config().resolved_threads();
  /// Admission control; max_concurrent 0 = hardware concurrency.
  std::size_t max_concurrent = 0;
  std::size_t max_queue = 64;
};

/// Per-connection reusable parse/compute scratch. Buffer capacities
/// survive across requests, which is what keeps the hot path allocation
/// free after the first request of each shape.
struct RequestScratch {
  JsonParser parser;
  std::vector<double> key;
  std::vector<std::pair<std::size_t, double>> class_factors;
  /// Set by the `shard` endpoint: the connection leaves NDJSON after this
  /// response and every later byte is a binary HMDF frame (DESIGN.md
  /// §15). Only the socket server acts on it; direct handle_line callers
  /// can ignore it.
  bool shard_upgrade = false;
  /// handle_burst's reused buffers: the compute lines waiting for the
  /// next barrier, and one reply string per pooled task.
  std::vector<std::string_view> lines;
  std::vector<std::string> task_out;
};

class Service {
  /// One epoch's snapshot: everything derived from one (model, trial,
  /// field) triple plus the result caches computed against it. Never
  /// changed once published; reload replaces it whole.
  struct Loaded;

 public:
  using Clock = std::chrono::steady_clock;

  /// Builds the daemon state from a trial-estimated model and the trial /
  /// field demand profiles (the Section-5 inputs). Throws
  /// std::invalid_argument when the profiles do not match the model.
  Service(core::SequentialModel model, core::DemandProfile trial,
          core::DemandProfile field, ServiceOptions options = {});
  ~Service();

  /// Handles one request line (no trailing newline required) and appends
  /// exactly one newline-terminated response line to `out`.
  void handle_line(std::string_view line, RequestScratch& scratch,
                   std::string& out);

  /// Answers every complete line of `burst` ('\n'-terminated; a trailing
  /// '\r' is dropped and blank lines are skipped) through handle_line and
  /// appends the replies to `out` in request order. Stops after a `shard`
  /// line, whose upgrade sets scratch.shard_upgrade. Returns the bytes
  /// consumed: up to the end of the last line answered.
  ///
  /// A burst of at least 8 lines per thread runs on the process pool
  /// over min(compute_threads, max_concurrent) threads, in tasks of 8
  /// consecutive lines (kLinesPerTask); the uq, sweep and minimise
  /// inside a task then compute inline. A non-compute request is a
  /// barrier: the lines before it are answered first, it runs alone on
  /// the calling thread, and the lines after it see its effects. Shorter
  /// bursts answer line by line on the calling thread. Either way each
  /// reply is handle_line's for that line; only a `cached` flag can
  /// differ, since pooled lines reach the shared caches in another order.
  std::size_t handle_burst(std::string_view burst, RequestScratch& scratch,
                           std::string& out);

  /// Publishes a snapshot of the new model at the next epoch, with empty
  /// result caches, and returns it. Requests already running finish on
  /// the snapshot they started with. Throws std::invalid_argument on
  /// incompatible inputs (the current snapshot stays live).
  std::shared_ptr<const Loaded> reload(core::SequentialModel model,
                                       core::DemandProfile trial,
                                       core::DemandProfile field);

  /// Flagged by the server during shutdown; `health` reports it so load
  /// balancers can drain before the listener disappears.
  void set_draining(bool draining) noexcept {
    draining_.store(draining, std::memory_order_release);
  }
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  [[nodiscard]] AdmissionGate& gate() { return gate_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }

 private:
  enum Endpoint : std::size_t {
    kAnalyze = 0,
    kWhatif,
    kSweep,
    kMinimise,
    kUq,
    kCompare,
    kHealth,
    kMetrics,
    kReload,
    kShard,
    kEndpointCount,
  };

  struct EndpointMetrics {
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* shed = nullptr;
    obs::Histogram* ns = nullptr;
    obs::Counter* cache_hit = nullptr;   // cached endpoints only
    obs::Counter* cache_miss = nullptr;  // cached endpoints only
  };

  /// Fixed-size memoised values — EvalCache copies them by value, so they
  /// must stay trivially copyable (no per-hit allocation).
  struct WhatifNumbers {
    double system_failure = 0.0;
    double machine_failure = 0.0;
    double failure_floor = 0.0;
    double floor = 0.0;
    double mean_field = 0.0;
    double covariance = 0.0;
  };
  static constexpr std::size_t kMaxSweepPoints = 33;
  struct SweepSummary {
    std::uint32_t point_count = 0;
    std::array<core::SystemOperatingPoint, kMaxSweepPoints> points{};
  };
  struct MinimiseNumbers {
    core::SystemOperatingPoint best;
    double cost = 0.0;
  };
  struct UqNumbers {
    double mean = 0.0;
    double lower = 0.0;
    double upper = 0.0;
    double stddev = 0.0;
  };

  /// One parsed and routed request frame. root/id/params point into the
  /// calling thread's workspace and stay valid for the enclosing
  /// Workspace::Scope's lifetime.
  struct Parsed {
    const JsonValue* root = nullptr;
    const JsonValue* id = nullptr;
    const JsonValue* params = nullptr;
    std::size_t ep = kEndpointCount;
    Clock::time_point t0{};
    Clock::time_point deadline{};
  };

  /// Uniform handler shape: append the `"result":{...}` payload body for
  /// one request, computed against the snapshot the request copied.
  using Handler = void (Service::*)(const Loaded& state,
                                    const Parsed& request,
                                    RequestScratch& scratch, std::string& out);

  /// One row of the endpoint registry: the single source of truth shared
  /// by dispatch, unknown_op checks and metrics registration.
  struct EndpointEntry {
    std::string_view name;
    Handler handler = nullptr;
    /// Admission-controlled compute (vs health/metrics/reload).
    bool compute = false;
    /// Registers serve.<ep>.cache_hit/_miss counters.
    bool cached = false;
  };
  [[nodiscard]] static const std::array<EndpointEntry, kEndpointCount>&
  endpoint_table();

  /// Builds a snapshot at epoch 1 with caches at the configured
  /// capacities. Throws std::invalid_argument when the profiles do not
  /// match the model.
  [[nodiscard]] std::shared_ptr<Loaded> build_loaded(
      core::SequentialModel model, core::DemandProfile trial,
      core::DemandProfile field) const;

  /// Index of the endpoint named `op`, or kEndpointCount.
  [[nodiscard]] static std::size_t endpoint_index(std::string_view op);
  /// True when `line` requests a non-compute endpoint (a burst barrier).
  [[nodiscard]] static bool is_barrier(std::string_view line,
                                       JsonParser& parser);
  /// Answers scratch.lines in order (pooled when there are at least 8
  /// per thread) and clears them.
  void answer_lines(unsigned threads, RequestScratch& scratch,
                    std::string& out);

  /// Parses one line into `request` (t0, root, id, endpoint). Returns
  /// false after writing a protocol error line (bad JSON / missing op /
  /// unknown_op) — those never reach validation or metrics beyond the
  /// requests counter.
  bool parse_frame(std::string_view line, RequestScratch& scratch,
                   std::string& out, Parsed& request);
  /// deadline_ms / params shape checks; fills request.deadline / .params.
  /// Throws RequestError on violations.
  void validate_request(Parsed& request) const;
  /// Executes one validated request: admission for compute endpoints,
  /// then the handler on the live snapshot.
  void execute_inline(const Parsed& request, RequestScratch& scratch,
                      std::string& out);
  /// validate + execute_inline wrapped in the uniform error rendering and
  /// the per-endpoint latency record.
  void dispatch_parsed(Parsed& request, RequestScratch& scratch,
                       std::string& out);

  // Endpoint handlers (uniform Handler signature; rows of the table).
  void handle_analyze(const Loaded& state, const Parsed& request,
                      RequestScratch& scratch, std::string& out);
  void handle_whatif(const Loaded& state, const Parsed& request,
                     RequestScratch& scratch, std::string& out);
  void handle_sweep(const Loaded& state, const Parsed& request,
                    RequestScratch& scratch, std::string& out);
  void handle_minimise(const Loaded& state, const Parsed& request,
                       RequestScratch& scratch, std::string& out);
  void handle_uq(const Loaded& state, const Parsed& request,
                 RequestScratch& scratch, std::string& out);
  void handle_compare(const Loaded& state, const Parsed& request,
                      RequestScratch& scratch, std::string& out);
  void handle_health(const Loaded& state, const Parsed& request,
                     RequestScratch& scratch, std::string& out);
  void handle_metrics(const Loaded& state, const Parsed& request,
                      RequestScratch& scratch, std::string& out);
  void handle_reload(const Loaded& state, const Parsed& request,
                     RequestScratch& scratch, std::string& out);
  void handle_shard(const Loaded& state, const Parsed& request,
                    RequestScratch& scratch, std::string& out);

  /// Shared whatif machinery (whatif + compare): resolves a scenario spec
  /// into per-class factors (scratch.class_factors) and a canonical cache
  /// key (scratch.key), probes the cache, computes on miss. `cached`
  /// reports the hit/miss.
  [[nodiscard]] WhatifNumbers compute_whatif(const Loaded& state,
                                             const JsonValue& spec,
                                             RequestScratch& scratch,
                                             bool& cached) const;
  static void append_whatif_body(std::string& out,
                                 const WhatifNumbers& numbers, bool cached);

  ServiceOptions options_;
  AdmissionGate gate_;
  Clock::time_point started_;

  /// Held only to copy or swap `loaded_`, never while a handler runs.
  std::mutex loaded_mutex_;
  std::shared_ptr<const Loaded> loaded_;  // guarded by loaded_mutex_
  std::atomic<bool> draining_{false};

  std::array<EndpointMetrics, kEndpointCount> metrics_{};
};

}  // namespace hmdiv::serve
