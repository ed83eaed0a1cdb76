// Spans recorded by the traced run around the benchmark's own calls into
// the hmdiv modules. Each span has a name ("<layer>.<call>"), start, end,
// the span that caused it, and the id of the job or request it belongs
// to. Spans stay in memory and are written out when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t trace_id = 0;  ///< shared by the spans of one job/request
  std::uint32_t id = 0;        ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;
  std::int64_t start_ns = 0;   ///< since the recorder's epoch
  std::int64_t end_ns = 0;
};

/// Single-threaded span recorder. When disabled, begin()/end() cost one
/// branch and record nothing, which is how the untraced twin of a traced
/// job is timed.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open span (or as a root) and
  /// returns its id (0 when disabled).
  std::uint32_t begin(std::string_view name, std::uint64_t trace_id);
  void end(std::uint32_t id);
  /// Records a finished span with explicit times (for requests timed by
  /// the load generator).
  void record(std::string_view name, std::uint64_t trace_id,
              std::uint32_t parent, Clock::time_point start,
              Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Self time per layer, in seconds, over the spans whose root is the
  /// span `root`: a span's duration minus the part of it its children
  /// cover. The layer is the name up to the last '.', e.g.
  /// "exec.shard.sweep" -> "exec.shard", "stats.bootstrap" -> "stats".
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::uint32_t root) const;

  /// Writes every span as one JSON object per line. Returns false on an
  /// I/O error.
  bool write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII helper: a span over one scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::uint64_t trace_id)
      : tracer_(tracer), id_(tracer.begin(name, trace_id)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Layer of a span name (see Tracer::self_seconds).
[[nodiscard]] std::string layer_of(std::string_view span_name);

}  // namespace perfbench
