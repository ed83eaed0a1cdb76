// Keyed memoisation cache for repeated what-if evaluations.
//
// Analysts iterating with the extrapolation / design-advisor tooling ask
// the same questions repeatedly (the same scenario under the same profile,
// re-issued as surrounding inputs change), and the serve layer shares one
// cache across every concurrent connection. EvalCache memoises those
// evaluations behind an exact key: a flat sequence of doubles encoding
// every input the result depends on. Exact bitwise key equality is
// deliberate — keys are built from the exact inputs, so any bitwise
// difference is a different query and near-misses must not alias.
//
// Concurrency: lookups are hash-sharded. Each segment has its own mutex
// and FIFO deque, and a key's segment is a pure function of its hash, so
// concurrent requests for different keys contend only when they land in
// the same segment (audited for the serve layer's cross-request sharing;
// the single global mutex it replaces serialised every hit). The capacity,
// and so the layout, is fixed at construction.
//
// Lifetime: there is no clear(). Values are keyed by request inputs only,
// so a cache must not outlive the model its values were computed from.
// The serve layer keeps one set of caches in each model snapshot and drops
// them with it on reload (DESIGN.md §13).
//
// Semantics:
//  - capacity 0 (the default) disables the cache entirely; callers that
//    never opt in pay one comparison per call.
//  - capacity < kSegments keeps every entry in one segment, preserving
//    the exact global FIFO eviction order small caches (and their tests)
//    rely on. Larger capacities split it evenly across segments, each
//    evicting oldest-first; the global order is FIFO per segment.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace hmdiv::core {

/// FNV-1a over the raw bytes of the key doubles.
[[nodiscard]] inline std::size_t eval_cache_hash(
    std::span<const double> key) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const double v : key) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  return static_cast<std::size_t>(h);
}

template <typename Value>
class EvalCache {
 public:
  using Key = std::vector<double>;

  /// Lock-sharding width. Fixed so a key's segment never depends on
  /// anything but its hash and the capacity.
  static constexpr std::size_t kSegments = 8;

  /// Holds at most `capacity` memoised results; 0 (the default)
  /// disables the cache.
  explicit EvalCache(std::size_t capacity = 0) : capacity_(capacity) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// True when the capacity is nonzero; find/insert are no-ops otherwise.
  [[nodiscard]] bool enabled() const { return capacity_ > 0; }

  /// Total entries currently memoised.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const Segment& segment : segments_) {
      const std::lock_guard<std::mutex> lock(segment.mutex);
      total += segment.entries.size();
    }
    return total;
  }

  /// Returns a copy of the memoised value for `key`, if present. The span
  /// overload performs no heap allocation on either hit or miss (for
  /// trivially copyable Value), so steady-state hot paths can probe with
  /// reused key storage.
  [[nodiscard]] std::optional<Value> find(std::span<const double> key) const {
    if (capacity_ == 0) return std::nullopt;
    const std::size_t hash = eval_cache_hash(key);
    const Segment& segment = segments_[segment_index(hash)];
    const std::lock_guard<std::mutex> lock(segment.mutex);
    for (const Entry& entry : segment.entries) {
      if (entry.hash == hash && entry.key.size() == key.size() &&
          std::equal(entry.key.begin(), entry.key.end(), key.begin())) {
        return entry.value;
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] std::optional<Value> find(const Key& key) const {
    return find(std::span<const double>(key));
  }

  /// Stores `value` under `key`, evicting the segment's oldest entry when
  /// full. Duplicate keys are tolerated (find returns the oldest surviving
  /// copy); both copies age out normally.
  void insert(Key key, Value value) {
    if (capacity_ == 0) return;
    const std::size_t hash = eval_cache_hash(key);
    const std::size_t s = segment_index(hash);
    const std::size_t limit = segment_capacity(s);
    Segment& segment = segments_[s];
    const std::lock_guard<std::mutex> lock(segment.mutex);
    segment.entries.push_back(Entry{hash, std::move(key), std::move(value)});
    while (segment.entries.size() > limit) {
      segment.entries.pop_front();
    }
  }

  /// Materialising the Key copies to the heap, so a disabled cache must
  /// short-circuit here — not in the Key overload — to keep disabled-cache
  /// miss paths allocation free.
  void insert(std::span<const double> key, Value value) {
    if (capacity_ == 0) return;
    insert(Key(key.begin(), key.end()), std::move(value));
  }

 private:
  struct Entry {
    std::size_t hash = 0;
    Key key;
    Value value;
  };

  struct Segment {
    mutable std::mutex mutex;
    std::deque<Entry> entries;  // guarded by mutex
  };

  /// Capacity of segment s, the segment_index of some key: segment 0
  /// takes everything while capacity < kSegments (exact global FIFO for
  /// small caches), otherwise an even split with the remainder spread
  /// over the first segments (sum == capacity).
  [[nodiscard]] std::size_t segment_capacity(std::size_t s) const {
    if (capacity_ < kSegments) return capacity_;
    return capacity_ / kSegments + (s < capacity_ % kSegments ? 1 : 0);
  }

  [[nodiscard]] std::size_t segment_index(std::size_t hash) const {
    return capacity_ < kSegments ? 0 : hash % kSegments;
  }

  const std::size_t capacity_;
  mutable std::array<Segment, kSegments> segments_;
};

}  // namespace hmdiv::core
