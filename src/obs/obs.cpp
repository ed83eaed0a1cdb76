#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string_view>

namespace hmdiv::obs {

namespace {

std::atomic<bool> g_enabled{false};

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

namespace {

/// Upper bound of the bucket holding the q-quantile of `count` recordings,
/// clamped to the observed [min, max]: a bucket bound can lie past the
/// largest (or below the smallest) value actually recorded, and a p50 above
/// the max is a wrong answer, not a coarse one. `bucket(b)` reads bucket b.
template <typename BucketFn>
std::uint64_t bucket_quantile(std::uint64_t count, std::size_t buckets,
                              BucketFn bucket, std::uint64_t min,
                              std::uint64_t max, double q) noexcept {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  std::uint64_t value = max;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    cumulative += bucket(b);
    if (cumulative >= target && cumulative > 0) {
      // Upper bound of bucket b: values in [2^(b-1), 2^b).
      value = b == 0    ? 0
              : b >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << b) - 1;
      break;
    }
  }
  return min <= max ? std::clamp(value, min, max) : value;
}

}  // namespace

std::uint64_t Histogram::quantile(double q) const noexcept {
  return bucket_quantile(
      count(), kBuckets,
      [this](std::size_t b) {
        return buckets_[b].load(std::memory_order_relaxed);
      },
      min(), max(), q);
}

std::uint64_t snapshot_quantile(const HistogramSnapshot& h,
                                double q) noexcept {
  return bucket_quantile(
      h.count, h.buckets.size(), [&h](std::size_t b) { return h.buckets[b]; },
      h.min, h.max, q);
}

void Histogram::merge(const HistogramSnapshot& other) noexcept {
  if (other.count == 0) return;
  count_.fetch_add(other.count, std::memory_order_relaxed);
  sum_.fetch_add(other.sum, std::memory_order_relaxed);
  const std::size_t buckets = std::min(other.buckets.size(), kBuckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    if (other.buckets[b] != 0) {
      buckets_[b].fetch_add(other.buckets[b], std::memory_order_relaxed);
    }
  }
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (other.min < seen &&
         !min_.compare_exchange_weak(seen, other.min,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (other.max > seen &&
         !max_.compare_exchange_weak(seen, other.max,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(const char* name) {
  if (!enabled()) return;
  hist_ = &Registry::global().histogram(name);
  start_ = Clock::now();
}

ScopedTimer::~ScopedTimer() {
  if (hist_ == nullptr) return;
  const auto elapsed = Clock::now() - start_;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  hist_->record(ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name)))
             .first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.push_back(CounterSnapshot{name, counter->value()});
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.count = hist->count();
    h.sum = hist->sum();
    h.min = hist->min();
    h.max = hist->max();
    h.p50 = hist->quantile(0.50);
    h.p90 = hist->quantile(0.90);
    h.p99 = hist->quantile(0.99);
    h.buckets.resize(Histogram::kBuckets);
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      h.buckets[b] = hist->bucket(b);
    }
    out.histograms.push_back(std::move(h));
  }
  return out;
}

void Registry::merge(const Snapshot& other) {
  for (const CounterSnapshot& c : other.counters) {
    if (c.value != 0) counter(c.name).add(c.value);
  }
  for (const HistogramSnapshot& h : other.histograms) {
    histogram(h.name).merge(h);
  }
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, hist] : histograms_) hist->reset();
}

Snapshot registry_snapshot() { return Registry::global().snapshot(); }

Snapshot snapshot_delta(const Snapshot& before, const Snapshot& after) {
  Snapshot out;
  std::map<std::string_view, std::uint64_t> prev_counters;
  for (const CounterSnapshot& c : before.counters) {
    prev_counters[c.name] = c.value;
  }
  for (const CounterSnapshot& c : after.counters) {
    const auto it = prev_counters.find(c.name);
    const std::uint64_t base = it == prev_counters.end() ? 0 : it->second;
    // Counters are monotone per metric, but concurrent writers can make a
    // racy `before` read overshoot; saturate rather than wrap.
    const std::uint64_t delta = c.value >= base ? c.value - base : 0;
    if (delta != 0) out.counters.push_back(CounterSnapshot{c.name, delta});
  }
  std::map<std::string_view, const HistogramSnapshot*> prev_histograms;
  for (const HistogramSnapshot& h : before.histograms) {
    prev_histograms[h.name] = &h;
  }
  for (const HistogramSnapshot& h : after.histograms) {
    const auto it = prev_histograms.find(h.name);
    if (it == prev_histograms.end()) {
      if (h.count != 0) out.histograms.push_back(h);
      continue;
    }
    const HistogramSnapshot& base = *it->second;
    HistogramSnapshot delta;
    delta.name = h.name;
    delta.count = h.count >= base.count ? h.count - base.count : 0;
    if (delta.count == 0) continue;
    delta.sum = h.sum >= base.sum ? h.sum - base.sum : 0;
    // min/max are cumulative (see header): they cannot be subtracted.
    delta.min = h.min;
    delta.max = h.max;
    delta.buckets.resize(h.buckets.size());
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      const std::uint64_t prior =
          b < base.buckets.size() ? base.buckets[b] : 0;
      delta.buckets[b] =
          h.buckets[b] >= prior ? h.buckets[b] - prior : 0;
    }
    delta.p50 = snapshot_quantile(delta, 0.50);
    delta.p90 = snapshot_quantile(delta, 0.90);
    delta.p99 = snapshot_quantile(delta, 0.99);
    out.histograms.push_back(std::move(delta));
  }
  return out;
}

// --- Snapshot wire format -------------------------------------------------
// obs sits below exec in the layer order, so the encoding is implemented
// here with minimal local helpers rather than exec's wire::Writer/Reader.
// Layout (all little-endian):
//   u32 version | u64 n_counters | n × (str name, u64 value)
//               | u64 n_histograms | n × (str name, u64 count, sum, min,
//                 max, p50, p90, p99, u64 n_buckets, n_buckets × u64)
// Strings are u64 length + raw bytes.

namespace {

constexpr std::uint32_t kSnapshotVersion = 1;

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

struct Cursor {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  std::span<const std::uint8_t> take(std::uint64_t n) {
    if (n > bytes.size() - pos) {
      throw std::runtime_error("obs snapshot: truncated payload");
    }
    const auto out = bytes.subspan(pos, static_cast<std::size_t>(n));
    pos += static_cast<std::size_t>(n);
    return out;
  }
  std::uint64_t u64() {
    const auto raw = take(8);
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= std::uint64_t{raw[b]} << (8 * b);
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    const auto raw = take(n);
    return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
  }
  /// A u64 element count, rejected unless the rest of the payload could
  /// hold that many items of at least `min_item_bytes` each.
  std::size_t count(std::size_t min_item_bytes) {
    const std::uint64_t n = u64();
    if (n > (bytes.size() - pos) / min_item_bytes) {
      throw std::runtime_error("obs snapshot: count exceeds payload");
    }
    return static_cast<std::size_t>(n);
  }
};

}  // namespace

std::vector<std::uint8_t> serialize_snapshot(const Snapshot& s) {
  std::vector<std::uint8_t> out;
  put_u64(out, kSnapshotVersion);
  put_u64(out, s.counters.size());
  for (const CounterSnapshot& c : s.counters) {
    put_str(out, c.name);
    put_u64(out, c.value);
  }
  put_u64(out, s.histograms.size());
  for (const HistogramSnapshot& h : s.histograms) {
    put_str(out, h.name);
    put_u64(out, h.count);
    put_u64(out, h.sum);
    put_u64(out, h.min);
    put_u64(out, h.max);
    put_u64(out, h.p50);
    put_u64(out, h.p90);
    put_u64(out, h.p99);
    put_u64(out, h.buckets.size());
    for (const std::uint64_t b : h.buckets) put_u64(out, b);
  }
  return out;
}

Snapshot parse_snapshot(std::span<const std::uint8_t> bytes) {
  Cursor in{bytes};
  const std::uint64_t version = in.u64();
  if (version != kSnapshotVersion) {
    throw std::runtime_error("obs snapshot: unsupported version " +
                             std::to_string(version));
  }
  Snapshot out;
  // A counter is a name (length prefix) and a value.
  const std::size_t counters = in.count(16);
  out.counters.reserve(counters);
  for (std::size_t i = 0; i < counters; ++i) {
    CounterSnapshot c;
    c.name = in.str();
    c.value = in.u64();
    out.counters.push_back(std::move(c));
  }
  // A histogram is a name (length prefix), 7 fields and a bucket count.
  const std::size_t histograms = in.count(72);
  out.histograms.reserve(histograms);
  for (std::size_t i = 0; i < histograms; ++i) {
    HistogramSnapshot h;
    h.name = in.str();
    h.count = in.u64();
    h.sum = in.u64();
    h.min = in.u64();
    h.max = in.u64();
    h.p50 = in.u64();
    h.p90 = in.u64();
    h.p99 = in.u64();
    const std::uint64_t buckets = in.u64();
    if (buckets > Histogram::kBuckets) {
      throw std::runtime_error("obs snapshot: bucket count out of range");
    }
    h.buckets.reserve(static_cast<std::size_t>(buckets));
    for (std::uint64_t b = 0; b < buckets; ++b) {
      h.buckets.push_back(in.u64());
    }
    out.histograms.push_back(std::move(h));
  }
  if (in.pos != bytes.size()) {
    throw std::runtime_error("obs snapshot: trailing bytes");
  }
  return out;
}

}  // namespace hmdiv::obs
