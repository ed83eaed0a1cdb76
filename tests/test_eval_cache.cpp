// Tests for core::EvalCache — the keyed memoisation cache shared across
// concurrent serve requests. Covers the single-threaded contract (exact
// keying, FIFO eviction, the fixed capacity) and the concurrent
// hit/miss surface the serve layer exercises: these tests run under the
// ThreadSanitizer CI job (regex `EvalCache`), which is what pins the
// absence of data races / torn reads in the sharded lookup path.
#include "core/eval_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "alloc_count.hpp"

namespace hmdiv {
namespace {

using Cache = core::EvalCache<double>;

std::vector<double> key_of(double a, double b = 0.0) { return {a, b}; }

TEST(EvalCache, DisabledByDefault) {
  Cache cache;
  EXPECT_FALSE(cache.enabled());
  cache.insert(key_of(1), 10.0);
  EXPECT_FALSE(cache.find(key_of(1)).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EvalCache, ExactKeyLookup) {
  Cache cache(4);
  cache.insert(key_of(1, 2), 12.0);
  ASSERT_TRUE(cache.find(key_of(1, 2)).has_value());
  EXPECT_EQ(*cache.find(key_of(1, 2)), 12.0);
  // Any bitwise difference is a different query (one-ulp perturbation;
  // an offset below eps would round back to the same double).
  EXPECT_FALSE(
      cache.find(key_of(1, std::nextafter(2.0, 3.0))).has_value());
  EXPECT_FALSE(cache.find(key_of(2, 1)).has_value());
  EXPECT_FALSE(cache.find(std::vector<double>{1.0}).has_value());
}

TEST(EvalCache, SpanAndVectorKeysAgree) {
  Cache cache(4);
  const std::vector<double> key = key_of(3, 4);
  cache.insert(std::span<const double>(key), 34.0);
  EXPECT_EQ(*cache.find(key), 34.0);
  EXPECT_EQ(*cache.find(std::span<const double>(key)), 34.0);
}

TEST(EvalCache, SmallCapacityEvictsFifo) {
  // Below kSegments everything lives in one segment, so eviction order is
  // exactly global FIFO — the order the pre-sharding cache guaranteed.
  Cache cache(2);
  cache.insert(key_of(1), 1.0);
  cache.insert(key_of(2), 2.0);
  cache.insert(key_of(3), 3.0);
  EXPECT_FALSE(cache.find(key_of(1)).has_value());
  EXPECT_TRUE(cache.find(key_of(2)).has_value());
  EXPECT_TRUE(cache.find(key_of(3)).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EvalCache, LargeCapacityIsShardedButBounded) {
  const std::size_t capacity = 64;
  Cache cache(capacity);
  for (int i = 0; i < 1000; ++i) cache.insert(key_of(i), i);
  EXPECT_LE(cache.size(), capacity);
  EXPECT_GE(cache.size(), capacity / 2);  // segments fill evenly-ish
  // Recent inserts that survived must read back their own value.
  std::size_t hits = 0;
  for (int i = 990; i < 1000; ++i) {
    if (const auto hit = cache.find(key_of(i))) {
      ++hits;
      EXPECT_EQ(*hit, static_cast<double>(i));
    }
  }
  EXPECT_GT(hits, 0u);
}

TEST(EvalCache, SpanHitPathDoesNotAllocate) {
  Cache cache(16);
  std::vector<double> key = key_of(7, 9);
  cache.insert(key, 79.0);
  // Warm once (first probe may fault in nothing, but keep the pattern of
  // the other zero-alloc tests: measure after a warm-up call).
  ASSERT_TRUE(cache.find(std::span<const double>(key)).has_value());
  const std::uint64_t before = test::allocation_count();
  for (int i = 0; i < 100; ++i) {
    const auto hit = cache.find(std::span<const double>(key));
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ(*hit, 79.0);
  }
  EXPECT_EQ(test::allocation_count(), before);
}

// The serve layer's sharing pattern: many threads issuing a mix of hits,
// misses and inserts against one cache. Values are a pure function of the
// key, so any torn read or cross-key aliasing surfaces as a wrong value;
// TSan covers the data-race side.
TEST(EvalCache, ConcurrentHitMissInsertIsRaceFree) {
  Cache cache(64);
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &cache, &hits, &failed] {
      for (int i = 0; i < kOps; ++i) {
        const double a = static_cast<double>((t * 31 + i) % 48);
        const double b = static_cast<double>(i % 7);
        const double expected = a * 1000.0 + b;
        const std::vector<double> key = {a, b};
        if (i % 3 == 0) {
          cache.insert(key, expected);
        } else if (const auto hit =
                       cache.find(std::span<const double>(key))) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (*hit != expected) failed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_FALSE(failed.load()) << "a cache hit returned a wrong value";
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());
}

}  // namespace
}  // namespace hmdiv
