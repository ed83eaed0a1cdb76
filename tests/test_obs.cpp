// Tests for the obs subsystem: counters, histograms, scoped timers, the
// global registry, and the instrumentation macros' runtime gate —
// including thread-safety of concurrent mutation under exec::parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"

namespace hmdiv {
namespace {

// Each gtest case runs in its own process under ctest, but keep the
// runtime gate off after every test anyway so in-binary runs stay clean.
class ObsGateGuard {
 public:
  ~ObsGateGuard() { obs::set_enabled(false); }
};

TEST(ObsCounter, AddAccumulatesAndResetZeroes) {
  obs::Counter c("c");
  EXPECT_EQ(c.value(), 0U);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42U);
  EXPECT_EQ(c.name(), "c");
  c.reset();
  EXPECT_EQ(c.value(), 0U);
}

TEST(ObsCounter, ConcurrentAddsAreExact) {
  obs::Counter c("c");
  constexpr std::size_t kN = 100'000;
  exec::parallel_for(kN, 256, [&](std::size_t) { c.add(); },
                     exec::Config{8});
  EXPECT_EQ(c.value(), kN);
}

TEST(ObsHistogram, TracksCountSumMinMax) {
  obs::Histogram h("h");
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.min(), 0U);  // empty histogram reads as all-zero
  EXPECT_EQ(h.max(), 0U);
  h.record(7);
  h.record(100);
  h.record(3);
  EXPECT_EQ(h.count(), 3U);
  EXPECT_EQ(h.sum(), 110U);
  EXPECT_EQ(h.min(), 3U);
  EXPECT_EQ(h.max(), 100U);
}

TEST(ObsHistogram, QuantileIsWithinAFactorOfTwo) {
  obs::Histogram h("h");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  // The true median is 500; the bucketed answer is its bucket's upper
  // bound, so it lies in [500, 1000).
  const std::uint64_t p50 = h.quantile(0.5);
  EXPECT_GE(p50, 500U);
  EXPECT_LT(p50, 1000U);
  const std::uint64_t p99 = h.quantile(0.99);
  EXPECT_GE(p99, 990U);
  EXPECT_LE(p99, 2U * 990U);
  EXPECT_GE(h.quantile(1.0), h.quantile(0.0));
  EXPECT_EQ(obs::Histogram("empty").quantile(0.5), 0U);
}

TEST(ObsHistogram, RecordsZeroAndResets) {
  obs::Histogram h("h");
  h.record(0);
  EXPECT_EQ(h.count(), 1U);
  EXPECT_EQ(h.min(), 0U);
  EXPECT_EQ(h.max(), 0U);
  h.record(9);
  h.reset();
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.sum(), 0U);
  EXPECT_EQ(h.min(), 0U);
  EXPECT_EQ(h.max(), 0U);
  EXPECT_EQ(h.quantile(0.5), 0U);
}

TEST(ObsHistogram, ConcurrentRecordsAreExactOnCountAndSum) {
  obs::Histogram h("h");
  constexpr std::size_t kN = 50'000;
  exec::parallel_for(kN, 128,
                     [&](std::size_t i) { h.record(i % 1024); },
                     exec::Config{8});
  EXPECT_EQ(h.count(), kN);
  EXPECT_EQ(h.min(), 0U);
  EXPECT_EQ(h.max(), 1023U);
}

TEST(ObsHistogram, SnapshotQuantileMatchesLiveQuantile) {
  // snapshot_quantile is the report-side twin of Histogram::quantile
  // (used by the serve metrics endpoint for p99.9); over the same bucket
  // counts the two must agree exactly.
  obs::Histogram h("h");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  h.record(1'000'000);  // a tail value so p99.9 and p50 differ
  obs::HistogramSnapshot snap;
  snap.count = h.count();
  snap.max = h.max();
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    snap.buckets.push_back(h.bucket(b));
  }
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(obs::snapshot_quantile(snap, q), h.quantile(q)) << "q=" << q;
  }
  EXPECT_GT(obs::snapshot_quantile(snap, 0.999),
            obs::snapshot_quantile(snap, 0.5));
}

TEST(ObsHistogram, SnapshotQuantileEdgeCases) {
  const obs::HistogramSnapshot empty;
  EXPECT_EQ(obs::snapshot_quantile(empty, 0.5), 0U);
  // A snapshot without bucket counts (e.g. hand-built) falls back to max.
  obs::HistogramSnapshot bare;
  bare.count = 5;
  bare.max = 1234;
  EXPECT_EQ(obs::snapshot_quantile(bare, 0.99), 1234U);
}

TEST(ObsHistogram, QuantilesStayWithinTheObservedRange) {
  // A bucket's upper bound can lie past every recorded value: 877 sits in
  // [512, 1024), whose bound 1023 is no value anyone observed.
  obs::Histogram one("one");
  one.record(877);
  EXPECT_EQ(one.quantile(0.0), 877U);
  EXPECT_EQ(one.quantile(0.5), 877U);
  EXPECT_EQ(one.quantile(0.99), 877U);

  obs::Histogram mixed("mixed");
  for (const std::uint64_t v : {40U, 520U, 530U, 600U, 700U, 877U}) {
    mixed.record(v);
  }
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_LE(mixed.quantile(q), mixed.max()) << "q=" << q;
    EXPECT_GE(mixed.quantile(q), mixed.min()) << "q=" << q;
  }
}

TEST(ObsHistogram, SnapshotAndDeltaQuantilesStayWithinTheObservedRange) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("h");
  h.record(3);
  const obs::Snapshot before = registry.snapshot();
  for (const std::uint64_t v : {600U, 700U, 877U}) h.record(v);
  const obs::Snapshot after = registry.snapshot();

  ASSERT_EQ(after.histograms.size(), 1U);
  const obs::HistogramSnapshot& whole = after.histograms[0];
  EXPECT_LE(whole.p50, whole.max);
  EXPECT_LE(whole.p99, whole.max);
  EXPECT_LE(obs::snapshot_quantile(whole, 0.999), whole.max);

  const obs::Snapshot delta = obs::snapshot_delta(before, after);
  ASSERT_EQ(delta.histograms.size(), 1U);
  const obs::HistogramSnapshot& d = delta.histograms[0];
  EXPECT_EQ(d.count, 3U);
  EXPECT_EQ(d.max, 877U);
  EXPECT_LE(d.p50, d.max);
  EXPECT_LE(d.p90, d.max);
  EXPECT_LE(d.p99, d.max);
  EXPECT_LE(obs::snapshot_quantile(d, 0.999), d.max);
}

TEST(ObsScopedTimer, DirectHistogramFormAlwaysRecords) {
  obs::Histogram h("h");
  {
    obs::ScopedTimer t(h);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_EQ(h.count(), 1U);
}

TEST(ObsScopedTimer, NamedFormIsInertWhileDisabled) {
  ObsGateGuard guard;
  obs::set_enabled(false);
  obs::Registry::global().reset();
  { obs::ScopedTimer t("obs.test.disabled_timer_ns"); }
  for (const auto& h : obs::registry_snapshot().histograms) {
    EXPECT_NE(h.name, "obs.test.disabled_timer_ns");
  }
}

TEST(ObsRegistry, LookupIsStableAndLazy) {
  ObsGateGuard guard;
  auto& registry = obs::Registry::global();
  obs::Counter& a = registry.counter("obs.test.stable");
  obs::Counter& b = registry.counter("obs.test.stable");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(b.value(), 5U);
  obs::Histogram& h = registry.histogram("obs.test.stable_hist");
  EXPECT_EQ(&h, &registry.histogram("obs.test.stable_hist"));
}

TEST(ObsRegistry, SnapshotReportsSortedMetrics) {
  ObsGateGuard guard;
  auto& registry = obs::Registry::global();
  registry.reset();
  registry.counter("obs.test.zzz").add(1);
  registry.counter("obs.test.aaa").add(2);
  registry.histogram("obs.test.hist").record(16);
  const obs::Snapshot snap = obs::registry_snapshot();
  EXPECT_FALSE(snap.empty());
  // std::map iteration order: sorted by name.
  std::string previous;
  bool saw_aaa = false, saw_zzz = false;
  for (const auto& c : snap.counters) {
    EXPECT_LE(previous, c.name);
    previous = c.name;
    if (c.name == "obs.test.aaa") {
      saw_aaa = true;
      EXPECT_EQ(c.value, 2U);
    }
    if (c.name == "obs.test.zzz") {
      saw_zzz = true;
      EXPECT_EQ(c.value, 1U);
    }
  }
  EXPECT_TRUE(saw_aaa);
  EXPECT_TRUE(saw_zzz);
  bool saw_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "obs.test.hist") {
      saw_hist = true;
      EXPECT_EQ(h.count, 1U);
      EXPECT_EQ(h.sum, 16U);
      EXPECT_GE(h.p50, 16U);
    }
  }
  EXPECT_TRUE(saw_hist);
}

TEST(ObsRegistry, ResetZeroesButKeepsRegistrations) {
  ObsGateGuard guard;
  auto& registry = obs::Registry::global();
  obs::Counter& c = registry.counter("obs.test.reset_me");
  c.add(9);
  registry.reset();
  EXPECT_EQ(c.value(), 0U);  // cached reference survives the reset
  bool found = false;
  for (const auto& snap : obs::registry_snapshot().counters) {
    if (snap.name == "obs.test.reset_me") {
      found = true;
      EXPECT_EQ(snap.value, 0U);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsMacros, DisabledGateMakesCountANoOp) {
  ObsGateGuard guard;
  obs::set_enabled(false);
  obs::Registry::global().reset();
  HMDIV_OBS_COUNT("obs.test.gated", 3);
  for (const auto& c : obs::registry_snapshot().counters) {
    if (c.name == "obs.test.gated") {
      EXPECT_EQ(c.value, 0U);
    }
  }
}

#if HMDIV_OBS
TEST(ObsMacros, EnabledGateCountsAndTimes) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  obs::Registry::global().reset();
  HMDIV_OBS_COUNT("obs.test.macro_counter", 2);
  HMDIV_OBS_COUNT("obs.test.macro_counter", 3);
  { HMDIV_OBS_SCOPED_TIMER("obs.test.macro_timer_ns"); }
  EXPECT_EQ(obs::Registry::global().counter("obs.test.macro_counter").value(),
            5U);
  EXPECT_EQ(
      obs::Registry::global().histogram("obs.test.macro_timer_ns").count(),
      1U);
}

TEST(ObsMacros, CountUnderParallelForIsExact) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  obs::Registry::global().reset();
  constexpr std::size_t kN = 20'000;
  exec::parallel_for(
      kN, 64, [&](std::size_t) { HMDIV_OBS_COUNT("obs.test.parallel", 1); },
      exec::Config{8});
  EXPECT_EQ(obs::Registry::global().counter("obs.test.parallel").value(), kN);
}

TEST(ObsPool, CallerWaitIsRecordedForPooledJobs) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  obs::Registry::global().reset();
  exec::ThreadPool pool(2);
  std::atomic<std::size_t> visited{0};
  auto body = [&](std::size_t) { visited.fetch_add(1); };
  pool.run_indexed(64, 3, exec::FunctionRef<void(std::size_t)>(body));
  ASSERT_EQ(visited.load(), 64U);
  bool found = false;
  for (const auto& h : obs::registry_snapshot().histograms) {
    if (h.name == "exec.pool.caller_wait_ns") {
      found = true;
      EXPECT_GE(h.count, 1U);
    }
  }
  EXPECT_TRUE(found);
}
#endif  // HMDIV_OBS

// --- Snapshot merge + serialization (the shard engine's obs transport) ----

const obs::HistogramSnapshot* find_histogram(const obs::Snapshot& snap,
                                             const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const obs::CounterSnapshot* find_counter(const obs::Snapshot& snap,
                                         const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

obs::HistogramSnapshot snapshot_of(const obs::Histogram& h) {
  obs::HistogramSnapshot snap;
  snap.name = h.name();
  snap.count = h.count();
  snap.sum = h.sum();
  snap.min = h.min();
  snap.max = h.max();
  snap.buckets.resize(obs::Histogram::kBuckets);
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    snap.buckets[b] = h.bucket(b);
  }
  return snap;
}

TEST(ObsMerge, HistogramMergeSumsBucketsNotQuantiles) {
  obs::Histogram left("h");
  obs::Histogram right("h");
  // Disjoint magnitude ranges: merging by re-binning derived quantiles
  // would smear one side; summing buckets keeps both exactly.
  left.record(4);
  left.record(5);
  right.record(1 << 20);

  left.merge(snapshot_of(right));
  EXPECT_EQ(left.count(), 3U);
  EXPECT_EQ(left.sum(), 9U + (1U << 20));
  EXPECT_EQ(left.min(), 4U);
  EXPECT_EQ(left.max(), std::uint64_t{1} << 20);
  // Bucket 3 ([4,8)) holds both small values, bucket 21 the large one.
  EXPECT_EQ(left.bucket(3), 2U);
  EXPECT_EQ(left.bucket(21), 1U);
  // The merged p99 bound reflects the large recording, not a re-binned
  // average of the two sides.
  EXPECT_GE(left.quantile(0.99), std::uint64_t{1} << 20);
}

TEST(ObsMerge, HistogramMergeOfEmptySnapshotIsIdentity) {
  obs::Histogram h("h");
  h.record(7);
  obs::Histogram empty("h");
  h.merge(snapshot_of(empty));
  EXPECT_EQ(h.count(), 1U);
  EXPECT_EQ(h.min(), 7U);
  EXPECT_EQ(h.max(), 7U);
}

TEST(ObsMerge, RegistryMergeAddsCountersAndCreatesMissingMetrics) {
  ObsGateGuard guard;
  auto& registry = obs::Registry::global();
  registry.reset();
  registry.counter("obs.test.merge_shared").add(5);

  obs::Snapshot worker;
  worker.counters.push_back({"obs.test.merge_shared", 7});
  worker.counters.push_back({"obs.test.merge_new", 3});
  obs::Histogram worker_hist("obs.test.merge_hist");
  worker_hist.record(32);
  worker.histograms.push_back(snapshot_of(worker_hist));

  registry.merge(worker);
  const obs::Snapshot merged = obs::registry_snapshot();
  const auto* shared = find_counter(merged, "obs.test.merge_shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->value, 12U);
  const auto* created = find_counter(merged, "obs.test.merge_new");
  ASSERT_NE(created, nullptr);
  EXPECT_EQ(created->value, 3U);
  const auto* hist = find_histogram(merged, "obs.test.merge_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1U);
  EXPECT_EQ(hist->sum, 32U);
}

TEST(ObsMerge, SnapshotSerializationRoundTrips) {
  obs::Snapshot snap;
  snap.counters.push_back({"a.counter", 42});
  snap.counters.push_back({"b.counter", 0});
  obs::Histogram hist("a.hist_ns");
  hist.record(0);
  hist.record(1000);
  snap.histograms.push_back(snapshot_of(hist));

  const obs::Snapshot back = obs::parse_snapshot(serialize_snapshot(snap));
  ASSERT_EQ(back.counters.size(), 2U);
  EXPECT_EQ(back.counters[0].name, "a.counter");
  EXPECT_EQ(back.counters[0].value, 42U);
  ASSERT_EQ(back.histograms.size(), 1U);
  EXPECT_EQ(back.histograms[0].name, "a.hist_ns");
  EXPECT_EQ(back.histograms[0].count, 2U);
  EXPECT_EQ(back.histograms[0].sum, 1000U);
  EXPECT_EQ(back.histograms[0].buckets, snap.histograms[0].buckets);
}

TEST(ObsMerge, ParseRejectsTruncatedAndTrailingBytes) {
  obs::Snapshot snap;
  snap.counters.push_back({"c", 1});
  std::vector<std::uint8_t> bytes = obs::serialize_snapshot(snap);
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 2);
  EXPECT_THROW(static_cast<void>(obs::parse_snapshot(truncated)),
               std::runtime_error);
  bytes.push_back(0);
  EXPECT_THROW(static_cast<void>(obs::parse_snapshot(bytes)),
               std::runtime_error);
}

TEST(ObsMerge, ParseRejectsACountPastThePayload) {
  // An empty snapshot whose counter count (the u64 after the version)
  // reads 2^40: the parser must refuse it before reserving anything.
  std::vector<std::uint8_t> bytes = obs::serialize_snapshot(obs::Snapshot{});
  ASSERT_GE(bytes.size(), 16U);
  for (int b = 0; b < 8; ++b) {
    bytes[8 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>((std::uint64_t{1} << 40) >> (8 * b));
  }
  EXPECT_THROW(static_cast<void>(obs::parse_snapshot(bytes)),
               std::runtime_error);
}

#if HMDIV_OBS
TEST(ObsMerge, MergedWorkerCountsEqualSingleProcessRun) {
  // The shard invariant at the registry level: N workers each tallying a
  // slice under parallel_for, merged into the parent, must equal one
  // process tallying everything. Simulated here with snapshots taken
  // between resets of the global registry.
  ObsGateGuard guard;
  obs::set_enabled(true);
  auto& registry = obs::Registry::global();
  registry.reset();
  constexpr std::size_t kN = 10'000;

  exec::parallel_for(
      kN, 64, [&](std::size_t) { HMDIV_OBS_COUNT("obs.test.sharded", 1); },
      exec::Config{4});
  const obs::Snapshot worker_half = obs::registry_snapshot();
  registry.reset();
  exec::parallel_for(
      kN, 64, [&](std::size_t) { HMDIV_OBS_COUNT("obs.test.sharded", 1); },
      exec::Config{4});
  registry.merge(worker_half);

  EXPECT_EQ(registry.counter("obs.test.sharded").value(), 2 * kN);
}
#endif  // HMDIV_OBS

}  // namespace
}  // namespace hmdiv
