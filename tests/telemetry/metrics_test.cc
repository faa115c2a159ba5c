// Instruments + registry. The static_asserts in metrics.h enforce the
// lock-free/padding contract at compile time; the first tests here restate
// them as runtime EXPECTs so a contract break shows up as a named test
// failure, not just a build error.

#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "telemetry/metrics_registry.h"

namespace smb::telemetry {
namespace {

TEST(MetricsTest, HistogramBucketGeometry) {
  // Bucket 0 is exactly {0}; bucket i covers [2^(i-1), 2^i - 1].
  EXPECT_EQ(HistogramBucketIndex(0), 0u);
  EXPECT_EQ(HistogramBucketIndex(1), 1u);
  EXPECT_EQ(HistogramBucketIndex(2), 2u);
  EXPECT_EQ(HistogramBucketIndex(3), 2u);
  EXPECT_EQ(HistogramBucketIndex(4), 3u);
  EXPECT_EQ(HistogramBucketIndex(UINT64_MAX), kNumHistogramBuckets - 1);

  EXPECT_EQ(HistogramBucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramBucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramBucketUpperBound(2), 3u);
  EXPECT_EQ(HistogramBucketUpperBound(kNumHistogramBuckets - 1),
            kHistogramUnbounded);

  // Every representable value lands in the bucket whose bound covers it.
  for (size_t i = 1; i + 1 < kNumHistogramBuckets; ++i) {
    const uint64_t bound = HistogramBucketUpperBound(i);
    EXPECT_EQ(HistogramBucketIndex(bound), i);
    EXPECT_EQ(HistogramBucketIndex(bound + 1), i + 1);
  }
}

TEST(MetricsTest, InstrumentsAreLockFreeAndCacheLinePadded) {
  EXPECT_TRUE(std::atomic<uint64_t>::is_always_lock_free);
  EXPECT_TRUE(std::atomic<int64_t>::is_always_lock_free);
  EXPECT_EQ(sizeof(Counter), kCacheLineSize);
  EXPECT_EQ(alignof(Counter), kCacheLineSize);
  EXPECT_EQ(sizeof(Gauge), kCacheLineSize);
  EXPECT_EQ(alignof(Gauge), kCacheLineSize);
  EXPECT_EQ(alignof(LatencyHistogram), kCacheLineSize);
  EXPECT_EQ(sizeof(LatencyHistogram) % kCacheLineSize, 0u);
}

TEST(MetricsTest, CounterCountsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(MetricsTest, GaugeSetsAndAdds) {
  Gauge gauge;
  gauge.Set(-7);
  EXPECT_EQ(gauge.Value(), -7);
  gauge.Add(10);
  EXPECT_EQ(gauge.Value(), 3);
}

TEST(MetricsTest, HistogramRecordsIntoLogBuckets) {
  LatencyHistogram histogram;
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(1000);  // bit_width 10
  histogram.Record(1000);
  EXPECT_EQ(histogram.Count(), 4u);
  EXPECT_EQ(histogram.Sum(), 2001u);
  EXPECT_EQ(histogram.BucketCount(0), 1u);
  EXPECT_EQ(histogram.BucketCount(1), 1u);
  EXPECT_EQ(histogram.BucketCount(10), 2u);
  EXPECT_EQ(histogram.BucketCount(kNumHistogramBuckets), 0u);  // OOB safe
}

TEST(MetricsTest, ConcurrentCounterUpdatesAreExact) {
  Counter counter;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests_total");
  Counter* b = registry.GetCounter("requests_total");
  EXPECT_EQ(a, b);
  Counter* labeled =
      registry.GetCounter("requests_total", {{"shard", "1"}});
  EXPECT_NE(a, labeled);
  // Registering more instruments must not move earlier ones.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("churn", {{"i", std::to_string(i)}});
  }
  EXPECT_EQ(registry.GetCounter("requests_total"), a);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("zeta_total")->Add(3);
  registry.GetGauge("alpha")->Set(-5);
  registry.GetHistogram("mid")->Record(9);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.samples.size(), 3u);
  EXPECT_EQ(snapshot.samples[0].name, "alpha");
  EXPECT_EQ(snapshot.samples[0].type, MetricType::kGauge);
  EXPECT_EQ(snapshot.samples[0].gauge_value, -5);
  EXPECT_EQ(snapshot.samples[1].name, "mid");
  EXPECT_EQ(snapshot.samples[1].type, MetricType::kHistogram);
  EXPECT_EQ(snapshot.samples[1].histogram.count, 1u);
  EXPECT_EQ(snapshot.samples[1].histogram.sum, 9u);
  EXPECT_EQ(snapshot.samples[2].name, "zeta_total");
  EXPECT_EQ(snapshot.samples[2].counter_value, 3u);
}

TEST(MetricsRegistryTest, SnapshotOrdersLabelSetsOfOneName) {
  MetricsRegistry registry;
  registry.GetCounter("c", {{"shard", "10"}});
  registry.GetCounter("c", {{"shard", "2"}});
  registry.GetCounter("c");
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.samples.size(), 3u);
  // Unlabeled first, then lexicographic by rendered labels ("10" < "2").
  EXPECT_TRUE(snapshot.samples[0].labels.empty());
  EXPECT_EQ(snapshot.samples[1].labels,
            Labels({{"shard", "10"}}));
  EXPECT_EQ(snapshot.samples[2].labels,
            Labels({{"shard", "2"}}));
}

TEST(MetricsRegistryTest, ResetValuesKeepsRegistrationsAlive) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c_total");
  LatencyHistogram* histogram = registry.GetHistogram("h");
  counter->Add(10);
  histogram->Record(100);
  registry.ResetValues();
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(histogram->Count(), 0u);
  // The same pointers keep counting after the reset.
  counter->Add(2);
  EXPECT_EQ(registry.GetCounter("c_total")->Value(), 2u);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.samples.size(), 2u);
}

}  // namespace
}  // namespace smb::telemetry
