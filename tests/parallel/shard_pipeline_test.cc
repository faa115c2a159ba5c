// Determinism and accuracy of the shard pipeline over the item sink
// (ShardedEstimator); the packet sink's bit-identity suites live in
// tests/flow. These tests are the designated TSan workload for the
// parallel layer: they run real producer/consumer thread fleets through
// the SPSC rings at sizes small enough for sanitizer builds.

#include "parallel/shard_pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "parallel/sharded_estimator.h"
#include "parallel/spsc_ring.h"
#include "telemetry/metrics_registry.h"

namespace smb {
namespace {

ShardedEstimator::Config SmbConfig(size_t num_shards, uint64_t seed) {
  ShardedEstimator::Config config;
  config.shard_spec.kind = EstimatorKind::kSmb;
  config.shard_spec.memory_bits = 5000;
  config.shard_spec.design_cardinality = 100000;
  config.shard_spec.hash_seed = seed;
  config.num_shards = num_shards;
  config.shard_seed = seed + 100;
  return config;
}

std::vector<uint8_t> RecordSequentially(const ShardedEstimator::Config& config,
                                        uint64_t n, uint64_t stream_seed) {
  ShardedEstimator est(config);
  for (uint64_t i = 0; i < n; ++i) est.Add(bench::NthItem(stream_seed, i));
  auto bytes = est.Serialize();
  EXPECT_TRUE(bytes.has_value());
  return *bytes;
}

std::vector<uint64_t> Stream(uint64_t n, uint64_t stream_seed) {
  std::vector<uint64_t> items(n);
  for (uint64_t i = 0; i < n; ++i) items[i] = bench::NthItem(stream_seed, i);
  return items;
}

std::vector<uint8_t> RecordInParallel(const ShardedEstimator::Config& config,
                                      uint64_t n, uint64_t stream_seed,
                                      const ShardPipelineOptions& options) {
  ShardedEstimator est(config);
  ShardPipeline<ShardedEstimator> pipeline(&est, options);
  pipeline.Record(Stream(n, stream_seed));
  auto bytes = est.Serialize();
  EXPECT_TRUE(bytes.has_value());
  return *bytes;
}

TEST(SpscRingTest, PushPopRoundTrips) {
  SpscRingOf<uint64_t> ring(64);
  EXPECT_EQ(ring.capacity(), 64u);
  std::vector<uint64_t> in = {1, 2, 3, 4, 5};
  EXPECT_EQ(ring.TryPush(in), 5u);
  uint64_t out[8] = {};
  EXPECT_EQ(ring.TryPop(out, 8), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(out[i], in[i]);
  EXPECT_EQ(ring.TryPop(out, 8), 0u);
}

TEST(SpscRingTest, RejectsPushesBeyondCapacity) {
  SpscRingOf<uint64_t> ring(4);
  std::vector<uint64_t> batch = {1, 2, 3, 4};
  EXPECT_EQ(ring.TryPush(batch), 4u);
  EXPECT_EQ(ring.TryPush(batch), 0u);
  uint64_t out[4];
  EXPECT_EQ(ring.TryPop(out, 2), 2u);
  EXPECT_EQ(ring.TryPush(batch), 2u);  // partial push into freed space
}

TEST(SpscRingTest, WrapsAroundManyTimes) {
  SpscRingOf<uint64_t> ring(8);
  uint64_t next_in = 0, next_out = 0;
  uint64_t out[3];
  for (int iteration = 0; iteration < 1000; ++iteration) {
    uint64_t in[3] = {next_in, next_in + 1, next_in + 2};
    next_in += ring.TryPush(std::span<const uint64_t>(in, 3));
    const size_t popped = ring.TryPop(out, 3);
    for (size_t i = 0; i < popped; ++i) {
      ASSERT_EQ(out[i], next_out);
      ++next_out;
    }
  }
  for (size_t popped = ring.TryPop(out, 3); popped > 0;
       popped = ring.TryPop(out, 3)) {
    for (size_t i = 0; i < popped; ++i) {
      ASSERT_EQ(out[i], next_out);
      ++next_out;
    }
  }
  EXPECT_GT(next_in, 1000u);  // far more than one lap around an 8-slot ring
  EXPECT_EQ(next_out, next_in);
}

TEST(ParallelRecorderTest, OneProducerMatchesSequentialExactly) {
  const auto config = SmbConfig(4, 1);
  const uint64_t n = 60000;
  ShardPipelineOptions options;
  options.num_producers = 1;
  EXPECT_EQ(RecordInParallel(config, n, 7, options),
            RecordSequentially(config, n, 7));
}

TEST(ParallelRecorderTest, ManyProducersMatchSequentialExactly) {
  // Contiguous range split + producer-order draining replays every
  // shard's items in stream order, so N-producer runs are bit-identical
  // to the single-threaded run.
  const auto config = SmbConfig(4, 2);
  const uint64_t n = 60000;
  const auto reference = RecordSequentially(config, n, 9);
  for (size_t producers : {2u, 4u, 8u}) {
    ShardPipelineOptions options;
    options.num_producers = producers;
    options.ring_capacity = 1 << 10;  // small rings force back-pressure
    EXPECT_EQ(RecordInParallel(config, n, 9, options), reference)
        << "producers=" << producers;
  }
}

// Recording a stream in consecutive Record calls (the CLI's checkpoint
// slicing) equals one sequential pass over the whole stream.
TEST(ParallelRecorderTest, RecordItemsMatchesRecordStream) {
  const auto config = SmbConfig(2, 4);
  const std::vector<uint64_t> items = Stream(20000, 13);
  ShardedEstimator a(config);
  ShardPipelineOptions options;
  options.num_producers = 2;
  ShardPipeline<ShardedEstimator> pipeline(&a, options);
  const std::span<const uint64_t> all(items);
  pipeline.Record(all.first(7000));
  pipeline.Record(all.subspan(7000));
  const auto expected = RecordSequentially(config, 20000, 13);
  EXPECT_EQ(*a.Serialize(), expected);
}

TEST(ParallelRecorderTest, EmptyAndTinyStreams) {
  const auto config = SmbConfig(4, 5);
  ShardedEstimator est(config);
  ShardPipelineOptions options;
  options.num_producers = 8;  // more producers than items
  ShardPipeline<ShardedEstimator> pipeline(&est, options);
  EXPECT_EQ(pipeline.Record({}).items_recorded, 0u);
  EXPECT_DOUBLE_EQ(est.Estimate(), 0.0);
  const std::vector<uint64_t> tiny = {0, 1000, 2000};
  EXPECT_EQ(pipeline.Record(tiny).items_recorded, 3u);
  EXPECT_GT(est.Estimate(), 0.0);
  EXPECT_LT(est.Estimate(), 10.0);
}

TEST(ParallelRecorderTest, ShardedSmbStaysInsidePaperErrorEnvelope) {
  // Paper Fig. 5/6 territory: a 10000-bit (total) SMB budget at n = 10^5
  // keeps relative error within a few percent. Sharding splits the budget
  // across K estimators whose errors are independent, so the summed
  // estimate's relative error concentrates at least as tightly. Average
  // over a few decorrelated runs to keep the test robust yet meaningful.
  const uint64_t n = 100000;
  const size_t runs = 5;
  double sum_abs_rel_err = 0.0;
  for (size_t run = 0; run < runs; ++run) {
    ShardedEstimator::Config config;
    config.shard_spec.kind = EstimatorKind::kSmb;
    config.shard_spec.memory_bits = 10000 / 8;
    config.shard_spec.design_cardinality = n / 4;
    config.shard_spec.hash_seed = 1000 + run;
    config.num_shards = 8;
    ShardedEstimator est(config);
    ShardPipelineOptions options;
    options.num_producers = 4;
    ShardPipeline<ShardedEstimator> pipeline(&est, options);
    pipeline.Record(Stream(n, run * 31 + 17));
    sum_abs_rel_err +=
        std::abs(est.Estimate() - static_cast<double>(n)) / n;
  }
  // Fig. 6's m=10000 envelope is ~5% worst-case at n=10^6 design load;
  // at n=10^5 the mean absolute relative error stays well inside it.
  EXPECT_LT(sum_abs_rel_err / runs, 0.05);
}

// Telemetry under real producer/consumer fleets (this file is the TSan
// workload, so this also proves the instruments race-free in anger):
// per-shard routing counters must account for every item exactly once.
TEST(ParallelRecorderTest, TelemetryAccountsForEveryRoutedItem) {
  auto& registry = telemetry::MetricsRegistry::Global();
  const uint64_t n = 20000;
  const size_t num_shards = 4;
  std::vector<uint64_t> routed0(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    routed0[k] = registry
                     .GetCounter("recorder_items_routed_total",
                                 {{"shard", std::to_string(k)}})
                     ->Value();
  }
  const uint64_t batches0 =
      registry.GetHistogram("recorder_batch_items")->Count();
  const uint64_t drains0 =
      registry.GetHistogram("recorder_add_batch_ns")->Count();

  ShardedEstimator est(SmbConfig(num_shards, /*seed=*/5));
  ShardPipelineOptions options;
  options.num_producers = 3;
  ShardPipeline<ShardedEstimator> pipeline(&est, options);
  pipeline.Record(Stream(n, 77));

  uint64_t routed_delta = 0;
  for (size_t k = 0; k < num_shards; ++k) {
    routed_delta += registry
                        .GetCounter("recorder_items_routed_total",
                                    {{"shard", std::to_string(k)}})
                        ->Value() -
                    routed0[k];
  }
  EXPECT_EQ(routed_delta, n);
  // Every hand-off batch and every drain chunk left a histogram mark.
  EXPECT_GT(registry.GetHistogram("recorder_batch_items")->Count(), batches0);
  EXPECT_GT(registry.GetHistogram("recorder_add_batch_ns")->Count(), drains0);
  // The pipeline published a fresh skew reading; a perfectly uniform split
  // reads 1000, so anything at or above that is a sane value.
  EXPECT_GE(registry.GetGauge("sharded_shard_skew_permille")->Value(), 1000);
}

}  // namespace
}  // namespace smb
