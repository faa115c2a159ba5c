// Overload policies, driven deterministically: PushWithOverloadPolicy is
// exercised against a hand-controlled ring (stalled, absent, or delayed
// consumer), then each policy runs through the full shard pipeline, over
// both sinks (items and packets), to pin the ShardPipelineStats
// accounting invariants.

#include "parallel/overload_policy.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/self_morphing_bitmap.h"
#include "flow/arena_smb_engine.h"
#include "flow/sharded_flow_monitor.h"
#include "hash/geometric.h"
#include "hash/murmur3.h"
#include "parallel/shard_pipeline.h"
#include "parallel/sharded_estimator.h"
#include "parallel/spsc_ring.h"

namespace smb {
namespace {

constexpr uint64_t kSeed = 0xfeedbeef;

int ItemRank(uint64_t item) {
  return GeometricRank(ItemHash128(item, kSeed).hi);
}

bool PassesGate(uint64_t item) { return ItemRank(item) >= kDegradeLevel; }

// Items on either side of the degrade gate, found by scanning keys (the
// gate keeps a 2^-kDegradeLevel fraction, so both searches terminate
// fast).
std::vector<uint64_t> ItemsWithGate(bool pass, size_t count) {
  std::vector<uint64_t> items;
  for (uint64_t key = 1; items.size() < count; ++key) {
    if (PassesGate(key) == pass) items.push_back(key);
  }
  return items;
}

OverloadParams DegradeParams() {
  OverloadParams params;
  params.policy = OverloadPolicy::kDegradeToSample;
  return params;
}

TEST(OverloadPolicyTest, BlockDeliversEverythingInOrder) {
  std::vector<uint64_t> items(64);
  for (size_t i = 0; i < items.size(); ++i) items[i] = i + 1;

  // Delivery must be lossless and ordered on every schedule; the
  // back-pressure counter additionally needs the producer to actually hit
  // a full ring, which a 1 ms consumer head start makes near-certain but
  // an adversarial scheduler can avoid — hence the retry loop.
  OverloadParams params;  // kBlock default
  OverloadCounters counters;
  for (int attempt = 0; attempt < 50 && counters.ring_full_retries == 0;
       ++attempt) {
    counters = OverloadCounters{};
    SpscRingOf<uint64_t> ring(8);
    std::vector<uint64_t> run = items;
    std::vector<uint64_t> drained;
    std::thread consumer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      uint64_t out[4];
      while (drained.size() < items.size()) {
        const size_t n = ring.TryPop(out, 4);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        drained.insert(drained.end(), out, out + n);
      }
    });
    const size_t pushed =
        PushWithOverloadPolicy(&ring, &run, params, ItemRank, &counters);
    consumer.join();

    EXPECT_EQ(pushed, items.size());
    EXPECT_EQ(drained, items);
    EXPECT_EQ(counters.items_dropped, 0u);
    EXPECT_EQ(counters.degrade_events, 0u);
  }
  EXPECT_GT(counters.ring_full_retries, 0u)
      << "the producer never saw a full ring in 50 runs";
}

TEST(OverloadPolicyTest, DropAbandonsTheUndeliveredTail) {
  // No consumer at all: the ring fills at exactly its capacity and the
  // policy must abandon the rest — fully deterministic, no threads.
  SpscRingOf<uint64_t> ring(8);
  OverloadParams params;
  params.policy = OverloadPolicy::kDropWithCount;
  OverloadCounters counters;
  std::vector<uint64_t> run(32);
  for (size_t i = 0; i < run.size(); ++i) run[i] = 100 + i;

  const size_t pushed =
      PushWithOverloadPolicy(&ring, &run, params, ItemRank, &counters);

  EXPECT_EQ(pushed, 8u);
  EXPECT_EQ(counters.items_dropped, 24u);
  EXPECT_EQ(run.size(), 8u);  // the run reflects what was delivered
  EXPECT_GE(counters.ring_full_retries, params.give_up_rounds);
  // The wait phases never reached the sleep escalation.
  uint64_t out[8];
  EXPECT_EQ(ring.TryPop(out, 8), 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], 100 + i);
}

TEST(OverloadPolicyTest, DegradeThinsTheTailThroughTheGeometricGate) {
  // Head: 8 items that fill the ring. Tail: 24 items that all fail the
  // gate, so the thinning removes every one of them and the call returns
  // without needing a consumer — deterministic single-threaded coverage
  // of the degrade branch.
  SpscRingOf<uint64_t> ring(8);
  OverloadCounters counters;
  std::vector<uint64_t> run = ItemsWithGate(true, 8);
  const auto tail = ItemsWithGate(false, 24);
  run.insert(run.end(), tail.begin(), tail.end());

  const size_t pushed = PushWithOverloadPolicy(&ring, &run, DegradeParams(),
                                               ItemRank, &counters);

  EXPECT_EQ(pushed, 8u);
  EXPECT_EQ(counters.items_dropped, 24u);
  EXPECT_EQ(counters.degrade_events, 1u);
  EXPECT_EQ(run.size(), 8u);
}

TEST(OverloadPolicyTest, DegradeKeepsExactlyTheGateSurvivors) {
  std::vector<uint64_t> items(256);
  for (size_t i = 0; i < items.size(); ++i) items[i] = i * 2654435761u + 17;

  // A give-up budget below spin_limit keeps the whole wait in the tight
  // spin phase: the gate engages within one scheduling quantum of the
  // producer seeing a full ring, with no yield window for a loaded box to
  // wake the consumer in. The default 128-round budget is pinned by
  // DegradeThinsTheTailThroughTheGeometricGate; this test targets what
  // survives. Retry regardless: the consumer could in principle drain in
  // lockstep and keep the ring from ever reporting full.
  OverloadParams params = DegradeParams();
  params.give_up_rounds = 4;
  OverloadCounters counters;
  std::vector<uint64_t> drained;
  for (int attempt = 0; attempt < 50 && counters.degrade_events == 0;
       ++attempt) {
    counters = OverloadCounters{};
    drained.clear();
    std::vector<uint64_t> run = items;
    SpscRingOf<uint64_t> ring(8);
    std::atomic<bool> done{false};
    std::thread consumer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      uint64_t out[16];
      while (!done.load(std::memory_order_acquire)) {
        const size_t n = ring.TryPop(out, 16);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        drained.insert(drained.end(), out, out + n);
      }
      for (size_t n = ring.TryPop(out, 16); n > 0; n = ring.TryPop(out, 16)) {
        drained.insert(drained.end(), out, out + n);
      }
    });
    const size_t pushed =
        PushWithOverloadPolicy(&ring, &run, params, ItemRank, &counters);
    done.store(true, std::memory_order_release);
    consumer.join();
    EXPECT_EQ(pushed, drained.size());
    EXPECT_EQ(counters.items_dropped, items.size() - drained.size());
  }
  ASSERT_EQ(counters.degrade_events, 1u) << "gate never engaged in 50 runs";
  EXPECT_GT(counters.items_dropped, 0u);

  // The schedule picks where the gate engaged, but whatever that point
  // was, delivery must be: that prefix verbatim, then exactly the gate
  // survivors of the rest, order preserved throughout.
  bool matched = false;
  for (size_t k = 0; !matched && k <= items.size(); ++k) {
    std::vector<uint64_t> expected(items.begin(),
                                   items.begin() + static_cast<long>(k));
    for (size_t i = k; i < items.size(); ++i) {
      if (PassesGate(items[i])) expected.push_back(items[i]);
    }
    matched = drained == expected;
  }
  EXPECT_TRUE(matched)
      << "delivered items are not prefix + exact gate survivors";
}

// ---- Recorder-level accounting invariants, over both sinks -----------

ShardedEstimator::Config SmbConfig(size_t num_shards) {
  ShardedEstimator::Config config;
  config.shard_spec.kind = EstimatorKind::kSmb;
  config.shard_spec.memory_bits = 5000;
  config.shard_spec.design_cardinality = 100000;
  config.shard_spec.hash_seed = 7;
  config.num_shards = num_shards;
  config.shard_seed = 107;
  return config;
}

ArenaSmbEngine::Config FlowConfig(uint64_t design_cardinality = 4000) {
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kSmb;
  spec.memory_bits = 2000;
  spec.design_cardinality = design_cardinality;
  spec.hash_seed = 7;
  return *ArenaSmbEngine::ConfigForSpec(spec);
}

std::vector<uint64_t> Items(uint64_t n) {
  std::vector<uint64_t> items(n);
  for (uint64_t i = 0; i < n; ++i) items[i] = i * 0x9E3779B97F4A7C15ull + 1;
  return items;
}

// 300 flows, distinct elements, a few heavy flows that morph.
std::vector<Packet> Packets(uint64_t n) {
  std::vector<Packet> packets(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t flow = (i % 4 == 0) ? Murmur3Fmix64(i) % 300 : i % 7;
    packets[i] = {flow, i * 0x9E3779B97F4A7C15ull + 1};
  }
  return packets;
}

template <typename Sink>
ShardPipelineStats RecordWithPolicy(
    Sink* sink, std::span<const typename Sink::Item> items,
    OverloadPolicy policy) {
  ShardPipelineOptions options;
  options.num_producers = 2;
  options.ring_capacity = 64;  // tiny rings to provoke back-pressure
  options.overload_policy = policy;
  return ShardPipeline<Sink>(sink, options).Record(items);
}

TEST(OverloadPolicyTest, RecorderBlockPolicyLosesNothing) {
  ShardedEstimator estimator(SmbConfig(4));
  const ShardPipelineStats stats =
      RecordWithPolicy(&estimator, Items(50000), OverloadPolicy::kBlock);
  EXPECT_EQ(stats.items_recorded, 50000u);
  EXPECT_EQ(stats.items_dropped, 0u);
  EXPECT_EQ(stats.degrade_events, 0u);
  EXPECT_NEAR(estimator.Estimate(), 50000.0, 50000.0 * 0.15);

  // The packet sink loses nothing either, and every shard ends
  // bit-identical to the single-threaded sharded pass.
  const std::vector<Packet> packets = Packets(50000);
  ShardedFlowMonitor monitor(FlowConfig(), 3);
  const ShardPipelineStats flow_stats =
      RecordWithPolicy(&monitor, packets, OverloadPolicy::kBlock);
  EXPECT_EQ(flow_stats.items_recorded, packets.size());
  EXPECT_EQ(flow_stats.items_dropped, 0u);
  ShardedFlowMonitor reference(FlowConfig(), 3);
  reference.RecordBatch(packets.data(), packets.size());
  for (size_t k = 0; k < monitor.num_shards(); ++k) {
    EXPECT_EQ(monitor.shard(k)->Serialize(), reference.shard(k)->Serialize())
        << "shard " << k;
  }
}

TEST(OverloadPolicyTest, RecorderDropPolicyAccountsForEveryItem) {
  // Drops depend on scheduling, but the books must balance exactly.
  ShardedEstimator estimator(SmbConfig(4));
  const ShardPipelineStats stats = RecordWithPolicy(
      &estimator, Items(50000), OverloadPolicy::kDropWithCount);
  EXPECT_EQ(stats.items_recorded + stats.items_dropped, 50000u);
  EXPECT_GT(estimator.Estimate(), 0.0);

  ShardedFlowMonitor monitor(FlowConfig(), 3);
  const ShardPipelineStats flow_stats = RecordWithPolicy(
      &monitor, Packets(50000), OverloadPolicy::kDropWithCount);
  EXPECT_EQ(flow_stats.items_recorded + flow_stats.items_dropped, 50000u);
  EXPECT_GT(monitor.NumFlows(), 0u);
}

TEST(OverloadPolicyTest, RecorderDegradePolicyAccountsForEveryItem) {
  ShardedEstimator estimator(SmbConfig(4));
  const ShardPipelineStats stats = RecordWithPolicy(
      &estimator, Items(50000), OverloadPolicy::kDegradeToSample);
  EXPECT_EQ(stats.items_recorded + stats.items_dropped, 50000u);
  if (stats.items_dropped > 0) {
    EXPECT_GT(stats.degrade_events, 0u);
  }
  EXPECT_GT(estimator.Estimate(), 0.0);

  ShardedFlowMonitor monitor(FlowConfig(), 3);
  const ShardPipelineStats flow_stats = RecordWithPolicy(
      &monitor, Packets(50000), OverloadPolicy::kDegradeToSample);
  EXPECT_EQ(flow_stats.items_recorded + flow_stats.items_dropped, 50000u);
  if (flow_stats.items_dropped > 0) {
    EXPECT_GT(flow_stats.degrade_events, 0u);
  }
  EXPECT_GT(monitor.NumFlows(), 0u);
}

// The degrade gate thins by the sink's GateRank, so that must be the rank
// the destination's own sampling gate computes: once a sketch is in round
// r, every item with GateRank < r leaves its state untouched.
TEST(OverloadPolicyTest, GateRankIsTheSinksOwnSamplingGate) {
  constexpr uint64_t kFresh = uint64_t{1} << 40;  // never recorded before
  ShardedEstimator estimator(SmbConfig(1));
  estimator.AddBatch(Items(200000));
  const auto* smb =
      dynamic_cast<const SelfMorphingBitmap*>(estimator.shard(0));
  ASSERT_NE(smb, nullptr);
  const int round = static_cast<int>(smb->round());
  ASSERT_GE(round, 2);
  const std::vector<uint8_t> before = *estimator.Serialize();
  size_t offered = 0;
  for (uint64_t item = kFresh; offered < 1000; ++item) {
    if (estimator.GateRank(0, item) >= round) continue;
    estimator.Add(item);
    ++offered;
  }
  EXPECT_EQ(*estimator.Serialize(), before);

  ShardedFlowMonitor monitor(FlowConfig(/*design_cardinality=*/100000), 2);
  constexpr uint64_t kFlow = 42;
  for (uint64_t e = 0; e < 20000; ++e) monitor.Record(kFlow, e);
  const size_t k = monitor.ShardOf(kFlow);
  const int flow_round =
      static_cast<int>(monitor.shard(k)->Inspect(kFlow)->round);
  ASSERT_GE(flow_round, 2);
  const std::vector<uint8_t> flow_before = monitor.shard(k)->Serialize();
  offered = 0;
  for (uint64_t e = kFresh; offered < 1000; ++e) {
    if (monitor.GateRank(k, Packet{kFlow, e}) >= flow_round) continue;
    monitor.Record(kFlow, e);
    ++offered;
  }
  EXPECT_EQ(monitor.shard(k)->Serialize(), flow_before);
}

// The packet sink behind consumers that stall on their first run, so the
// producers find full rings and the degrade gate engages. Keeps every
// packet that reached the monitor.
class StallingFlowSink {
 public:
  using Item = Packet;

  explicit StallingFlowSink(ShardedFlowMonitor* monitor)
      : monitor_(monitor), stalled_(monitor->num_shards(), 0) {}

  size_t num_shards() const { return monitor_->num_shards(); }
  size_t ShardOf(const Packet& packet) const {
    return monitor_->ShardOf(packet);
  }
  int GateRank(size_t k, const Packet& packet) const {
    return monitor_->GateRank(k, packet);
  }
  void RecordShardRun(size_t k, std::span<const Packet> run) {
    if (stalled_[k] == 0) {  // shard k's consumer is the only writer
      stalled_[k] = 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      recorded_.insert(recorded_.end(), run.begin(), run.end());
    }
    monitor_->RecordShardRun(k, run);
  }

  const std::vector<Packet>& recorded() const { return recorded_; }

 private:
  ShardedFlowMonitor* monitor_;
  std::vector<char> stalled_;
  std::mutex mutex_;
  std::vector<Packet> recorded_;
};

TEST(OverloadPolicyTest, RecorderDegradeDropsOnlyLowRankPackets) {
  const std::vector<Packet> packets = Packets(20000);
  ShardPipelineStats stats;
  std::vector<Packet> recorded;
  for (int attempt = 0; attempt < 20 && stats.degrade_events == 0;
       ++attempt) {
    ShardedFlowMonitor monitor(FlowConfig(), 2);
    StallingFlowSink sink(&monitor);
    stats =
        RecordWithPolicy(&sink, packets, OverloadPolicy::kDegradeToSample);
    recorded = sink.recorded();
    EXPECT_EQ(stats.items_recorded + stats.items_dropped, packets.size());
    EXPECT_EQ(recorded.size(), stats.items_recorded);
  }
  ASSERT_GT(stats.degrade_events, 0u) << "gate never engaged in 20 runs";
  ASSERT_GT(stats.items_dropped, 0u);

  // Every packet that never reached the monitor was thinned by the
  // degrade gate: its per-flow gate rank is below the level.
  std::map<std::pair<uint64_t, uint64_t>, int64_t> missing;
  for (const Packet& p : packets) ++missing[{p.flow, p.element}];
  for (const Packet& p : recorded) --missing[{p.flow, p.element}];
  const ArenaSmbEngine ranker(FlowConfig());  // GateRank needs no state
  uint64_t dropped = 0;
  for (const auto& [key, count] : missing) {
    ASSERT_GE(count, 0) << "flow " << key.first << " recorded twice";
    if (count == 0) continue;
    dropped += static_cast<uint64_t>(count);
    EXPECT_LT(ranker.GateRank(key.first, key.second), kDegradeLevel)
        << "flow " << key.first << " element " << key.second;
  }
  EXPECT_EQ(dropped, stats.items_dropped);
}

}  // namespace
}  // namespace smb
