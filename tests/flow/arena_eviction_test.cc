// Memory-governance suite for the arena engine (DESIGN.md §15): the
// nursery tier's promotion invariant, budgeted CLOCK/2Q eviction, the
// recorded/evicted/live accounting identity, and the survivor
// bit-identity contract — a flow the budget never touched
// must report exactly the estimate a never-evicted engine reports, on
// every SIMD kernel, through the sharded and parallel paths, and across
// an FLW1 snapshot/restore taken mid-eviction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <unordered_set>
#include <vector>

#include "flow/arena_smb_engine.h"
#include "flow_test_util.h"
#include "flow/sharded_flow_monitor.h"
#include "parallel/shard_pipeline.h"
#include "simd/simd_dispatch.h"
#include "stream/trace_gen.h"

namespace smb {
namespace {

struct DispatchGuard {
  ~DispatchGuard() { ResetBatchKernelDispatch(); }
};

EstimatorSpec SmbSpec(size_t memory_bits = 2000,
                      uint64_t design_cardinality = 50000) {
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kSmb;
  spec.memory_bits = memory_bits;
  spec.design_cardinality = design_cardinality;
  spec.hash_seed = 99;
  return spec;
}

ArenaSmbEngine::Config TunedConfig(const EstimatorSpec& spec,
                                   const ArenaTuning& tuning) {
  auto config = ArenaSmbEngine::ConfigForSpec(spec);
  EXPECT_TRUE(config.has_value());
  config->tuning = tuning;
  return *config;
}

// Zipf-ish trace: a few hot flows (never cold, so CLOCK keeps them) and
// a long tail of cold one-packet flows that the budget reclaims.
std::vector<Packet> SkewedTrace(size_t num_flows, size_t packets,
                                uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Packet> out;
  out.reserve(packets);
  std::vector<uint64_t> next_element(num_flows, 0);
  for (size_t i = 0; i < packets; ++i) {
    const uint64_t r = rng();
    const uint64_t flow =
        (r % 4 == 0) ? (r >> 8) % num_flows : (r >> 8) % (num_flows / 16 + 1);
    const uint64_t element = (rng() % 3 == 0 && next_element[flow] > 0)
                                 ? rng() % next_element[flow]
                                 : next_element[flow]++;
    out.push_back(Packet{flow, element});
  }
  return out;
}

// Finds evicted flows from the outside. Eviction runs only at batch-block
// boundaries, so recording one block at a time and then diffing the
// live flow set against every flow recorded so far catches each
// eviction, including flows that a later packet re-creates.
class EvictionWatch {
 public:
  template <typename Engine>
  void Record(Engine* engine, std::span<const Packet> packets) {
    for (size_t i = 0; i < packets.size(); i += kBatchBlock) {
      const auto block =
          packets.subspan(i, std::min(kBatchBlock, packets.size() - i));
      engine->RecordBatch(block.data(), block.size());
      for (const Packet& packet : block) seen_.insert(packet.flow);
      std::unordered_set<uint64_t> live;
      engine->ForEachFlow([&](uint64_t flow, double) { live.insert(flow); });
      for (uint64_t flow : seen_) {
        if (live.count(flow) == 0) evicted_.insert(flow);
      }
    }
  }
  bool Evicted(uint64_t flow) const { return evicted_.count(flow) != 0; }
  size_t num_evicted() const { return evicted_.size(); }

 private:
  std::unordered_set<uint64_t> seen_;
  std::unordered_set<uint64_t> evicted_;
};

// A ShardPipeline sink that records each shard through its own
// EvictionWatch. Every shard has one consumer thread, so the per-shard
// watches need no lock.
class WatchedShards {
 public:
  explicit WatchedShards(ShardedFlowMonitor* monitor)
      : monitor_(monitor), watches_(monitor->num_shards()) {}

  using Item = Packet;
  size_t num_shards() const { return monitor_->num_shards(); }
  size_t ShardOf(const Packet& packet) const {
    return monitor_->ShardOf(packet);
  }
  int GateRank(size_t k, const Packet& packet) const {
    return monitor_->GateRank(k, packet);
  }
  void RecordShardRun(size_t k, std::span<const Packet> run) {
    watches_[k].Record(monitor_->shard(k), run);
  }
  bool Evicted(uint64_t flow) const {
    return watches_[monitor_->ShardOf(flow)].Evicted(flow);
  }

 private:
  ShardedFlowMonitor* monitor_;
  std::vector<EvictionWatch> watches_;
};

// ---------------------------------------------------------------------
// Nursery tier
// ---------------------------------------------------------------------

TEST(ArenaNurseryTest, SmallFlowsStayInNurseryUntilCapacity) {
  ArenaTuning tuning;
  tuning.nursery_capacity = 8;
  ArenaSmbEngine engine(TunedConfig(SmbSpec(), tuning));

  // 7 distinct elements: below capacity and (for this spec) below the
  // morph threshold, so the flow must still be nursery-resident.
  for (uint64_t e = 0; e < 7; ++e) engine.Record(42, e);
  ArenaSmbEngine::ArenaStats stats = engine.Stats();
  EXPECT_TRUE(stats.nursery_enabled);
  EXPECT_EQ(stats.nursery_flows, 1u);
  EXPECT_EQ(stats.main_flows, 0u);
  EXPECT_EQ(stats.promoted_flows, 0u);

  // Duplicates never advance the fill, so residency must not change.
  for (uint64_t e = 0; e < 7; ++e) engine.Record(42, e);
  EXPECT_EQ(engine.Stats().nursery_flows, 1u);

  // The 8th distinct element reaches capacity and promotes.
  engine.Record(42, 7);
  stats = engine.Stats();
  EXPECT_EQ(stats.nursery_flows, 0u);
  EXPECT_EQ(stats.main_flows, 1u);
  EXPECT_EQ(stats.promoted_flows, 1u);
}

TEST(ArenaNurseryTest, PromotionPreservesEstimatesExactly) {
  // Every flow estimate with the nursery on equals the nursery-off
  // engine's — across flows that stay nursery, promote on capacity, and
  // promote through a morph.
  ArenaTuning nursery_on;
  nursery_on.nursery_capacity = 8;
  ArenaTuning nursery_off;
  nursery_off.nursery_capacity = 0;
  ArenaSmbEngine tiered(TunedConfig(SmbSpec(), nursery_on));
  ArenaSmbEngine flat(TunedConfig(SmbSpec(), nursery_off));

  // A light tail: most of the 2000 flows see only a couple of packets
  // and stay nursery-resident, while the hot flows morph in the main
  // slab.
  const auto trace = SkewedTrace(2000, 20000, 11);
  tiered.RecordBatch(trace.data(), trace.size());
  flat.RecordBatch(trace.data(), trace.size());

  ASSERT_EQ(tiered.NumFlows(), flat.NumFlows());
  for (uint64_t flow = 0; flow < 2000; ++flow) {
    ASSERT_EQ(tiered.Query(flow), flat.Query(flow)) << "flow " << flow;
  }
  const ArenaSmbEngine::ArenaStats stats = tiered.Stats();
  EXPECT_GT(stats.promoted_flows, 0u);
  EXPECT_GT(stats.nursery_flows, 0u);  // the tail stayed small
}

TEST(ArenaNurseryTest, NurseryDisablesWhenItWouldNotSaveMemory) {
  // The first list class (16 uint16 positions) needs 4 words — no
  // smaller than a 256-bit spec's full stride — so the engine must run
  // flat.
  ArenaTuning tuning;
  tuning.nursery_capacity = 64;
  ArenaSmbEngine engine(TunedConfig(SmbSpec(/*memory_bits=*/256), tuning));
  engine.Record(1, 1);
  const ArenaSmbEngine::ArenaStats stats = engine.Stats();
  EXPECT_FALSE(stats.nursery_enabled);
  EXPECT_EQ(stats.nursery_flows, 0u);
  EXPECT_EQ(stats.main_flows, 1u);
}

TEST(ArenaNurseryTest, NurseryFlowsUseFewerLiveBytesThanMainFlows) {
  ArenaTuning tuning;  // default capacity 16
  ArenaSmbEngine tiered(TunedConfig(SmbSpec(), tuning));
  ArenaTuning off;
  off.nursery_capacity = 0;
  ArenaSmbEngine flat(TunedConfig(SmbSpec(), off));
  for (uint64_t flow = 0; flow < 1000; ++flow) {
    tiered.Record(flow, 1);  // one element: everything stays nursery
    flat.Record(flow, 1);
  }
  EXPECT_EQ(tiered.Stats().nursery_flows, 1000u);
  EXPECT_LT(tiered.LiveBytes(), flat.LiveBytes());
}

// ---------------------------------------------------------------------
// Eviction accounting
// ---------------------------------------------------------------------

// Satellite regression: the resident-memory accounting identity under
// deletion. Every creation adds one live row, every eviction removes
// one, so recorded - evicted == live at any observation point.
TEST(ArenaEvictionTest, RecordedMinusEvictedEqualsLive) {
  ArenaTuning tuning;
  tuning.memory_budget_bytes = 64 * 1024;
  tuning.eviction = ArenaEviction::kClock;
  ArenaSmbEngine engine(TunedConfig(SmbSpec(), tuning));

  const auto trace = SkewedTrace(2000, 40000, 3);
  size_t checked = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    engine.Record(trace[i].flow, trace[i].element);
    if (i % 1000 == 0) {
      const ArenaSmbEngine::ArenaStats stats = engine.Stats();
      ASSERT_EQ(stats.recorded_flows - stats.evicted_flows,
                stats.live_flows)
          << "packet " << i;
      ASSERT_EQ(stats.live_flows, stats.nursery_flows + stats.main_flows);
      ++checked;
    }
  }
  const ArenaSmbEngine::ArenaStats stats = engine.Stats();
  EXPECT_EQ(stats.recorded_flows - stats.evicted_flows, stats.live_flows);
  EXPECT_GT(stats.evicted_flows, 0u);  // the budget actually bit
  EXPECT_GT(checked, 10u);
  EXPECT_EQ(FlowInvariantViolations(), 0u);
}

TEST(ArenaEvictionTest, BudgetIsRespectedAfterEveryBatch) {
  ArenaTuning tuning;
  tuning.memory_budget_bytes = 128 * 1024;
  tuning.eviction = ArenaEviction::kClock;
  ArenaSmbEngine engine(TunedConfig(SmbSpec(), tuning));

  const auto trace = SkewedTrace(3000, 60000, 4);
  size_t offset = 0;
  while (offset < trace.size()) {
    const size_t n = std::min<size_t>(1000, trace.size() - offset);
    engine.RecordBatch(trace.data() + offset, n);
    offset += n;
    ASSERT_LE(engine.LiveBytes(), tuning.memory_budget_bytes)
        << "offset " << offset;
  }
  EXPECT_GT(engine.Stats().evicted_flows, 0u);
  EXPECT_EQ(FlowInvariantViolations(), 0u);
}

TEST(ArenaEvictionTest, NoBudgetOrPolicyOffMeansNoEviction) {
  // budget == 0 disables eviction regardless of policy; kOff disables it
  // regardless of budget.
  ArenaTuning unlimited;
  unlimited.eviction = ArenaEviction::kClock;
  ArenaTuning off;
  off.memory_budget_bytes = 1024;  // absurdly small, but policy off
  off.eviction = ArenaEviction::kOff;
  const auto trace = SkewedTrace(500, 20000, 5);
  for (const ArenaTuning& tuning : {unlimited, off}) {
    ArenaSmbEngine engine(TunedConfig(SmbSpec(), tuning));
    engine.RecordBatch(trace.data(), trace.size());
    EXPECT_EQ(engine.Stats().evicted_flows, 0u);
  }
}

TEST(ArenaEvictionTest, TwoQueuePolicyPrefersNurseryFlows) {
  // With 2Q the nursery tail is reclaimed first, so under sustained
  // pressure the survivors skew toward promoted (main-slab) flows.
  ArenaTuning tuning;
  tuning.memory_budget_bytes = 96 * 1024;
  tuning.eviction = ArenaEviction::k2Q;
  ArenaSmbEngine engine(TunedConfig(SmbSpec(), tuning));
  const auto trace = SkewedTrace(3000, 60000, 6);
  engine.RecordBatch(trace.data(), trace.size());
  const ArenaSmbEngine::ArenaStats stats = engine.Stats();
  EXPECT_GT(stats.evicted_flows, 0u);
  EXPECT_EQ(stats.recorded_flows - stats.evicted_flows, stats.live_flows);
  ASSERT_LE(engine.LiveBytes(), tuning.memory_budget_bytes);
  EXPECT_EQ(FlowInvariantViolations(), 0u);
}

// ---------------------------------------------------------------------
// Survivor bit-identity: eviction must never disturb surviving flows
// ---------------------------------------------------------------------

// Flows the budget never touched must match a never-evicted oracle
// exactly — on every runnable SIMD kernel.
TEST(ArenaEvictionTest, SurvivorsMatchUnevictedOracleOnEveryKernel) {
  DispatchGuard guard;
  const EstimatorSpec spec = SmbSpec();
  const auto trace = SkewedTrace(400, 60000, 8);

  ArenaSmbEngine oracle(TunedConfig(spec, ArenaTuning{}));
  oracle.RecordBatch(trace.data(), trace.size());
  const size_t budget = oracle.LiveBytes() / 3;

  for (BatchKernelKind kind : RunnableBatchKernels()) {
    ForceBatchKernelForTesting(kind);
    ArenaTuning tuning;
    tuning.memory_budget_bytes = budget;
    tuning.eviction = ArenaEviction::kClock;
    ArenaSmbEngine engine(TunedConfig(spec, tuning));
    EvictionWatch watch;
    watch.Record(&engine, trace);

    ASSERT_GT(watch.num_evicted(), 0u) << BatchKernelKindName(kind);
    ASSERT_LE(watch.num_evicted(), engine.Stats().evicted_flows)
        << BatchKernelKindName(kind);
    size_t untouched_survivors = 0;
    engine.ForEachFlow([&](uint64_t flow, double estimate) {
      if (watch.Evicted(flow)) return;  // partial re-creation
      ++untouched_survivors;
      ASSERT_EQ(estimate, oracle.Query(flow))
          << BatchKernelKindName(kind) << " flow " << flow;
    });
    ASSERT_GT(untouched_survivors, 0u) << BatchKernelKindName(kind);
  }
}

TEST(ArenaEvictionTest, ShardedSurvivorsMatchUnevictedOracle) {
  const EstimatorSpec spec = SmbSpec();
  const auto trace = SkewedTrace(400, 50000, 9);
  ArenaSmbEngine oracle(TunedConfig(spec, ArenaTuning{}));
  oracle.RecordBatch(trace.data(), trace.size());

  ArenaTuning tuning;
  tuning.memory_budget_bytes = oracle.LiveBytes() / 2;
  tuning.eviction = ArenaEviction::kClock;
  ShardedFlowMonitor sharded(TunedConfig(spec, tuning), /*num_shards=*/3);
  // One batch block per call hands each shard at most one block, so the
  // watch sees every shard's block boundaries.
  EvictionWatch watch;
  watch.Record(&sharded, trace);

  ASSERT_GT(watch.num_evicted(), 0u);
  ASSERT_LE(watch.num_evicted(), sharded.Stats().evicted_flows);
  size_t untouched_survivors = 0;
  for (size_t k = 0; k < sharded.num_shards(); ++k) {
    sharded.shard(k)->ForEachFlow([&](uint64_t flow, double estimate) {
      if (watch.Evicted(flow)) return;
      ++untouched_survivors;
      ASSERT_EQ(estimate, oracle.Query(flow)) << "flow " << flow;
    });
  }
  ASSERT_GT(untouched_survivors, 0u);
}

TEST(ArenaEvictionTest, ParallelSurvivorsMatchUnevictedOracle) {
  const EstimatorSpec spec = SmbSpec();
  const auto trace = SkewedTrace(400, 50000, 10);
  ArenaSmbEngine oracle(TunedConfig(spec, ArenaTuning{}));
  oracle.RecordBatch(trace.data(), trace.size());

  ArenaTuning tuning;
  tuning.memory_budget_bytes = oracle.LiveBytes() / 2;
  tuning.eviction = ArenaEviction::kClock;
  ShardedFlowMonitor sharded(TunedConfig(spec, tuning), /*num_shards=*/2);
  WatchedShards watched(&sharded);
  ShardPipelineOptions options;
  options.num_producers = 2;
  ShardPipeline<WatchedShards> pipeline(&watched, options);
  const ShardPipelineStats stats = pipeline.Record(trace);
  EXPECT_EQ(stats.items_recorded, trace.size());

  ASSERT_GT(sharded.Stats().evicted_flows, 0u);
  size_t untouched_survivors = 0;
  for (size_t k = 0; k < sharded.num_shards(); ++k) {
    sharded.shard(k)->ForEachFlow([&](uint64_t flow, double estimate) {
      if (watched.Evicted(flow)) return;
      ++untouched_survivors;
      ASSERT_EQ(estimate, oracle.Query(flow)) << "flow " << flow;
    });
  }
  ASSERT_GT(untouched_survivors, 0u);
}

// ---------------------------------------------------------------------
// FLW1 snapshot/restore mid-eviction
// ---------------------------------------------------------------------

TEST(ArenaEvictionTest, SnapshotRoundTripPreservesNurseryResidency) {
  ArenaTuning tuning;  // nursery on, no budget
  ArenaSmbEngine engine(TunedConfig(SmbSpec(), tuning));
  const auto trace = SkewedTrace(300, 30000, 12);
  engine.RecordBatch(trace.data(), trace.size());
  const ArenaSmbEngine::ArenaStats before = engine.Stats();
  ASSERT_GT(before.nursery_flows, 0u);
  ASSERT_GT(before.main_flows, 0u);

  const std::vector<uint8_t> bytes = engine.Serialize();
  auto restored = ArenaSmbEngine::Deserialize(bytes, tuning);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->NumFlows(), engine.NumFlows());
  // Round-0 flows that fit return to the nursery on load.
  EXPECT_EQ(restored->Stats().nursery_flows, before.nursery_flows);
  for (uint64_t flow = 0; flow < 300; ++flow) {
    ASSERT_EQ(restored->Query(flow), engine.Query(flow)) << flow;
  }
}

TEST(ArenaEvictionTest, SnapshotRestoreMidEvictionKeepsSurvivorIdentity) {
  const EstimatorSpec spec = SmbSpec();
  const auto trace = SkewedTrace(400, 60000, 13);
  const size_t half = trace.size() / 2;

  ArenaSmbEngine oracle(TunedConfig(spec, ArenaTuning{}));
  oracle.RecordBatch(trace.data(), trace.size());

  ArenaTuning tuning;
  tuning.memory_budget_bytes = oracle.LiveBytes() / 2;
  tuning.eviction = ArenaEviction::kClock;
  ArenaSmbEngine first(TunedConfig(spec, tuning));
  EvictionWatch watch;
  watch.Record(&first, std::span<const Packet>(trace.data(), half));
  ASSERT_GT(watch.num_evicted(), 0u);  // snapshot lands mid-eviction

  // Freeze, restore with the same budget, and finish the stream in the
  // restored engine — evictions continue there.
  const std::vector<uint8_t> bytes = first.Serialize();
  auto restored = ArenaSmbEngine::Deserialize(bytes, tuning);
  ASSERT_TRUE(restored.has_value());
  watch.Record(&*restored,
               std::span<const Packet>(trace).subspan(half));
  ASSERT_LE(restored->LiveBytes(), tuning.memory_budget_bytes);

  size_t untouched_survivors = 0;
  restored->ForEachFlow([&](uint64_t flow, double estimate) {
    if (watch.Evicted(flow)) return;
    ++untouched_survivors;
    ASSERT_EQ(estimate, oracle.Query(flow)) << "flow " << flow;
  });
  ASSERT_GT(untouched_survivors, 0u);
  EXPECT_EQ(FlowInvariantViolations(), 0u);
}

}  // namespace
}  // namespace smb
