// The arena-vs-legacy equivalence suite — the contract that makes the
// arena engine a drop-in replacement: for the same spec and packet
// stream, every per-flow estimate it reports is bit-identical to the
// legacy unordered_map-of-SelfMorphingBitmap engine, across morphs,
// flow-table rehashes, every runnable SIMD kernel variant, and the
// sharded/parallel recording paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "core/self_morphing_bitmap.h"
#include "flow/arena_smb_engine.h"
#include "flow/sharded_flow_monitor.h"
#include "hash/murmur3.h"
#include "parallel/shard_pipeline.h"
#include "simd/simd_dispatch.h"
#include "sketch/per_flow_monitor.h"
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

// A stream that pushes many flows through several morphs (small m, deep
// per-flow cardinality) while the arena's flow table doubles repeatedly.
std::vector<Packet> MorphingTrace(size_t num_flows, size_t packets,
                                  uint64_t seed) {
  std::mt19937_64 rng(seed);
  // Zipf-ish skew: a few flows get most packets and morph several times.
  std::vector<Packet> out;
  out.reserve(packets);
  std::vector<uint64_t> next_element(num_flows, 0);
  for (size_t i = 0; i < packets; ++i) {
    const uint64_t r = rng();
    const uint64_t flow =
        (r % 4 == 0) ? (r >> 8) % num_flows : (r >> 8) % (num_flows / 16 + 1);
    // ~1/3 duplicates, 2/3 fresh elements.
    const uint64_t element = (rng() % 3 == 0 && next_element[flow] > 0)
                                 ? rng() % next_element[flow]
                                 : next_element[flow]++;
    out.push_back(Packet{flow, element});
  }
  return out;
}

void ExpectAllQueriesIdentical(const PerFlowMonitor& legacy,
                               const ArenaSmbEngine& arena,
                               size_t num_flows, const char* context) {
  ASSERT_EQ(legacy.NumFlows(), arena.NumFlows()) << context;
  for (uint64_t flow = 0; flow < num_flows; ++flow) {
    ASSERT_EQ(legacy.Query(flow), arena.Query(flow))
        << context << " flow " << flow;
  }
}

TEST(ArenaEquivalenceTest, ScalarRecordMatchesLegacyAcrossMorphs) {
  const EstimatorSpec spec = SmbSpec();
  const auto config = ArenaSmbEngine::ConfigForSpec(spec);
  ASSERT_TRUE(config.has_value());
  PerFlowMonitor legacy(spec, PerFlowMonitor::Engine::kLegacyMap);
  ArenaSmbEngine arena(*config);

  const auto trace = MorphingTrace(500, 120000, 1);
  for (const Packet& p : trace) {
    legacy.Record(p.flow, p.element);
    arena.Record(p.flow, p.element);
  }
  ExpectAllQueriesIdentical(legacy, arena, 500, "scalar");
  // The deep flows must actually have morphed for this test to bite.
  bool any_morphed = false;
  for (uint64_t flow = 0; flow < 500; ++flow) {
    const auto state = arena.Inspect(flow);
    if (state && state->round >= 2) any_morphed = true;
  }
  EXPECT_TRUE(any_morphed);
}

// Per-flow state equality against a directly-driven SelfMorphingBitmap:
// not just the estimate, the full (r, v, bitmap) triple.
TEST(ArenaEquivalenceTest, InternalStateMatchesSelfMorphingBitmap) {
  const auto config = ArenaSmbEngine::ConfigForSpec(SmbSpec());
  ASSERT_TRUE(config.has_value());
  ArenaSmbEngine arena(*config);

  const uint64_t flow = 77;
  SelfMorphingBitmap::Config smb_config;
  smb_config.num_bits = config->num_bits;
  smb_config.threshold = config->threshold;
  smb_config.hash_seed = Murmur3Fmix64(config->base_seed ^ flow);
  SelfMorphingBitmap reference(smb_config);

  for (uint64_t e = 0; e < 30000; ++e) {
    arena.Record(flow, e);
    reference.Add(e);
  }
  const auto state = arena.Inspect(flow);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->round, reference.round());
  EXPECT_EQ(state->ones_in_round, reference.ones_in_round());
  EXPECT_GE(state->round, 2u);  // the stream crossed several morphs
  EXPECT_EQ(arena.Query(flow), reference.Estimate());
}

TEST(ArenaEquivalenceTest, RecordBatchMatchesLegacyForEveryKernel) {
  DispatchGuard guard;
  const EstimatorSpec spec = SmbSpec();
  const auto config = ArenaSmbEngine::ConfigForSpec(spec);
  ASSERT_TRUE(config.has_value());

  const auto trace = MorphingTrace(300, 60000, 2);
  PerFlowMonitor legacy(spec, PerFlowMonitor::Engine::kLegacyMap);
  for (const Packet& p : trace) legacy.Record(p.flow, p.element);

  for (BatchKernelKind kind : RunnableBatchKernels()) {
    ForceBatchKernelForTesting(kind);
    ArenaSmbEngine arena(*config);
    // Ragged batch sizes so block boundaries land everywhere, including
    // mid-kBatchBlock and single-packet batches.
    size_t i = 0;
    const size_t batch_sizes[] = {1, 7, 64, 255, 256, 257, 1000};
    size_t b = 0;
    while (i < trace.size()) {
      const size_t n = std::min(batch_sizes[b++ % 7], trace.size() - i);
      arena.RecordBatch(trace.data() + i, n);
      i += n;
    }
    ExpectAllQueriesIdentical(legacy, arena, 300,
                              BatchKernelKindName(kind).data());
  }
}

// Duplicate flows inside one block must see each other's probes and
// morphs exactly as a sequential loop: a single hot flow occupying every
// lane of a block is the hardest case for the gate-compaction stage.
TEST(ArenaEquivalenceTest, SingleHotFlowBlocksMatchScalar) {
  const auto config = ArenaSmbEngine::ConfigForSpec(SmbSpec(1000, 100000));
  ASSERT_TRUE(config.has_value());
  ArenaSmbEngine batched(*config);
  ArenaSmbEngine sequential(*config);

  std::vector<Packet> block(4096);
  for (size_t i = 0; i < block.size(); ++i) {
    block[i] = Packet{5, uint64_t(i)};
  }
  batched.RecordBatch(block.data(), block.size());
  for (const Packet& p : block) sequential.Record(p.flow, p.element);

  const auto sb = batched.Inspect(5);
  const auto ss = sequential.Inspect(5);
  ASSERT_TRUE(sb && ss);
  EXPECT_EQ(sb->round, ss->round);
  EXPECT_EQ(sb->ones_in_round, ss->ones_in_round);
  EXPECT_GE(sb->round, 1u);  // morphed inside the batched blocks
  EXPECT_EQ(batched.Query(5), sequential.Query(5));
}

TEST(ArenaEquivalenceTest, ShardedMonitorMatchesSingleEngine) {
  const auto config = ArenaSmbEngine::ConfigForSpec(SmbSpec());
  ASSERT_TRUE(config.has_value());
  const auto trace = MorphingTrace(400, 50000, 3);

  ArenaSmbEngine single(*config);
  single.RecordBatch(trace.data(), trace.size());

  for (size_t shards : {1u, 2u, 3u, 8u}) {
    ShardedFlowMonitor sharded(*config, shards);
    sharded.RecordBatch(trace.data(), trace.size());
    ASSERT_EQ(sharded.NumFlows(), single.NumFlows()) << shards;
    for (uint64_t flow = 0; flow < 400; ++flow) {
      ASSERT_EQ(sharded.Query(flow), single.Query(flow))
          << shards << " shards, flow " << flow;
    }
  }
}

TEST(ArenaEquivalenceTest, ParallelRecorderMatchesSingleThread) {
  const auto config = ArenaSmbEngine::ConfigForSpec(SmbSpec());
  ASSERT_TRUE(config.has_value());
  const auto trace = MorphingTrace(400, 80000, 4);

  ArenaSmbEngine single(*config);
  single.RecordBatch(trace.data(), trace.size());

  for (size_t producers : {1u, 2u, 4u}) {
    for (size_t shards : {1u, 3u}) {
      ShardedFlowMonitor sharded(*config, shards);
      ShardPipelineOptions options;
      options.num_producers = producers;
      options.ring_capacity = 1 << 10;  // small rings: exercise stalls
      ShardPipeline<ShardedFlowMonitor> pipeline(&sharded, options);
      const ShardPipelineStats stats = pipeline.Record(trace);
      EXPECT_EQ(stats.items_recorded, trace.size());
      ASSERT_EQ(sharded.NumFlows(), single.NumFlows())
          << producers << "p/" << shards << "s";
      for (uint64_t flow = 0; flow < 400; ++flow) {
        ASSERT_EQ(sharded.Query(flow), single.Query(flow))
            << producers << "p/" << shards << "s flow " << flow;
      }
    }
  }
}

TEST(ArenaEquivalenceTest, FlowsOverAgreesBetweenEngines) {
  const EstimatorSpec spec = SmbSpec();
  const auto config = ArenaSmbEngine::ConfigForSpec(spec);
  ASSERT_TRUE(config.has_value());
  PerFlowMonitor legacy(spec, PerFlowMonitor::Engine::kLegacyMap);
  ArenaSmbEngine arena(*config);
  const auto trace = MorphingTrace(200, 40000, 5);
  for (const Packet& p : trace) {
    legacy.Record(p.flow, p.element);
    arena.Record(p.flow, p.element);
  }
  for (double threshold : {1.0, 50.0, 500.0, 5000.0}) {
    auto a = legacy.FlowsOver(threshold);
    auto b = arena.FlowsOver(threshold);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "threshold " << threshold;
  }
}

TEST(ArenaEquivalenceTest, PerFlowMonitorEnginesAgreeEndToEnd) {
  // The public wrapper with kAuto (arena) vs kLegacyMap, batch vs scalar:
  // four recordings of one trace, one answer.
  const EstimatorSpec spec = SmbSpec();
  const auto trace = MorphingTrace(256, 50000, 6);

  PerFlowMonitor arena_batch(spec);
  ASSERT_EQ(arena_batch.engine(), PerFlowMonitor::Engine::kArena);
  PerFlowMonitor arena_scalar(spec, PerFlowMonitor::Engine::kArena);
  PerFlowMonitor legacy_batch(spec, PerFlowMonitor::Engine::kLegacyMap);
  PerFlowMonitor legacy_scalar(spec, PerFlowMonitor::Engine::kLegacyMap);

  arena_batch.RecordBatch(trace);
  legacy_batch.RecordBatch(trace);
  for (const Packet& p : trace) {
    arena_scalar.Record(p.flow, p.element);
    legacy_scalar.Record(p.flow, p.element);
  }
  for (uint64_t flow = 0; flow < 256; ++flow) {
    const double want = legacy_scalar.Query(flow);
    ASSERT_EQ(arena_batch.Query(flow), want) << flow;
    ASSERT_EQ(arena_scalar.Query(flow), want) << flow;
    ASSERT_EQ(legacy_batch.Query(flow), want) << flow;
  }
}

}  // namespace
}  // namespace smb
