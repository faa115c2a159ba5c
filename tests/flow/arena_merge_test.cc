// ArenaSmbEngine::MergeFrom and the PerFlowMonitor merge surface: the
// arena's per-flow replay merge must be bit-identical to merging the
// flows' standalone SMB snapshots (same salt derivation), FLW1 snapshots
// from different processes must merge after load, and the legacy map
// engine must agree with the arena flow for flow. QueryMerged, the
// one-flow fold behind merged point queries, must answer exactly what a
// MergeFrom-built engine's Query answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/self_morphing_bitmap.h"
#include "flow/arena_smb_engine.h"
#include "flow_test_util.h"
#include "sketch/per_flow_monitor.h"

namespace smb {
namespace {

ArenaSmbEngine::Config EngineConfig() {
  ArenaSmbEngine::Config config;
  config.num_bits = 2000;
  config.threshold = 230;
  config.base_seed = 91;
  return config;
}

EstimatorSpec MonitorSpec() {
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kSmb;
  spec.memory_bits = 2000;
  spec.design_cardinality = 1000000;
  spec.hash_seed = 91;
  return spec;
}

// Feeds `flows` flows with per-flow item counts cycling over `counts`.
void Feed(ArenaSmbEngine* engine, uint64_t flows,
          const std::vector<uint64_t>& counts, uint64_t item_base) {
  for (uint64_t flow = 0; flow < flows; ++flow) {
    const uint64_t n = counts[flow % counts.size()];
    for (uint64_t i = 0; i < n; ++i) {
      engine->Record(flow, item_base + i);
    }
  }
}

TEST(ArenaMergeTest, CanMergeWithRequiresIdenticalConfig) {
  ArenaSmbEngine a(EngineConfig());
  ArenaSmbEngine same(EngineConfig());
  EXPECT_TRUE(a.CanMergeWith(same));
  auto bits = EngineConfig();
  bits.num_bits = 4000;
  EXPECT_FALSE(a.CanMergeWith(ArenaSmbEngine(bits)));
  auto threshold = EngineConfig();
  threshold.threshold = 100;
  EXPECT_FALSE(a.CanMergeWith(ArenaSmbEngine(threshold)));
  auto seed = EngineConfig();
  seed.base_seed = 17;
  EXPECT_FALSE(a.CanMergeWith(ArenaSmbEngine(seed)));
}

// A flow's (round, fill, words), copied out of Inspect's scratch.
std::optional<std::tuple<size_t, size_t, std::vector<uint64_t>>> StateOf(
    const ArenaSmbEngine& engine, uint64_t flow) {
  const auto state = engine.Inspect(flow);
  if (!state.has_value()) return std::nullopt;
  return std::make_tuple(
      state->round, state->ones_in_round,
      std::vector<uint64_t>(state->words.begin(), state->words.end()));
}

// Flow 2 adopted into an engine holding only flow 1, then every kind
// of source row into destinations of every tuning.
TEST(ArenaMergeTest, DisjointFlowsAreAdoptedVerbatim) {
  ArenaSmbEngine a(EngineConfig());
  ArenaSmbEngine b(EngineConfig());
  for (uint64_t i = 0; i < 3000; ++i) a.Record(1, i);
  for (uint64_t i = 0; i < 7000; ++i) b.Record(2, i);
  const double b_estimate = b.Query(2);
  a.MergeFrom(b);
  EXPECT_EQ(a.NumFlows(), 2u);
  EXPECT_DOUBLE_EQ(a.Query(2), b_estimate);
  // Flow 2's full state (not just the estimate) must match.
  const auto adopted = a.Inspect(2);
  const auto original = b.Inspect(2);
  ASSERT_TRUE(adopted.has_value());
  ASSERT_TRUE(original.has_value());
  EXPECT_EQ(adopted->round, original->round);
  EXPECT_EQ(adopted->ones_in_round, original->ones_in_round);
  EXPECT_TRUE(std::equal(adopted->words.begin(), adopted->words.end(),
                         original->words.begin(), original->words.end()));

  // Then every kind of source row adopted whole — short lists in insertion
  // order, ascending long lists, bitmaps, frozen flows — into destinations
  // whose tuning differs from the source's, on both position widths: each
  // flow ends in the state a per-flow UpsertFlowState oracle holds, and an
  // unbudgeted destination serializes byte for byte like its oracle.
  for (const auto& [num_bits, threshold] :
       {std::pair<size_t, size_t>{10000, 1000}, {70000, 7000}}) {
    ArenaSmbEngine::Config geometry;
    geometry.num_bits = num_bits;
    geometry.threshold = threshold;
    geometry.base_seed = 91;
    Xoshiro256 rng(num_bits);
    uint64_t next_flow = 1000;
    const auto feed = [&](ArenaSmbEngine& engine, size_t distinct) {
      for (size_t e = 0; e < distinct; ++e) {
        engine.Record(next_flow, rng.Next());
      }
      ++next_flow;
    };
    ArenaSmbEngine full(geometry);
    for (size_t i = 0; i < 30; ++i) feed(full, 1 + rng.NextBounded(60));
    for (size_t i = 0; i < 20; ++i) feed(full, 100 + rng.NextBounded(400));
    for (size_t i = 0; i < 6; ++i) feed(full, 1500 + 4000 * i);
    // Restored under half its live bytes with the cold tier on, so some
    // rows freeze, then recorded into: new short lists keep insertion
    // order.
    ArenaTuning frozen;
    frozen.cold_tier = true;
    frozen.memory_budget_bytes = full.LiveBytes() / 2;
    auto restored = ArenaSmbEngine::Deserialize(full.Serialize(), frozen);
    ASSERT_TRUE(restored.has_value());
    ArenaSmbEngine source = std::move(*restored);
    for (size_t i = 0; i < 30; ++i) feed(source, 1 + rng.NextBounded(60));
    for (size_t i = 0; i < 4; ++i) feed(source, 100 + rng.NextBounded(400));
    const auto stats = source.Stats();
    ASSERT_GT(stats.cold_flows, 0u);
    ASSERT_GT(stats.nursery_flows, 0u);
    ASSERT_GT(stats.main_flows, 0u);
    std::vector<uint64_t> flows;
    source.ForEachFlow([&](uint64_t flow, double) { flows.push_back(flow); });
    for (uint64_t flow = 1; flow <= 20; ++flow) flows.push_back(flow);

    ArenaTuning other_lists;
    other_lists.nursery_capacity = 100;
    ArenaTuning no_lists;
    no_lists.nursery_capacity = 0;
    ArenaTuning budgeted;
    budgeted.cold_tier = true;
    budgeted.memory_budget_bytes = full.LiveBytes() / 3;
    for (const ArenaTuning& tuning :
         {ArenaTuning{}, other_lists, no_lists, budgeted}) {
      ArenaSmbEngine::Config config = geometry;
      config.tuning = tuning;
      ArenaSmbEngine merged(config);
      ArenaSmbEngine oracle(config);
      // Flows the destination already holds, disjoint from the source's.
      for (uint64_t flow = 1; flow <= 20; ++flow) {
        for (uint64_t e = 0; e < flow * flow * 3; ++e) {
          merged.Record(flow, e);
          oracle.Record(flow, e);
        }
      }
      merged.MergeFrom(source);
      source.ForEachFlowState([&](uint64_t flow, uint32_t round,
                                  uint32_t ones,
                                  std::span<const uint64_t> words) {
        ASSERT_TRUE(oracle.UpsertFlowState(flow, round, ones, words));
      });
      const std::string what =
          std::to_string(num_bits) + " bits, nursery capacity " +
          std::to_string(tuning.nursery_capacity) + ", budget " +
          std::to_string(tuning.memory_budget_bytes);
      for (const uint64_t flow : flows) {
        const auto state = StateOf(merged, flow);
        ASSERT_TRUE(state.has_value()) << what << ", flow " << flow;
        ASSERT_EQ(state, StateOf(oracle, flow)) << what << ", flow " << flow;
      }
      EXPECT_EQ(merged.NumFlows() + merged.Stats().cold_flows, flows.size())
          << what;
      // The budgeted pair evicts at different moments (the merge settles
      // once, each upsert after itself), so only its flow states agree.
      if (tuning.memory_budget_bytes == 0) {
        EXPECT_EQ(merged.Serialize(), oracle.Serialize()) << what;
      } else {
        EXPECT_GT(merged.Stats().cold_flows, 0u) << what;
      }
      EXPECT_TRUE(merged.ListsWellFormed()) << what;
    }
  }
  EXPECT_EQ(FlowInvariantViolations(), 0u);
}

TEST(ArenaMergeTest, SharedFlowMergeIsBitIdenticalToSnapshotMerge) {
  // The core contract: merging engines flow-by-flow must equal taking the
  // flows' standalone SelfMorphingBitmap snapshots and merging those —
  // same replay, same salt, bit for bit. Uses flows at very different
  // rounds so both merge orientations occur.
  PerFlowMonitor monitor_a(MonitorSpec(), PerFlowMonitor::Engine::kArena);
  PerFlowMonitor monitor_b(MonitorSpec(), PerFlowMonitor::Engine::kArena);
  const std::vector<uint64_t> counts_a = {50, 20000, 400, 90000};
  const std::vector<uint64_t> counts_b = {60000, 100, 60000, 150};
  for (uint64_t flow = 0; flow < 8; ++flow) {
    for (uint64_t i = 0; i < counts_a[flow % counts_a.size()]; ++i) {
      monitor_a.Record(flow, i);
    }
    for (uint64_t i = 0; i < counts_b[flow % counts_b.size()]; ++i) {
      monitor_b.Record(flow, 500000 + i);
    }
  }
  // Standalone snapshot merges, taken before the engine merge mutates a.
  std::vector<SelfMorphingBitmap> expected;
  for (uint64_t flow = 0; flow < 8; ++flow) {
    auto snap_a = monitor_a.SnapshotFlowSmb(flow);
    const auto snap_b = monitor_b.SnapshotFlowSmb(flow);
    ASSERT_TRUE(snap_a.has_value() && snap_b.has_value());
    snap_a->MergeFrom(*snap_b);
    expected.push_back(std::move(*snap_a));
  }
  monitor_a.MergeFrom(monitor_b);
  for (uint64_t flow = 0; flow < 8; ++flow) {
    const auto merged = monitor_a.SnapshotFlowSmb(flow);
    ASSERT_TRUE(merged.has_value());
    EXPECT_EQ(merged->Serialize(), expected[flow].Serialize())
        << "flow " << flow;
    EXPECT_DOUBLE_EQ(monitor_a.Query(flow), expected[flow].Estimate())
        << "flow " << flow;
  }
  EXPECT_EQ(FlowInvariantViolations(), 0u);
}

TEST(ArenaMergeTest, LegacyEngineMergeMatchesArena) {
  // The legacy map engine derives identical per-flow seeds, so its merge
  // must agree with the arena's flow for flow.
  PerFlowMonitor arena_a(MonitorSpec(), PerFlowMonitor::Engine::kArena);
  PerFlowMonitor arena_b(MonitorSpec(), PerFlowMonitor::Engine::kArena);
  PerFlowMonitor legacy_a(MonitorSpec(), PerFlowMonitor::Engine::kLegacyMap);
  PerFlowMonitor legacy_b(MonitorSpec(), PerFlowMonitor::Engine::kLegacyMap);
  for (uint64_t flow = 0; flow < 6; ++flow) {
    const uint64_t na = 100 + flow * 7000;
    const uint64_t nb = 12000 - flow * 1500;
    for (uint64_t i = 0; i < na; ++i) {
      arena_a.Record(flow, i);
      legacy_a.Record(flow, i);
    }
    for (uint64_t i = 0; i < nb; ++i) {
      arena_b.Record(flow, 300000 + i);
      legacy_b.Record(flow, 300000 + i);
    }
  }
  arena_a.MergeFrom(arena_b);
  legacy_a.MergeFrom(legacy_b);
  for (uint64_t flow = 0; flow < 6; ++flow) {
    EXPECT_DOUBLE_EQ(arena_a.Query(flow), legacy_a.Query(flow))
        << "flow " << flow;
    const auto arena_snap = arena_a.SnapshotFlowSmb(flow);
    const auto legacy_snap = legacy_a.SnapshotFlowSmb(flow);
    ASSERT_TRUE(arena_snap.has_value() && legacy_snap.has_value());
    EXPECT_EQ(arena_snap->Serialize(), legacy_snap->Serialize())
        << "flow " << flow;
  }
}

TEST(ArenaMergeTest, Flw1SnapshotsMergeAfterLoad) {
  // Engines serialized at different rounds (FLW1), reloaded, then merged:
  // the result must equal merging the live engines.
  ArenaSmbEngine a(EngineConfig());
  ArenaSmbEngine b(EngineConfig());
  Feed(&a, 5, {100, 40000, 2000, 80000, 600}, 0);
  Feed(&b, 9, {50000, 300, 50000, 150, 25000}, 1000000);
  auto live_merge = ArenaSmbEngine::Deserialize(a.Serialize());
  ASSERT_TRUE(live_merge.has_value());
  live_merge->MergeFrom(b);

  auto loaded_a = ArenaSmbEngine::Deserialize(a.Serialize());
  auto loaded_b = ArenaSmbEngine::Deserialize(b.Serialize());
  ASSERT_TRUE(loaded_a.has_value());
  ASSERT_TRUE(loaded_b.has_value());
  ASSERT_TRUE(loaded_a->CanMergeWith(*loaded_b));
  loaded_a->MergeFrom(*loaded_b);
  EXPECT_EQ(loaded_a->Serialize(), live_merge->Serialize());
  // And the merged engine still round-trips (reachability invariants
  // survive the merge).
  EXPECT_TRUE(
      ArenaSmbEngine::Deserialize(loaded_a->Serialize()).has_value());
  EXPECT_EQ(FlowInvariantViolations(), 0u);
}

TEST(ArenaMergeTest, MergedEstimateTracksUnionStream) {
  // Accuracy spot check at engine level: disjoint halves per flow.
  ArenaSmbEngine a(EngineConfig());
  ArenaSmbEngine b(EngineConfig());
  ArenaSmbEngine u(EngineConfig());
  const uint64_t kPerSide = 30000;
  for (uint64_t i = 0; i < kPerSide; ++i) {
    a.Record(3, i);
    u.Record(3, i);
    b.Record(3, kPerSide + i);
    u.Record(3, kPerSide + i);
  }
  a.MergeFrom(b);
  const double union_estimate = u.Query(3);
  EXPECT_NEAR(a.Query(3), union_estimate,
              static_cast<double>(2 * kPerSide) * 0.30);
}

TEST(ArenaMergeTest, PerFlowMonitorPreconditions) {
  PerFlowMonitor arena(MonitorSpec(), PerFlowMonitor::Engine::kArena);
  PerFlowMonitor legacy(MonitorSpec(), PerFlowMonitor::Engine::kLegacyMap);
  EXPECT_FALSE(arena.CanMergeWith(legacy));  // engine mismatch
  auto other_seed = MonitorSpec();
  other_seed.hash_seed = 1234;
  PerFlowMonitor seeded(other_seed, PerFlowMonitor::Engine::kArena);
  EXPECT_FALSE(arena.CanMergeWith(seeded));
  PerFlowMonitor same(MonitorSpec(), PerFlowMonitor::Engine::kArena);
  EXPECT_TRUE(arena.CanMergeWith(same));
}

TEST(ArenaMergeTest, SnapshotFlowSmbMatchesEngineQuery) {
  PerFlowMonitor arena(MonitorSpec(), PerFlowMonitor::Engine::kArena);
  PerFlowMonitor legacy(MonitorSpec(), PerFlowMonitor::Engine::kLegacyMap);
  for (uint64_t i = 0; i < 25000; ++i) {
    arena.Record(8, i);
    legacy.Record(8, i);
  }
  const auto arena_snap = arena.SnapshotFlowSmb(8);
  const auto legacy_snap = legacy.SnapshotFlowSmb(8);
  ASSERT_TRUE(arena_snap.has_value());
  ASSERT_TRUE(legacy_snap.has_value());
  // Snapshot estimates equal the engines' own queries, and the two
  // engines' snapshots are byte-identical (same seeds, same stream).
  EXPECT_DOUBLE_EQ(arena_snap->Estimate(), arena.Query(8));
  EXPECT_DOUBLE_EQ(legacy_snap->Estimate(), legacy.Query(8));
  EXPECT_EQ(arena_snap->Serialize(), legacy_snap->Serialize());
  EXPECT_FALSE(arena.SnapshotFlowSmb(999).has_value());
}

// Three engines over kMergeFlows flows: engine i holds flow f when bit i
// of f % 8 is set, so every holder count from 0 to 3 occurs. Per-engine
// spreads cycle from a few items (nursery rows) through a promoted
// round-0 row to late rounds, offset per engine so the same flow sits at
// different rounds in different engines and both merge orientations
// occur. Item ranges half-overlap across engines. Engine 2 runs the cold
// tier under a small budget, so its early flows are frozen.
constexpr uint64_t kMergeFlows = 64;

std::vector<ArenaSmbEngine> BuildMergeEngines() {
  const std::vector<uint64_t> counts = {3, 9, 120, 700, 4000, 30000};
  std::vector<ArenaSmbEngine> engines;
  for (uint64_t e = 0; e < 3; ++e) {
    ArenaSmbEngine::Config config = EngineConfig();
    if (e == 2) {
      config.tuning.cold_tier = true;
      config.tuning.memory_budget_bytes = 3000;
    }
    ArenaSmbEngine engine(config);
    for (uint64_t flow = 0; flow < kMergeFlows; ++flow) {
      if (((flow % 8) & (uint64_t{1} << e)) == 0) continue;
      const uint64_t n = counts[(flow * 5 + e * 2) % counts.size()];
      const uint64_t base = flow * 1000000 + e * (n / 2);
      for (uint64_t i = 0; i < n; ++i) engine.Record(flow, base + i);
    }
    engines.push_back(std::move(engine));
  }
  return engines;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// QueryMerged over `order` against a fresh engine that MergeFrom'd the
// same engines in the same order, for every flow and some absent ids.
void ExpectQueryMergedMatchesMergeFrom(
    const std::vector<const ArenaSmbEngine*>& order) {
  ArenaSmbEngine merged(EngineConfig());
  for (const ArenaSmbEngine* engine : order) merged.MergeFrom(*engine);
  std::vector<uint64_t> flows;
  for (uint64_t flow = 0; flow < kMergeFlows; ++flow) flows.push_back(flow);
  for (const uint64_t absent :
       {kMergeFlows, uint64_t{1} << 40, ~uint64_t{0}}) {
    flows.push_back(absent);
  }
  for (const uint64_t flow : flows) {
    EXPECT_EQ(Bits(ArenaSmbEngine::QueryMerged(order, flow)),
              Bits(merged.Query(flow)))
        << "flow " << flow << " over " << order.size() << " engines";
  }
}

TEST(ArenaMergeTest, QueryMergedMatchesMergeFromInEveryOrder) {
  const std::vector<ArenaSmbEngine> engines = BuildMergeEngines();
  // The engines reach every residency and holder count.
  EXPECT_GT(engines[0].Stats().nursery_flows, 0u);
  EXPECT_GT(engines[0].Stats().main_flows, 0u);
  size_t late_round_rows = 0;
  size_t holder_counts[4] = {0, 0, 0, 0};
  size_t shared_with_cold_engine = 0;
  for (uint64_t flow = 0; flow < kMergeFlows; ++flow) {
    size_t holders = 0;
    for (const ArenaSmbEngine& engine : engines) {
      const auto state = engine.Inspect(flow);
      if (!state.has_value()) continue;
      ++holders;
      if (state->round >= 3) ++late_round_rows;
    }
    ++holder_counts[holders];
    if (holders >= 2 && engines[2].Inspect(flow).has_value()) {
      ++shared_with_cold_engine;
    }
  }
  EXPECT_GT(late_round_rows, 0u);
  for (size_t h = 0; h < 4; ++h) {
    EXPECT_GT(holder_counts[h], 0u) << h << " holders";
  }
  // More shared flows than engine 2 keeps live: at least one frozen flow
  // takes the cold source through the replay fold.
  EXPECT_GT(engines[2].Stats().cold_flows, 0u);
  EXPECT_GT(shared_with_cold_engine, engines[2].NumFlows());

  const ArenaSmbEngine* a = &engines[0];
  const ArenaSmbEngine* b = &engines[1];
  const ArenaSmbEngine* c = &engines[2];
  // Every order of all three (ascending and not), every pair, single
  // engines (including the cold one), no engines, and an engine listed
  // twice.
  const std::vector<std::vector<const ArenaSmbEngine*>> orders = {
      {a, b, c}, {a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a},
      {a, b},    {b, c},    {c, a},    {a},       {c},       {},
      {b, b}};
  for (const auto& order : orders) ExpectQueryMergedMatchesMergeFrom(order);
  EXPECT_EQ(FlowInvariantViolations(), 0u);
}

}  // namespace
}  // namespace smb
