// ColdSketchTier unit tests plus the engine-level bit-identity
// guarantee: an engine that evicts into the frozen cold tier and thaws
// on return must hold exactly the bits of a never-evicted oracle fed
// the same stream (DESIGN.md §17).

#include "flow/cold_tier.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "flow/arena_smb_engine.h"
#include "flow_test_util.h"

namespace smb {
namespace {

constexpr size_t kNumBits = 256;
constexpr size_t kWords = (kNumBits + 63) / 64;

std::vector<uint64_t> WordsWithBits(std::initializer_list<uint32_t> bits) {
  std::vector<uint64_t> words(kWords, 0);
  for (const uint32_t pos : bits) {
    words[pos >> 6] |= uint64_t{1} << (pos & 63);
  }
  return words;
}

TEST(ColdSketchTierTest, FreezePeekThawRoundTrip) {
  ColdSketchTier tier(kNumBits);
  const std::vector<uint64_t> a = WordsWithBits({1, 70, 199});
  const std::vector<uint64_t> b = WordsWithBits({0, 64, 128, 192, 255});
  tier.Freeze(10, 0, 3, a);
  tier.Freeze(20, 2, 5, b);
  EXPECT_EQ(tier.NumFlows(), 2u);
  EXPECT_TRUE(tier.Contains(10));
  EXPECT_FALSE(tier.Contains(11));

  uint32_t round = 0, ones = 0;
  ASSERT_TRUE(tier.PeekMeta(20, &round, &ones));
  EXPECT_EQ(round, 2u);
  EXPECT_EQ(ones, 5u);

  std::vector<uint64_t> out(kWords, ~uint64_t{0});
  ASSERT_TRUE(tier.ReadState(10, &round, &ones, out));
  EXPECT_EQ(round, 0u);
  EXPECT_EQ(ones, 3u);
  EXPECT_EQ(out, a);
  EXPECT_EQ(tier.NumFlows(), 2u) << "ReadState must not remove";

  ASSERT_TRUE(tier.Thaw(10, &round, &ones, out));
  EXPECT_EQ(out, a);
  EXPECT_FALSE(tier.Contains(10));
  EXPECT_EQ(tier.NumFlows(), 1u);
  EXPECT_FALSE(tier.Thaw(10, &round, &ones, out));
}

TEST(ColdSketchTierTest, RefreezeReplacesRecord) {
  ColdSketchTier tier(kNumBits);
  tier.Freeze(7, 0, 1, WordsWithBits({5}));
  const std::vector<uint64_t> updated = WordsWithBits({5, 9, 130});
  tier.Freeze(7, 1, 2, updated);
  EXPECT_EQ(tier.NumFlows(), 1u);
  uint32_t round = 0, ones = 0;
  std::vector<uint64_t> out(kWords, 0);
  ASSERT_TRUE(tier.ReadState(7, &round, &ones, out));
  EXPECT_EQ(round, 1u);
  EXPECT_EQ(ones, 2u);
  EXPECT_EQ(out, updated);
}

TEST(ColdSketchTierTest, EraseAndSortedFlows) {
  ColdSketchTier tier(kNumBits);
  for (const uint64_t flow : {42u, 7u, 1000u, 3u}) {
    tier.Freeze(flow, 0, 1, WordsWithBits({static_cast<uint32_t>(flow % 256)}));
  }
  tier.Erase(42);
  EXPECT_FALSE(tier.Contains(42));
  const std::vector<uint64_t> want{3, 7, 1000};
  EXPECT_EQ(tier.SortedFlows(), want);
}

TEST(ColdSketchTierTest, SparseStatesBeatRawFootprint) {
  ColdSketchTier tier(kNumBits);
  for (uint64_t flow = 0; flow < 100; ++flow) {
    tier.Freeze(flow, 0, 1, WordsWithBits({static_cast<uint32_t>(flow * 2)}));
  }
  // 100 single-bit flows: a few bytes each against 40 raw bytes each.
  EXPECT_LT(tier.EncodedBytes() * 4, tier.RawBytes());
  EXPECT_GT(tier.ResidentBytes(), 0u);
}

TEST(ColdSketchTierTest, CompactionReclaimsDeadBytes) {
  ColdSketchTier tier(kNumBits);
  // A mid-fill random state encodes raw (~37 bytes), so repeated
  // refreezes strand dead bytes quickly.
  Xoshiro256 rng(0xC01D);
  std::vector<uint64_t> words(kWords);
  for (auto& w : words) w = rng.Next();
  uint32_t ones = 0;
  for (const uint64_t w : words) {
    ones += static_cast<uint32_t>(__builtin_popcountll(w));
  }
  for (int i = 0; i < 10000; ++i) {
    tier.Freeze(1, 2, ones - 64, words);
  }
  EXPECT_GT(tier.compactions(), 0u);
  // The log holds exactly one live record afterwards.
  EXPECT_LT(tier.EncodedBytes(), 64u);
  uint32_t round = 0, got_ones = 0;
  std::vector<uint64_t> out(kWords, 0);
  ASSERT_TRUE(tier.ReadState(1, &round, &got_ones, out));
  EXPECT_EQ(out, words);
}

// ---------------------------------------------------------------------------
// Engine-level bit-identity against a never-evicted oracle.

struct EnginePair {
  ArenaSmbEngine cold;    // budget + cold tier: evicts and thaws
  ArenaSmbEngine oracle;  // unlimited: never evicts
};

ArenaSmbEngine::Config ColdConfig(size_t budget_bytes) {
  ArenaSmbEngine::Config config;
  config.num_bits = 2048;  // nursery stays enabled at this stride
  config.threshold = 256;
  config.base_seed = 0x5EED;
  config.tuning.memory_budget_bytes = budget_bytes;
  config.tuning.eviction = ArenaEviction::kClock;
  config.tuning.cold_tier = true;
  return config;
}

// Feeds both engines an identical revisit-heavy stream: three passes
// over the flow space so pass N+1 touches flows pass N froze.
EnginePair FedPair(size_t flows, uint64_t seed) {
  ArenaSmbEngine::Config cold_config = ColdConfig(/*budget_bytes=*/12000);
  ArenaSmbEngine::Config oracle_config = cold_config;
  oracle_config.tuning.memory_budget_bytes = 0;
  oracle_config.tuning.cold_tier = false;
  EnginePair pair{ArenaSmbEngine(cold_config), ArenaSmbEngine(oracle_config)};
  Xoshiro256 rng(seed);
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t flow = 1; flow <= flows; ++flow) {
      const size_t packets = 1 + rng.NextBounded(40);
      for (size_t p = 0; p < packets; ++p) {
        const uint64_t element = rng.Next();
        pair.cold.Record(flow, element);
        pair.oracle.Record(flow, element);
      }
    }
  }
  return pair;
}

void ExpectSameStates(const ArenaSmbEngine& got, const ArenaSmbEngine& want,
                      size_t flows) {
  for (uint64_t flow = 1; flow <= flows; ++flow) {
    EXPECT_EQ(got.Query(flow), want.Query(flow)) << "flow " << flow;
    const auto got_state = got.Inspect(flow);
    const auto want_state = want.Inspect(flow);
    ASSERT_TRUE(got_state.has_value()) << "flow " << flow;
    ASSERT_TRUE(want_state.has_value()) << "flow " << flow;
    EXPECT_EQ(got_state->round, want_state->round) << "flow " << flow;
    EXPECT_EQ(got_state->ones_in_round, want_state->ones_in_round)
        << "flow " << flow;
    // Inspect spans alias internal scratch; copy before the next call.
    const std::vector<uint64_t> got_words(got_state->words.begin(),
                                          got_state->words.end());
    const auto want_again = want.Inspect(flow);
    const std::vector<uint64_t> want_words(want_again->words.begin(),
                                           want_again->words.end());
    EXPECT_EQ(got_words, want_words) << "flow " << flow;
  }
}

TEST(ArenaColdTierTest, ThawedBitsMatchNeverEvictedOracle) {
  constexpr size_t kFlows = 300;
  const EnginePair pair = FedPair(kFlows, 0x0717);
  const auto stats = pair.cold.Stats();
  ASSERT_GT(stats.evicted_flows, 0u) << "budget never triggered eviction";
  ASSERT_GT(stats.thawed_flows, 0u) << "stream never revisited a frozen flow";
  EXPECT_EQ(stats.recorded_flows, stats.live_flows + stats.evicted_flows);
  ExpectSameStates(pair.cold, pair.oracle, kFlows);
  EXPECT_EQ(FlowInvariantViolations(), 0u);
}

TEST(ArenaColdTierTest, FrozenQueriesAnswerWithoutReviving) {
  constexpr size_t kFlows = 300;
  const EnginePair pair = FedPair(kFlows, 0xF0F0);
  const size_t frozen_before = pair.cold.Stats().cold_flows;
  ASSERT_GT(frozen_before, 0u);
  for (uint64_t flow = 1; flow <= kFlows; ++flow) {
    EXPECT_EQ(pair.cold.Query(flow), pair.oracle.Query(flow));
  }
  EXPECT_EQ(pair.cold.Stats().cold_flows, frozen_before)
      << "Query revived frozen flows";
  // Frozen flows are outside NumFlows() but inside enumeration.
  size_t enumerated = 0;
  pair.cold.ForEachFlow([&](uint64_t, double) { ++enumerated; });
  EXPECT_EQ(enumerated, kFlows);
  EXPECT_EQ(pair.cold.NumFlows() + frozen_before, kFlows);
}

TEST(ArenaColdTierTest, SnapshotCoversFrozenFlows) {
  constexpr size_t kFlows = 300;
  const EnginePair pair = FedPair(kFlows, 0x5A5A);
  ASSERT_GT(pair.cold.Stats().cold_flows, 0u);
  const auto restored = ArenaSmbEngine::Deserialize(pair.cold.Serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->NumFlows(), kFlows);
  ExpectSameStates(*restored, pair.oracle, kFlows);
  // The oracle's snapshot holds the same flows, so both snapshots
  // rebuild interchangeable engines.
  const auto restored_oracle =
      ArenaSmbEngine::Deserialize(pair.oracle.Serialize());
  ASSERT_TRUE(restored_oracle.has_value());
  ExpectSameStates(*restored, *restored_oracle, kFlows);
  EXPECT_EQ(FlowInvariantViolations(), 0u);
}

TEST(ArenaColdTierTest, MergeSeesFrozenRowsOnBothSides) {
  constexpr size_t kFlows = 200;
  // Overlapping flow ranges force replay merges, disjoint tails force
  // adopt-verbatim — both must work when either side froze the flow.
  const EnginePair left = FedPair(kFlows, 0x1111);
  const EnginePair right = FedPair(kFlows + 80, 0x2222);
  ASSERT_GT(left.cold.Stats().cold_flows, 0u);
  ASSERT_GT(right.cold.Stats().cold_flows, 0u);

  ArenaSmbEngine::Config config = ColdConfig(/*budget_bytes=*/12000);
  ArenaSmbEngine merged_cold(config);
  merged_cold.MergeFrom(left.cold);   // frozen source rows
  merged_cold.MergeFrom(right.cold);  // frozen source + frozen dest rows

  config.tuning.memory_budget_bytes = 0;
  config.tuning.cold_tier = false;
  ArenaSmbEngine merged_oracle(config);
  merged_oracle.MergeFrom(left.oracle);
  merged_oracle.MergeFrom(right.oracle);

  ExpectSameStates(merged_cold, merged_oracle, kFlows + 80);
  EXPECT_EQ(FlowInvariantViolations(), 0u);
}

TEST(ArenaColdTierTest, StatsExposeColdFootprint) {
  constexpr size_t kFlows = 300;
  const EnginePair pair = FedPair(kFlows, 0x0CC0);
  const auto stats = pair.cold.Stats();
  ASSERT_GT(stats.cold_flows, 0u);
  EXPECT_GT(stats.cold_encoded_bytes, 0u);
  EXPECT_GT(stats.cold_raw_bytes, stats.cold_encoded_bytes)
      << "frozen records should be smaller than raw slots";
}

}  // namespace
}  // namespace smb
