// ColdSketchTier unit tests (the tier stores SMBZ1 slot records the
// tests encode with the codec) plus the engine-level bit-identity
// guarantee: an engine that evicts into the frozen cold tier and thaws
// on return must hold exactly the bits of a never-evicted oracle fed
// the same stream, for whole streams and for each kind of record one
// state at a time (DESIGN.md §17). The estimate walk over live and
// frozen flows answers as the oracle does, bit for bit.

#include "flow/cold_tier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "codec/smbz1.h"
#include "common/bit_util.h"
#include "common/random.h"
#include "flow/arena_smb_engine.h"
#include "flow_test_util.h"
#include "hash/batch_hash.h"
#include "hash/murmur3.h"

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

// The tier stores records the engine writes; these tests write them with
// the codec.
std::vector<uint8_t> RecordOf(uint32_t round, uint32_t ones,
                              const std::vector<uint64_t>& words) {
  codec::SlotState state;
  state.round = round;
  state.ones = ones;
  state.words = words;
  std::vector<uint8_t> record;
  codec::EncodeSlot(kNumBits, state, &record);
  return record;
}

void Freeze(ColdSketchTier* tier, uint64_t flow, uint32_t round,
            uint32_t ones, const std::vector<uint64_t>& words) {
  tier->Freeze(flow, round, ones, RecordOf(round, ones, words));
}

// The words a record holds, decoded by the codec.
std::vector<uint64_t> WordsOf(std::span<const uint8_t> record) {
  std::vector<uint64_t> words(kWords, ~uint64_t{0});
  size_t pos = 0;
  codec::DecodedSlot slot;
  EXPECT_TRUE(codec::DecodeSlot(record, &pos, kNumBits, &slot, words));
  EXPECT_EQ(pos, record.size());
  return words;
}

std::vector<uint64_t> SortedFlows(const ColdSketchTier& tier) {
  std::vector<uint64_t> flows;
  tier.ForEachSorted([&](uint64_t flow, const ColdSketchTier::Record&) {
    flows.push_back(flow);
  });
  return flows;
}

TEST(ColdSketchTierTest, FreezePeekThawRoundTrip) {
  ColdSketchTier tier(kNumBits);
  const std::vector<uint64_t> a = WordsWithBits({1, 70, 199});
  const std::vector<uint64_t> b = WordsWithBits({0, 64, 128, 192, 255});
  Freeze(&tier, 10, 0, 3, a);
  Freeze(&tier, 20, 2, 5, b);
  EXPECT_EQ(tier.NumFlows(), 2u);
  EXPECT_TRUE(tier.Contains(10));
  EXPECT_FALSE(tier.Contains(11));
  EXPECT_FALSE(tier.Find(11).has_value());

  const auto peeked = tier.Find(20);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(peeked->round, 2u);
  EXPECT_EQ(peeked->ones, 5u);

  const auto found = tier.Find(10);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->round, 0u);
  EXPECT_EQ(found->ones, 3u);
  const std::vector<uint8_t> want = RecordOf(0, 3, a);
  EXPECT_TRUE(std::equal(found->bytes.begin(), found->bytes.end(),
                         want.begin(), want.end()))
      << "the tier hands back the bytes it was given";
  EXPECT_EQ(WordsOf(found->bytes), a);
  EXPECT_EQ(tier.NumFlows(), 2u) << "Find must not remove";

  std::vector<uint64_t> thawed;
  ASSERT_TRUE(tier.Take(10, [&](const ColdSketchTier::Record& record) {
    EXPECT_EQ(record.round, 0u);
    EXPECT_EQ(record.ones, 3u);
    thawed = WordsOf(record.bytes);
  }));
  EXPECT_EQ(thawed, a);
  EXPECT_FALSE(tier.Contains(10));
  EXPECT_EQ(tier.NumFlows(), 1u);
  bool called = false;
  EXPECT_FALSE(
      tier.Take(10, [&](const ColdSketchTier::Record&) { called = true; }));
  EXPECT_FALSE(called);
}

TEST(ColdSketchTierTest, RefreezeReplacesRecord) {
  ColdSketchTier tier(kNumBits);
  Freeze(&tier, 7, 0, 1, WordsWithBits({5}));
  const std::vector<uint64_t> updated = WordsWithBits({5, 9, 130});
  Freeze(&tier, 7, 1, 2, updated);
  EXPECT_EQ(tier.NumFlows(), 1u);
  EXPECT_EQ(tier.EncodedBytes(), RecordOf(1, 2, updated).size());
  const auto found = tier.Find(7);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->round, 1u);
  EXPECT_EQ(found->ones, 2u);
  EXPECT_EQ(WordsOf(found->bytes), updated);
}

TEST(ColdSketchTierTest, EraseAndSortedFlows) {
  ColdSketchTier tier(kNumBits);
  for (const uint64_t flow : {42u, 7u, 1000u, 3u}) {
    Freeze(&tier, flow, 0, 1,
           WordsWithBits({static_cast<uint32_t>(flow % 256)}));
  }
  ASSERT_TRUE(tier.Take(42, [](const ColdSketchTier::Record&) {}));
  EXPECT_FALSE(tier.Contains(42));
  const std::vector<uint64_t> want{3, 7, 1000};
  EXPECT_EQ(SortedFlows(tier), want);
  // The unsorted walk visits the same flows once each, with their own
  // records.
  std::vector<uint64_t> walked;
  tier.ForEach([&](uint64_t flow, const ColdSketchTier::Record& record) {
    walked.push_back(flow);
    EXPECT_EQ(record.round, 0u);
    EXPECT_EQ(WordsOf(record.bytes),
              WordsWithBits({static_cast<uint32_t>(flow % 256)}));
  });
  std::sort(walked.begin(), walked.end());
  EXPECT_EQ(walked, want);
  // The sorted walk hands each flow its own record.
  tier.ForEachSorted(
      [&](uint64_t flow, const ColdSketchTier::Record& record) {
        EXPECT_EQ(WordsOf(record.bytes),
                  WordsWithBits({static_cast<uint32_t>(flow % 256)}));
      });
}

TEST(ColdSketchTierTest, SparseStatesBeatRawFootprint) {
  ColdSketchTier tier(kNumBits);
  for (uint64_t flow = 0; flow < 100; ++flow) {
    Freeze(&tier, flow, 0, 1,
           WordsWithBits({static_cast<uint32_t>(flow * 2)}));
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
  // A second flow frozen between the refreezes: compaction must move
  // both records and keep each index entry on its own bytes.
  const std::vector<uint64_t> other = WordsWithBits({3, 100, 200});
  for (int i = 0; i < 10000; ++i) {
    Freeze(&tier, 1, 2, ones - 64, words);
    if (i == 5000) Freeze(&tier, 2, 0, 3, other);
  }
  EXPECT_GT(tier.compactions(), 0u);
  // The log holds exactly the two live records afterwards.
  EXPECT_EQ(tier.EncodedBytes(), RecordOf(2, ones - 64, words).size() +
                                     RecordOf(0, 3, other).size());
  const auto found = tier.Find(1);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->round, 2u);
  EXPECT_EQ(found->ones, ones - 64);
  EXPECT_EQ(WordsOf(found->bytes), words);
  EXPECT_EQ(WordsOf(tier.Find(2)->bytes), other);
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

// The CLI's top spreads: estimate descending, then flow id ascending.
std::vector<std::pair<uint64_t, double>> TopSpreads(
    const ArenaSmbEngine& engine, size_t k) {
  std::vector<std::pair<uint64_t, double>> spreads;
  engine.ForEachFlow([&](uint64_t flow, double estimate) {
    spreads.emplace_back(flow, estimate);
  });
  k = std::min(k, spreads.size());
  std::partial_sort(spreads.begin(),
                    spreads.begin() + static_cast<std::ptrdiff_t>(k),
                    spreads.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  spreads.resize(k);
  return spreads;
}

std::vector<uint64_t> SortedFlowsOver(const ArenaSmbEngine& engine,
                                      double threshold) {
  std::vector<uint64_t> flows = engine.FlowsOver(threshold);
  std::sort(flows.begin(), flows.end());
  return flows;
}

TEST(ArenaColdTierTest, EstimateWalkCoversLiveAndFrozenOnce) {
  constexpr size_t kFlows = 600;
  const EnginePair pair = FedPair(kFlows, 0xE57);
  const auto stats = pair.cold.Stats();
  ASSERT_GT(stats.cold_flows, 0u);
  ASSERT_GT(stats.thawed_flows, 0u);

  // Every live and every frozen flow exactly once, each with Query's
  // estimate bit for bit.
  std::vector<uint64_t> walked;
  pair.cold.ForEachFlow([&](uint64_t flow, double estimate) {
    walked.push_back(flow);
    EXPECT_EQ(std::bit_cast<uint64_t>(estimate),
              std::bit_cast<uint64_t>(pair.cold.Query(flow)))
        << "flow " << flow;
  });
  EXPECT_EQ(walked.size(), stats.live_flows + stats.cold_flows);
  std::sort(walked.begin(), walked.end());
  std::vector<uint64_t> want(kFlows);
  for (uint64_t flow = 1; flow <= kFlows; ++flow) want[flow - 1] = flow;
  EXPECT_EQ(walked, want);

  // The answers built on the walk equal the never-evicted oracle's.
  const auto top = TopSpreads(pair.cold, 100);
  ASSERT_EQ(top.size(), 100u);
  EXPECT_EQ(top, TopSpreads(pair.oracle, 100));
  for (const double threshold : {0.0, 10.0, 30.0, 60.0, top[50].second}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    EXPECT_EQ(SortedFlowsOver(pair.cold, threshold),
              SortedFlowsOver(pair.oracle, threshold));
  }
  EXPECT_EQ(pair.cold.FlowsOver(0.0).size(), kFlows);
  EXPECT_LT(pair.cold.FlowsOver(top[50].second).size(), kFlows);
}

TEST(ArenaColdTierTest, EstimateMemoCollisionsStayExact) {
  // Far more distinct (r, v) states than the walk's memo has slots, so
  // slots collide: round-0 list rows and bitmap rows, every mid round,
  // and the final round at, below and above the fill clamp (m_r - 1),
  // with about two thirds of the rows frozen.
  ArenaSmbEngine::Config config;
  config.num_bits = 10000;
  config.threshold = 1000;
  config.base_seed = 0x3E30;
  config.tuning.memory_budget_bytes = 2u << 20;
  config.tuning.eviction = ArenaEviction::kClock;
  config.tuning.cold_tier = true;
  ArenaSmbEngine engine(config);
  const uint32_t last = static_cast<uint32_t>(engine.max_round());
  ASSERT_EQ(last, 9u);
  const uint32_t final_fill =
      static_cast<uint32_t>(config.num_bits - last * config.threshold);

  // A reachable state: its first round * T + ones bits set.
  const auto upsert = [&](uint64_t flow, uint32_t round, uint32_t ones) {
    std::vector<uint64_t> words((config.num_bits + 63) / 64, 0);
    const size_t set = round * config.threshold + ones;
    for (size_t bit = 0; bit < set; ++bit) {
      words[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
    ASSERT_TRUE(engine.UpsertFlowState(flow, round, ones, words))
        << "round " << round << " ones " << ones;
  };
  uint64_t flow = 1;
  for (uint32_t ones = 0; ones <= final_fill; ++ones) {
    upsert(flow++, last, ones);
  }
  for (uint32_t round = last; round-- > 0;) {
    for (uint32_t ones = 0; ones < config.threshold; ones += 2) {
      upsert(flow++, round, ones);
    }
  }
  const size_t flows = flow - 1;
  ASSERT_GE(flows, 5000u);

  const auto stats = engine.Stats();
  EXPECT_GT(stats.nursery_flows, 0u) << "no live list row";
  EXPECT_GT(stats.main_flows, 0u) << "no live bitmap row";
  EXPECT_GT(stats.cold_flows, flows / 2) << "too few frozen rows";

  size_t walked = 0;
  engine.ForEachFlowMeta(
      [&](uint64_t key, uint32_t round, uint32_t ones, double estimate) {
        ++walked;
        const auto state = engine.Inspect(key);
        ASSERT_TRUE(state.has_value()) << "flow " << key;
        EXPECT_EQ(round, state->round) << "flow " << key;
        EXPECT_EQ(ones, state->ones_in_round) << "flow " << key;
        EXPECT_EQ(std::bit_cast<uint64_t>(estimate),
                  std::bit_cast<uint64_t>(engine.Query(key)))
            << "flow " << key << " at (" << round << ", " << ones << ")";
      });
  EXPECT_EQ(walked, flows);
  for (const auto& [key, estimate] : TopSpreads(engine, flows)) {
    ASSERT_EQ(std::bit_cast<uint64_t>(estimate),
              std::bit_cast<uint64_t>(engine.Query(key)))
        << "flow " << key;
  }
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

// ---------------------------------------------------------------------------
// The record path one state at a time: a state is frozen into the cold
// tier as the record the engine writes, thawed again by a packet that
// leaves it as it is, and held bit-identical to an oracle engine that
// took the same state through UpsertFlowState — live, frozen and thawed,
// and after more packets. Each case runs with uint16 positions
// (m = 10000) and uint32 ones (m = 70000).

constexpr uint64_t kFlow = 11;
constexpr uint64_t kPusher = 12;

struct State {
  uint32_t round = 0;
  uint32_t ones = 0;
  std::vector<uint64_t> words;
};

class ColdRecordPathTest : public ::testing::TestWithParam<size_t> {
 protected:
  // T = m / 10 lies above every list class, so each one exists: 16 to
  // 512 positions at m = 10000, 16 to 2048 at m = 70000. The final
  // round, 9, keeps a logical bitmap of T bits.
  ArenaSmbEngine::Config Geometry() const {
    ArenaSmbEngine::Config config;
    config.num_bits = GetParam();
    config.threshold = GetParam() / 10;
    config.base_seed = 0x7EA5;
    return config;
  }
  size_t Words() const { return (GetParam() + 63) / 64; }

  // The list capacities, the last one being the graduation fill.
  std::vector<size_t> ListCapacities() const {
    std::vector<size_t> out;
    for (const auto& cls : ArenaSmbEngine(Geometry()).Stats().classes) {
      if (cls.positions > 0) out.push_back(cls.positions);
    }
    return out;
  }

  // The bit a packet of `element` for `flow` would set (the engine's
  // per-flow seed derivation).
  uint64_t PositionOf(uint64_t flow, uint64_t element) const {
    const uint64_t offset =
        ItemSeedOffset(Murmur3Fmix64(Geometry().base_seed ^ flow));
    return FastRange64(ItemHash128(element + offset, 0).lo, GetParam());
  }

  // A reachable state of `round` whose words hold exactly `set` bits at
  // random positions, the rest of the fill in round.
  State RandomState(Xoshiro256& rng, uint32_t round, size_t set) const {
    State state;
    state.round = round;
    state.ones = static_cast<uint32_t>(set - round * Geometry().threshold);
    state.words.assign(Words(), 0);
    for (size_t n = 0; n < set;) {
      const uint64_t pos = rng.NextBounded(GetParam());
      const uint64_t bit = uint64_t{1} << (pos & 63);
      if ((state.words[pos >> 6] & bit) != 0) continue;
      state.words[pos >> 6] |= bit;
      ++n;
    }
    return state;
  }

  // The mode byte EncodeSlot picks for `state`.
  uint8_t ModeByte(const State& state) const {
    std::vector<uint8_t> record;
    codec::EncodeSlot(GetParam(), {state.round, state.ones, state.words},
                      &record);
    return record[0];
  }

  // Freezes kFlow (built by `build` into an engine whose budget keeps
  // one row live), thaws it, and checks it against an oracle holding
  // its state through UpsertFlowState at every step.
  template <typename Build>
  void ExpectBuiltRoundTrip(Build build) const {
    ArenaSmbEngine::Config config = Geometry();
    config.tuning.memory_budget_bytes = 1;
    config.tuning.eviction = ArenaEviction::kClock;
    config.tuning.cold_tier = true;
    ArenaSmbEngine engine(config);
    build(engine);
    const auto live = engine.Inspect(kFlow);
    ASSERT_TRUE(live.has_value());
    const State state{static_cast<uint32_t>(live->round),
                      static_cast<uint32_t>(live->ones_in_round),
                      std::vector<uint64_t>(live->words.begin(),
                                            live->words.end())};
    ArenaSmbEngine oracle(Geometry());
    ASSERT_TRUE(
        oracle.UpsertFlowState(kFlow, state.round, state.ones, state.words));
    ExpectSameFlow(engine, oracle);

    // A second row pushes kFlow out: CLOCK clears both reference bytes,
    // then takes row 0.
    const std::vector<uint8_t> no_flows = engine.SerializeFlows({});
    const std::vector<uint64_t> only_flow{kFlow};
    ASSERT_TRUE(engine.UpsertFlowState(kPusher, 0, 0,
                                       std::vector<uint64_t>(Words(), 0)));
    ASSERT_EQ(engine.Stats().cold_flows, 1u);
    ASSERT_EQ(engine.SerializeFlows(only_flow), no_flows) << "not frozen";
    ExpectSameFlow(engine, oracle);
    // The frozen record is copied into SMBZ1 as it is.
    EXPECT_EQ(engine.SerializeSmbz1(),
              codec::CompressFlw1Image(engine.Serialize()).value());

    // A packet that the gate rejects or that hits a set bit thaws the
    // flow and changes nothing; the empty state has no such packet.
    const auto unchanging = [&](uint64_t e) {
      const uint64_t pos = PositionOf(kFlow, e);
      return static_cast<uint32_t>(oracle.GateRank(kFlow, e)) < state.round ||
             ((state.words[pos >> 6] >> (pos & 63)) & 1) != 0;
    };
    uint64_t element = 0;
    if (state.round > 0 || state.ones > 0) {
      while (!unchanging(element)) ++element;
    }
    engine.Record(kFlow, element);
    oracle.Record(kFlow, element);
    ASSERT_EQ(engine.Stats().thawed_flows, 1u);
    ASSERT_NE(engine.SerializeFlows(only_flow), no_flows) << "not thawed";
    ExpectSameFlow(engine, oracle);
    if (state.ones > 0) {
      EXPECT_EQ(oracle.Inspect(kFlow)->ones_in_round, state.ones)
          << "the thawing packet changed the state";
    }
    EXPECT_TRUE(engine.ListsWellFormed());

    // The thawed row keeps recording as the oracle's does, across the
    // class boundaries above it.
    Xoshiro256 rng(GetParam() + state.ones);
    for (int p = 0; p < 300; ++p) {
      const uint64_t next = rng.Next();
      engine.Record(kFlow, next);
      oracle.Record(kFlow, next);
    }
    ExpectSameFlow(engine, oracle);
    EXPECT_TRUE(engine.ListsWellFormed());
    EXPECT_EQ(engine.Stats().thawed_flows, 1u);
  }

  void ExpectRoundTrip(const State& state) const {
    ExpectBuiltRoundTrip([&](ArenaSmbEngine& engine) {
      ASSERT_TRUE(engine.UpsertFlowState(kFlow, state.round, state.ones,
                                         state.words));
    });
  }

  static void ExpectSameFlow(const ArenaSmbEngine& got,
                             const ArenaSmbEngine& want) {
    const auto got_state = got.Inspect(kFlow);
    ASSERT_TRUE(got_state.has_value());
    const std::vector<uint64_t> got_words(got_state->words.begin(),
                                          got_state->words.end());
    const auto want_state = want.Inspect(kFlow);
    ASSERT_TRUE(want_state.has_value());
    EXPECT_EQ(got_state->round, want_state->round);
    EXPECT_EQ(got_state->ones_in_round, want_state->ones_in_round);
    EXPECT_TRUE(std::equal(got_words.begin(), got_words.end(),
                           want_state->words.begin(),
                           want_state->words.end()));
    EXPECT_EQ(std::bit_cast<uint64_t>(got.Query(kFlow)),
              std::bit_cast<uint64_t>(want.Query(kFlow)));
  }

  void TearDown() override { EXPECT_EQ(FlowInvariantViolations(), 0u); }
};

TEST_P(ColdRecordPathTest, EveryListClassBoundary) {
  // Planted lists are written ascending: below, on and above each
  // capacity, the last of which is the graduation fill (a bitmap row).
  Xoshiro256 rng(0xB0B0 + GetParam());
  const std::vector<size_t> capacities = ListCapacities();
  ASSERT_EQ(capacities.back(), GetParam() == 10000 ? 512u : 2048u);
  std::vector<size_t> fills{0, 1};
  for (const size_t capacity : capacities) {
    fills.insert(fills.end(), {capacity - 1, capacity, capacity + 1});
  }
  for (const size_t fill : fills) {
    SCOPED_TRACE("planted fill " + std::to_string(fill));
    ExpectRoundTrip(RandomState(rng, 0, fill));
  }
}

TEST_P(ColdRecordPathTest, RecordedShortAndLongLists) {
  // Recorded lists: the short classes keep insertion order (frozen
  // through a sorted copy), the long ones were sorted once.
  for (const size_t fill : {size_t{1}, size_t{9}, size_t{15}, size_t{16},
                            size_t{31}, size_t{40}, size_t{63}, size_t{64},
                            size_t{200}}) {
    SCOPED_TRACE("recorded fill " + std::to_string(fill));
    ExpectBuiltRoundTrip([&](ArenaSmbEngine& engine) {
      for (uint64_t e = 0; !engine.Inspect(kFlow).has_value() ||
                           engine.Inspect(kFlow)->ones_in_round < fill;
           ++e) {
        engine.Record(kFlow, e * 0x9E3779B97F4A7C15ULL);
      }
      ASSERT_EQ(engine.Inspect(kFlow)->round, 0u);
    });
  }
}

TEST_P(ColdRecordPathTest, BitmapAndFinalRoundRows) {
  Xoshiro256 rng(0xF1A1 + GetParam());
  const size_t threshold = Geometry().threshold;
  const uint32_t last = static_cast<uint32_t>(
      ArenaSmbEngine(Geometry()).max_round());
  ASSERT_EQ(last, 9u);
  // Mid-round bitmap rows.
  for (const uint32_t round : {1u, 3u}) {
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectRoundTrip(RandomState(rng, round, round * threshold + 17));
  }
  // The final round's fill runs to m - r*T; the estimate clamps it one
  // below. Above, at and below the clamp.
  const size_t full = GetParam() - last * threshold;
  for (const size_t fill : {full, full - 1, full - 2, full / 2}) {
    SCOPED_TRACE("final round, fill " + std::to_string(fill));
    ExpectRoundTrip(RandomState(rng, last, last * threshold + fill));
  }
}

TEST_P(ColdRecordPathTest, OneRecordOfEachMode) {
  Xoshiro256 rng(0x30DE + GetParam());
  const size_t threshold = Geometry().threshold;
  const auto mode = [](uint8_t byte) { return byte & 3; };
  const auto zeros_listed = [](uint8_t byte) { return (byte >> 2) & 1; };

  const State raw = RandomState(rng, 4, 4 * threshold + threshold / 2);
  ASSERT_EQ(mode(ModeByte(raw)), 0);
  const State sparse = RandomState(rng, 0, 100);
  ASSERT_EQ(mode(ModeByte(sparse)), 1);
  ASSERT_EQ(zeros_listed(ModeByte(sparse)), 0);
  // Round 0 in a list class, and a bitmap row, as whole words of ones.
  State list_rle;
  list_rle.words.assign(Words(), 0);
  list_rle.words[10] = list_rle.words[11] = ~uint64_t{0};
  list_rle.ones = 128;
  ASSERT_EQ(mode(ModeByte(list_rle)), 2);
  State bitmap_rle;
  bitmap_rle.round = 2;
  const size_t prefix = RoundUp(2 * threshold + 1, 64);
  bitmap_rle.ones = static_cast<uint32_t>(prefix - 2 * threshold);
  bitmap_rle.words.assign(Words(), 0);
  std::fill_n(bitmap_rle.words.begin(), prefix / 64, ~uint64_t{0});
  ASSERT_EQ(mode(ModeByte(bitmap_rle)), 2);
  const State zeros = RandomState(rng, 9, GetParam() - 5);
  ASSERT_EQ(mode(ModeByte(zeros)), 1);
  ASSERT_EQ(zeros_listed(ModeByte(zeros)), 1);

  for (const auto& [name, state] :
       {std::pair<const char*, const State&>{"raw", raw},
        {"set sparse", sparse},
        {"rle list", list_rle},
        {"rle bitmap", bitmap_rle},
        {"zero sparse", zeros}}) {
    SCOPED_TRACE(name);
    ExpectRoundTrip(state);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ColdRecordPathTest, ::testing::Values(10000, 70000),
    [](const ::testing::TestParamInfo<size_t>& param) {
      return std::string(param.param > 65536 ? "Uint32" : "Uint16") + "M" +
             std::to_string(param.param);
    });

TEST(ArenaColdSnapshotTest, SerializeSmbz1CopiesFrozenRecords) {
  // An evicting engine's direct SMBZ1 bytes, frozen records copied as
  // they are, equal the compressed image of its FLW1 snapshot.
  constexpr size_t kFlows = 300;
  const EnginePair pair = FedPair(kFlows, 0x5B5B);
  ASSERT_GT(pair.cold.Stats().cold_flows, 0u);
  const std::vector<uint8_t> direct = pair.cold.SerializeSmbz1();
  EXPECT_EQ(direct, codec::CompressFlw1Image(pair.cold.Serialize()).value());
  const auto restored = ArenaSmbEngine::DeserializeSmbz1(direct);
  ASSERT_TRUE(restored.has_value());
  ExpectSameStates(*restored, pair.oracle, kFlows);
  EXPECT_EQ(FlowInvariantViolations(), 0u);
}

}  // namespace
}  // namespace smb
