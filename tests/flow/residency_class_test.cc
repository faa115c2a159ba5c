// Residency-class bit-identity suite (DESIGN.md §15): a round-0 flow sits
// on a position list in size classes of 16, 32, 64, ... positions and
// graduates to a bitmap slot, and none of that may change a recorded
// bit. Every test holds a list engine to a fixed-stride engine
// (nursery_capacity = 0) fed the same input — FLW1 bytes equal, estimates
// equal bit for bit — across every class boundary, a morph straight out
// of a list, mixed residencies inside one 256-packet block, and the
// restore, upsert, merge and cold-tier paths, and every list it leaves
// holds distinct positions, ascending on the long classes. Each runs
// with uint16 positions (m <= 65536) and with the uint32 fallback
// (m > 65536).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "flow/arena_smb_engine.h"
#include "flow_test_util.h"
#include "hash/batch_hash.h"
#include "stream/trace_gen.h"

namespace smb {
namespace {

class ResidencyClassTest : public ::testing::TestWithParam<size_t> {
 protected:
  // The CLI's design cardinality at this test's m; lists on by default.
  ArenaSmbEngine::Config Geometry() const {
    EstimatorSpec spec;
    spec.memory_bits = GetParam();
    spec.design_cardinality = 1000000;
    spec.hash_seed = 41;
    return *ArenaSmbEngine::ConfigForSpec(spec);
  }

  static ArenaSmbEngine::Config FixedStride(ArenaSmbEngine::Config config) {
    config.tuning.nursery_capacity = 0;
    return config;
  }

  void TearDown() override { EXPECT_EQ(FlowInvariantViolations(), 0u); }
};

uint64_t Bits(double estimate) { return std::bit_cast<uint64_t>(estimate); }

// Same flows, same (r, v) and words, same estimate bits.
void ExpectSameState(const ArenaSmbEngine& a, const ArenaSmbEngine& b,
                     uint64_t flow) {
  const auto sa = a.Inspect(flow);
  const auto sb = b.Inspect(flow);
  ASSERT_TRUE(sa.has_value() && sb.has_value()) << flow;
  const std::vector<uint64_t> words_a(sa->words.begin(), sa->words.end());
  ASSERT_EQ(sa->round, sb->round) << flow;
  ASSERT_EQ(sa->ones_in_round, sb->ones_in_round) << flow;
  ASSERT_TRUE(std::equal(words_a.begin(), words_a.end(), sb->words.begin(),
                         sb->words.end()))
      << flow;
  ASSERT_EQ(Bits(a.Query(flow)), Bits(b.Query(flow))) << flow;
}

// The list invariant the probes and the SMBZ1 writer rely on: distinct
// positions below num_bits, strictly ascending on the long classes.
template <typename... Engines>
void ExpectListsWellFormed(const Engines&... engines) {
  for (const ArenaSmbEngine* engine : {&engines...}) {
    EXPECT_TRUE(engine->ListsWellFormed());
  }
}

// The index (into Stats().classes) of the one class holding a flow.
size_t ClassOfOnlyFlow(const ArenaSmbEngine& engine) {
  const auto classes = engine.Stats().classes;
  for (size_t c = 0; c < classes.size(); ++c) {
    if (classes[c].live_flows == 1) return c;
  }
  return classes.size();
}

// A skewed stream: a few flows take most packets (and leave the lists),
// the tail stays small; about a third of packets repeat an element.
std::vector<Packet> SkewedTrace(size_t num_flows, size_t packets,
                                uint64_t seed) {
  std::vector<Packet> out;
  std::vector<uint64_t> next(num_flows, 0);
  uint64_t x = seed;
  for (size_t i = 0; i < packets; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t r = x >> 17;
    const uint64_t flow = (r % 3 == 0) ? (r >> 3) % num_flows : (r >> 3) % 4;
    const uint64_t element =
        (r % 5 < 2 && next[flow] > 0) ? (r >> 9) % next[flow] : next[flow]++;
    out.push_back(Packet{flow, element});
  }
  return out;
}

TEST_P(ResidencyClassTest, OneFlowCrossesEveryClassBoundaryToTheBitmap) {
  ArenaSmbEngine lists(Geometry());
  ArenaSmbEngine fixed(FixedStride(Geometry()));
  const auto classes = lists.Stats().classes;
  ASSERT_GE(classes.size(), 6u);
  ASSERT_EQ(fixed.Stats().classes.size(), 1u);
  const size_t bitmap = classes.size() - 1;

  size_t moves = 0;
  size_t last = 0;
  size_t after_graduation = 0;
  for (uint64_t e = 0; after_graduation < 64; ++e) {
    ASSERT_LT(e, 100000u) << "never graduated";
    lists.Record(7, e);
    fixed.Record(7, e);
    ExpectSameState(lists, fixed, 7);
    ASSERT_TRUE(lists.ListsWellFormed()) << "after " << e + 1 << " elements";
    const auto state = lists.Inspect(7);
    // The class is a pure function of (r, v): the smallest list class
    // whose capacity exceeds the fill, while round 0 and below the last
    // list capacity.
    size_t expected = bitmap;
    if (state->round == 0) {
      for (size_t c = 0; c < bitmap; ++c) {
        if (classes[c].positions > state->ones_in_round) {
          expected = c;
          break;
        }
      }
    }
    const size_t now = ClassOfOnlyFlow(lists);
    ASSERT_EQ(now, expected) << "after " << e + 1 << " elements";
    if (now != last) ++moves;
    last = now;
    if (now == bitmap) ++after_graduation;
  }
  // Every list class was visited once, then the bitmap.
  EXPECT_EQ(moves, bitmap);
  EXPECT_EQ(lists.Stats().promoted_flows, 1u);
  EXPECT_EQ(lists.Serialize(), fixed.Serialize());
  ExpectListsWellFormed(lists, fixed);
}

TEST_P(ResidencyClassTest, MorphStraightOutOfAList) {
  // T below the last list capacity: the list graduates by morphing.
  ArenaSmbEngine::Config config = Geometry();
  config.threshold = GetParam() > 65536 ? 1000 : 300;
  ArenaSmbEngine lists(config);
  ArenaSmbEngine fixed(FixedStride(config));
  const auto classes = lists.Stats().classes;
  ASSERT_GT(classes[classes.size() - 2].positions, config.threshold);

  uint64_t e = 0;
  for (; lists.Inspect(9) == std::nullopt || lists.Inspect(9)->round == 0;
       ++e) {
    ASSERT_LT(e, 100000u);
    ASSERT_EQ(lists.Stats().main_flows, 0u) << "left the list before T";
    lists.Record(9, e);
    fixed.Record(9, e);
  }
  EXPECT_EQ(lists.Inspect(9)->round, 1u);
  EXPECT_EQ(lists.Stats().main_flows, 1u);
  EXPECT_EQ(lists.Stats().promoted_flows, 1u);
  ExpectSameState(lists, fixed, 9);
  for (uint64_t more = e; more < e + 200; ++more) {
    lists.Record(9, more);
    fixed.Record(9, more);
  }
  ExpectSameState(lists, fixed, 9);
  EXPECT_EQ(lists.Serialize(), fixed.Serialize());
  ExpectListsWellFormed(lists, fixed);
}

TEST_P(ResidencyClassTest, MixedResidenciesAndRepeatsInOneBlock) {
  // Each 256-packet block holds one flow taking fresh elements (it grows
  // through several classes inside a block and graduates mid-block),
  // its repeats, a second growing flow, and a tail of new small flows.
  std::vector<Packet> trace;
  uint64_t hot = 0, warm = 0;
  for (size_t block = 0; block < 24; ++block) {
    for (size_t i = 0; i < kBatchBlock; ++i) {
      switch (i % 8) {
        case 0:
        case 1:
        case 2:
          trace.push_back(Packet{1, hot++});
          break;
        case 3:
          trace.push_back(Packet{1, hot / 2});  // a repeat
          break;
        case 4:
        case 5:
          trace.push_back(Packet{2, warm++});
          break;
        case 6:
          trace.push_back(Packet{100 + (block * 32 + i / 8) % 97, i});
          break;
        default:
          trace.push_back(Packet{2, warm / 3});  // a repeat
          break;
      }
    }
  }
  ArenaSmbEngine batched(Geometry());
  ArenaSmbEngine scalar(Geometry());
  ArenaSmbEngine fixed(FixedStride(Geometry()));
  batched.RecordBatch(trace);
  fixed.RecordBatch(trace);
  for (const Packet& p : trace) scalar.Record(p.flow, p.element);

  const auto stats = batched.Stats();
  EXPECT_GT(stats.nursery_flows, 0u);
  EXPECT_GT(stats.main_flows, 0u);
  const std::vector<uint8_t> image = fixed.Serialize();
  EXPECT_EQ(batched.Serialize(), image);
  EXPECT_EQ(scalar.Serialize(), image);
  for (uint64_t flow : {uint64_t{1}, uint64_t{2}, uint64_t{150}}) {
    ExpectSameState(batched, fixed, flow);
  }
  ExpectListsWellFormed(batched, scalar, fixed);
}

TEST_P(ResidencyClassTest, RestoreLandsEachRowInItsClass) {
  const auto trace = SkewedTrace(200, 30000, 3);
  ArenaSmbEngine lists(Geometry());
  ArenaSmbEngine fixed(FixedStride(Geometry()));
  lists.RecordBatch(trace);
  fixed.RecordBatch(trace);
  const std::vector<uint8_t> image = lists.Serialize();
  ASSERT_EQ(image, fixed.Serialize());

  const auto restored = ArenaSmbEngine::Deserialize(image, Geometry().tuning);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->Serialize(), image);
  const auto before = lists.Stats().classes;
  const auto after = restored->Stats().classes;
  ASSERT_EQ(before.size(), after.size());
  for (size_t c = 0; c < before.size(); ++c) {
    EXPECT_EQ(after[c].live_flows, before[c].live_flows) << "class " << c;
  }
  const auto flat =
      ArenaSmbEngine::Deserialize(image, FixedStride(Geometry()).tuning);
  ASSERT_TRUE(flat.has_value());
  EXPECT_EQ(flat->Stats().nursery_flows, 0u);
  EXPECT_EQ(flat->Serialize(), image);
  ExpectListsWellFormed(lists, fixed, *restored, *flat);
}

TEST_P(ResidencyClassTest, UpsertMovesRowsBetweenClasses) {
  const auto trace = SkewedTrace(120, 20000, 4);
  ArenaSmbEngine fixed(FixedStride(Geometry()));
  fixed.RecordBatch(trace);
  ArenaSmbEngine lists(Geometry());
  fixed.ForEachFlowState([&](uint64_t flow, uint32_t round, uint32_t ones,
                             std::span<const uint64_t> words) {
    ASSERT_TRUE(lists.UpsertFlowState(flow, round, ones, words));
  });
  EXPECT_EQ(lists.Serialize(), fixed.Serialize());
  EXPECT_GT(lists.Stats().nursery_flows, 0u);

  // Replacement semantics: a small state over a bitmap row moves it back
  // to the first list class, and a big one moves it out again.
  uint64_t big = 0;
  fixed.ForEachFlow([&](uint64_t flow, double estimate) {
    if (estimate > fixed.Query(big)) big = flow;
  });
  const size_t main_before = lists.Stats().main_flows;
  const size_t first_class_before = lists.Stats().classes[0].live_flows;
  std::vector<uint64_t> small((Geometry().num_bits + 63) / 64, 0);
  small[0] = 0b1011;
  ASSERT_TRUE(lists.UpsertFlowState(big, 0, 3, small));
  EXPECT_EQ(lists.Stats().main_flows, main_before - 1);
  EXPECT_EQ(lists.Stats().classes[0].live_flows, first_class_before + 1);
  const auto state = lists.Inspect(big);
  EXPECT_TRUE(std::equal(small.begin(), small.end(), state->words.begin()));
  const auto original = fixed.Inspect(big);
  const std::vector<uint64_t> words(original->words.begin(),
                                    original->words.end());
  ASSERT_TRUE(lists.UpsertFlowState(
      big, static_cast<uint32_t>(original->round),
      static_cast<uint32_t>(original->ones_in_round), words));
  EXPECT_EQ(lists.Stats().main_flows, main_before);
  EXPECT_EQ(lists.Serialize(), fixed.Serialize());
  ExpectListsWellFormed(lists, fixed);
}

TEST_P(ResidencyClassTest, MergeAndQueryMergedMatchFixedStride) {
  const auto trace = SkewedTrace(150, 40000, 5);
  const size_t half = trace.size() / 2;
  const std::span<const Packet> first(trace.data(), half);
  const std::span<const Packet> second(trace.data() + half,
                                       trace.size() - half);
  ArenaSmbEngine a(Geometry()), b(Geometry());
  ArenaSmbEngine a_fixed(FixedStride(Geometry()));
  ArenaSmbEngine b_fixed(FixedStride(Geometry()));
  a.RecordBatch(first);
  b.RecordBatch(second);
  a_fixed.RecordBatch(first);
  b_fixed.RecordBatch(second);

  auto merged = ArenaSmbEngine::Deserialize(a.Serialize(), Geometry().tuning);
  auto merged_fixed = ArenaSmbEngine::Deserialize(
      a_fixed.Serialize(), FixedStride(Geometry()).tuning);
  ASSERT_TRUE(merged.has_value() && merged_fixed.has_value());
  merged->MergeFrom(b);
  merged_fixed->MergeFrom(b_fixed);
  EXPECT_EQ(merged->Serialize(), merged_fixed->Serialize());
  EXPECT_GT(merged->Stats().nursery_flows, 0u);

  const ArenaSmbEngine* replicas[] = {&a, &b};
  for (uint64_t flow = 0; flow < 150; ++flow) {
    ASSERT_EQ(Bits(ArenaSmbEngine::QueryMerged(replicas, flow)),
              Bits(merged_fixed->Query(flow)))
        << flow;
  }
  ExpectListsWellFormed(a, b, *merged, *merged_fixed);
}

TEST_P(ResidencyClassTest, ColdTierFreezesAndThawsListRows) {
  // Budgeted and frozen against an unbudgeted fixed-stride oracle: every
  // flow, live or frozen, holds the oracle's bits.
  const auto trace = SkewedTrace(300, 40000, 6);
  ArenaSmbEngine oracle(FixedStride(Geometry()));
  oracle.RecordBatch(trace);
  ArenaSmbEngine unbudgeted(Geometry());
  unbudgeted.RecordBatch(trace);
  ArenaSmbEngine::Config config = Geometry();
  config.tuning.memory_budget_bytes = unbudgeted.LiveBytes() / 3;
  config.tuning.cold_tier = true;
  ArenaSmbEngine engine(config);
  engine.RecordBatch(trace);
  EXPECT_GT(engine.Stats().thawed_flows, 0u);
  EXPECT_GT(engine.Stats().cold_flows, 0u);
  for (uint64_t flow = 0; flow < 300; ++flow) {
    ExpectSameState(engine, oracle, flow);
  }
  EXPECT_EQ(engine.Serialize().size(), oracle.Serialize().size());
  ExpectListsWellFormed(engine, oracle, unbudgeted);
}

TEST_P(ResidencyClassTest, ThawedRoundZeroFlowReturnsToAList) {
  // Twelve 3-element flows fill the budget exactly; a thirteenth evicts
  // flow 0 (CLOCK clears every reference byte, then takes row 0). Flow 0
  // thaws into the first list class, and the boundary evicts flow 1.
  ArenaSmbEngine::Config config = Geometry();
  config.tuning.cold_tier = true;
  ArenaSmbEngine probe(Geometry());
  for (uint64_t e = 0; e < 3; ++e) probe.Record(0, e);
  config.tuning.memory_budget_bytes = 12 * probe.LiveBytes();
  ArenaSmbEngine engine(config);
  ArenaSmbEngine oracle(FixedStride(Geometry()));
  const auto record = [&](uint64_t flow, uint64_t element) {
    engine.Record(flow, element);
    oracle.Record(flow, element);
  };
  for (uint64_t flow = 0; flow < 13; ++flow) {
    for (uint64_t e = 0; e < 3; ++e) record(flow, e);
  }
  const std::vector<uint8_t> no_flows = engine.SerializeFlows({});
  ASSERT_EQ(engine.Stats().cold_flows, 1u);
  ASSERT_EQ(engine.SerializeFlows(std::vector<uint64_t>{0}), no_flows);
  record(0, 1);  // a repeat: thaw, then the gate and a duplicate probe
  EXPECT_NE(engine.SerializeFlows(std::vector<uint64_t>{0}), no_flows);
  const auto stats = engine.Stats();
  EXPECT_EQ(stats.thawed_flows, 1u);
  EXPECT_EQ(stats.main_flows, 0u);
  EXPECT_EQ(stats.classes[0].live_flows, stats.live_flows);
  for (uint64_t flow = 0; flow < 13; ++flow) {
    ExpectSameState(engine, oracle, flow);
  }
  ExpectListsWellFormed(engine, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ResidencyClassTest, ::testing::Values(10000, 70000),
    [](const ::testing::TestParamInfo<size_t>& param) {
      return std::string(param.param > 65536 ? "Uint32" : "Uint16") + "M" +
             std::to_string(param.param);
    });

}  // namespace
}  // namespace smb
