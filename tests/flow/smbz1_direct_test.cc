// The SMBZ1 byte path without an FLW1 image (DESIGN.md §12): what
// SerializeSmbz1 writes straight from the rows must be the bytes
// CompressFlw1Image(Serialize()) and CompressFlw1Image(SerializeFlows())
// write, and what DeserializeSmbz1 and ApplySmbz1 accept must be exactly
// what the image path accepts, restoring the same engine. The fixture
// holds rows at every list-class boundary (recorded, so short lists in
// insertion order, and planted, so lists written in order), bitmap rows,
// final-round rows at the fill clamp, lists the rle mode wins, and
// frozen rows; each case runs with uint16 positions (m = 10000) and
// uint32 ones (m = 70000). Hand-built records reach the readers' other
// branches: list-class states written raw, as rle or over their zero
// bits (decoded into words, not read as positions), sparse records whose
// count disagrees with the fill, and the graduation fill itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codec/smbz1.h"
#include "common/bit_util.h"
#include "common/le_bytes.h"
#include "common/random.h"
#include "estimators/estimator_factory.h"
#include "flow/arena_smb_engine.h"
#include "flow_test_util.h"
#include "hash/murmur3.h"
#include "io/crc32c.h"

namespace smb {
namespace {

// FLW1 framing: magic + five u64 fields, then per flow key + meta +
// words, then the u64 checksum.
constexpr size_t kFlw1HeaderBytes = 44;
// SMBZ1 framing: magic, version, reserved, five u64 fields; u32 CRC.
constexpr size_t kSmbz1HeaderBytes = 48;

std::vector<uint8_t> Compressed(const std::vector<uint8_t>& image) {
  const auto packed = codec::CompressFlw1Image(image);
  EXPECT_TRUE(packed.has_value());
  return packed.value_or(std::vector<uint8_t>{});
}

// Recomputes a container's CRC after an edit, so the edit reaches the
// header checks and the record decoder.
std::vector<uint8_t> Reseal(std::vector<uint8_t> bytes) {
  bytes.resize(bytes.size() - 4);
  AppendU32(&bytes, io::Crc32c(bytes.data(), bytes.size()));
  return bytes;
}

// An FLW1 image edited and re-checksummed, then compressed: SMBZ1 that
// clears the CRC and decodes, carrying the defect the edit planted.
template <typename Edit>
std::vector<uint8_t> EditedImage(std::vector<uint8_t> image, Edit edit) {
  edit(&image);
  image.resize(image.size() - 8);
  AppendU64(&image, Murmur3_128(image.data(), image.size(), 0x464C5731u).lo);
  return Compressed(image);
}

void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  for (; v >= 0x80; v >>= 7) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
  }
  out->push_back(static_cast<uint8_t>(v));
}

void StoreU64(std::vector<uint8_t>* bytes, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

class Smbz1DirectTest : public ::testing::TestWithParam<size_t> {
 protected:
  ArenaSmbEngine::Config Geometry() const {
    EstimatorSpec spec;
    spec.memory_bits = GetParam();
    spec.design_cardinality = 1000000;
    spec.hash_seed = 0xD1EC;
    return *ArenaSmbEngine::ConfigForSpec(spec);
  }

  size_t Words() const { return (GetParam() + 63) / 64; }

  // Plants `words` as a reachable state (round = whole thresholds of the
  // popcount, capped at the final round).
  static void Plant(ArenaSmbEngine& engine, uint64_t flow,
                    const std::vector<uint64_t>& words) {
    uint64_t popcount = 0;
    for (const uint64_t w : words) {
      popcount += static_cast<uint64_t>(Popcount64(w));
    }
    const uint64_t threshold = engine.config().threshold;
    const uint64_t round =
        std::min<uint64_t>(popcount / threshold, engine.max_round());
    ASSERT_TRUE(engine.UpsertFlowState(
        flow, static_cast<uint32_t>(round),
        static_cast<uint32_t>(popcount - round * threshold), words));
  }

  std::vector<uint64_t> RandomBits(Xoshiro256& rng, size_t count) const {
    std::vector<uint64_t> words(Words(), 0);
    for (size_t set = 0; set < count;) {
      const uint64_t pos = rng.NextBounded(GetParam());
      const uint64_t bit = uint64_t{1} << (pos & 63);
      if ((words[pos >> 6] & bit) != 0) continue;
      words[pos >> 6] |= bit;
      ++set;
    }
    return words;
  }

  // Every kind of row the writer treats differently; the same flows
  // whatever residency tuning `engine` has.
  void Fill(ArenaSmbEngine& engine) const {
    Xoshiro256 rng(0xF111 + GetParam());
    const auto classes = ArenaSmbEngine(Geometry()).Stats().classes;
    uint64_t flow = 1;
    // Recorded rows whose fill lands one below, on, and one above every
    // list capacity (the last one graduates to the bitmap).
    for (size_t c = 0; c + 1 < classes.size(); ++c) {
      for (const size_t fill : {classes[c].positions - 1, classes[c].positions,
                                classes[c].positions + 1}) {
        for (uint64_t e = 0; engine.Inspect(flow) == std::nullopt ||
                             (engine.Inspect(flow)->round == 0 &&
                              engine.Inspect(flow)->ones_in_round < fill);
             ++e) {
          engine.Record(flow, rng.Next());
        }
        ++flow;
      }
    }
    // The same boundaries planted, so those lists are written in order.
    for (size_t c = 0; c + 1 < classes.size(); ++c) {
      for (const size_t fill : {classes[c].positions - 1, classes[c].positions,
                                classes[c].positions + 1}) {
        Plant(engine, flow++, RandomBits(rng, fill));
      }
    }
    // Small recorded rows with repeats, and an empty-list state.
    for (size_t i = 0; i < 60; ++i, ++flow) {
      const size_t packets = 1 + rng.NextBounded(12);
      for (size_t p = 0; p < packets; ++p) {
        engine.Record(flow, rng.NextBounded(1 + packets / 2));
      }
    }
    Plant(engine, flow++, std::vector<uint64_t>(Words(), 0));
    // Round-0 lists of whole words of ones: rle beats sparse there.
    for (const size_t full : {size_t{1}, size_t{2}, size_t{3}}) {
      std::vector<uint64_t> words(Words(), 0);
      for (size_t w = 0; w < full; ++w) words[5 + 2 * w] = ~uint64_t{0};
      Plant(engine, flow++, words);
    }
    // Bitmap rows by recording, some past their first morph.
    for (size_t i = 0; i < 4; ++i, ++flow) {
      const size_t packets = 2000 + 3000 * i;
      for (size_t p = 0; p < packets; ++p) engine.Record(flow, rng.Next());
    }
    // Final-round rows: at the fill clamp, and below it.
    const uint64_t threshold = engine.config().threshold;
    const uint64_t last = engine.max_round();
    const size_t clamp = GetParam() - 1;  // v at m - r*T - 1
    Plant(engine, flow++, RandomBits(rng, clamp));
    Plant(engine, flow++,
          RandomBits(rng, (last * threshold + GetParam()) / 2 + 1));
  }

  // The fixture restored under half its live bytes with the cold tier
  // on, so some rows are frozen, then recorded into a little more.
  ArenaSmbEngine FrozenEngine() const {
    ArenaSmbEngine full(Geometry());
    Fill(full);
    ArenaTuning tuning;
    tuning.cold_tier = true;
    tuning.memory_budget_bytes = full.LiveBytes() / 2;
    auto restored = ArenaSmbEngine::Deserialize(full.Serialize(), tuning);
    EXPECT_TRUE(restored.has_value());
    ArenaSmbEngine engine = std::move(*restored);
    Xoshiro256 rng(0xC01D);
    for (size_t p = 0; p < 300; ++p) {
      engine.Record(1 + rng.NextBounded(120), rng.Next());
    }
    EXPECT_GT(engine.Stats().cold_flows, 0u);
    EXPECT_GT(engine.Stats().nursery_flows, 0u);
    EXPECT_GT(engine.Stats().main_flows, 0u);
    return engine;
  }

  // The fill at which a round-0 state leaves the list classes: the last
  // list class's capacity, or T when that is lower.
  size_t GraduationFill() const {
    const auto classes = ArenaSmbEngine(Geometry()).Stats().classes;
    return std::min<size_t>(classes[classes.size() - 2].positions,
                            Geometry().threshold);
  }

  // SMBZ1 containers of hand-built records in the fixture's geometry,
  // each written with EncodeSlotAs in a mode the engine's own writer
  // would not pick, or carrying a defect. Each container also holds two
  // ordinary records around the crafted one (key 7).
  std::vector<std::pair<std::string, std::vector<uint8_t>>> Crafted() const {
    Xoshiro256 rng(0xC2AF + GetParam());
    const ArenaSmbEngine::Config config = Geometry();
    const auto container = [&](const std::vector<uint8_t>& record) {
      std::vector<uint8_t> out;
      codec::BeginContainer({config.num_bits, config.threshold,
                             config.base_seed, 3, Words()},
                            &out);
      const std::vector<uint64_t> short_list = RandomBits(rng, 9);
      const std::vector<uint64_t> long_list = RandomBits(rng, 300);
      AppendU64(&out, 1);
      codec::EncodeSlot(config.num_bits, {0, 9, short_list}, &out);
      AppendU64(&out, 7);
      out.insert(out.end(), record.begin(), record.end());
      AppendU64(&out, 2);
      codec::EncodeSlot(config.num_bits, {0, 300, long_list}, &out);
      codec::SealContainer(&out);
      return out;
    };
    const auto forced = [&](codec::SlotMode mode, uint32_t ones,
                            const std::vector<uint64_t>& words) {
      std::vector<uint8_t> record;
      EXPECT_TRUE(EncodeSlotAs(mode, config.num_bits, {0, ones, words},
                               &record));
      return record;
    };
    // A round-0 state as a sparse record over its zero bits, which no
    // encoder writes for a state this sparse: mode byte, (0, ones), the
    // zero count, then the zero positions as varint gaps.
    const auto zeros_listed = [&](uint32_t ones,
                                  const std::vector<uint64_t>& words) {
      std::vector<uint64_t> gaps;
      uint64_t next = 0;
      for (uint64_t pos = 0; pos < GetParam(); ++pos) {
        if ((words[pos / 64] >> (pos % 64)) & 1) continue;
        gaps.push_back(pos - next);
        next = pos + 1;
      }
      std::vector<uint8_t> record = {0x05};
      for (const uint64_t v : {uint64_t{0}, uint64_t{ones},
                               uint64_t{gaps.size()}}) {
        PutVarint(&record, v);
      }
      for (const uint64_t gap : gaps) PutVarint(&record, gap);
      return record;
    };
    std::vector<std::pair<std::string, std::vector<uint8_t>>> out;
    const size_t graduation = GraduationFill();
    for (const size_t fill : {size_t{0}, size_t{20}, size_t{200},
                              graduation - 1}) {
      const std::vector<uint64_t> words = RandomBits(rng, fill);
      const uint32_t ones = static_cast<uint32_t>(fill);
      const std::string at = " list of " + std::to_string(fill);
      out.emplace_back("sparse" + at,
                       container(forced(codec::SlotMode::kSparse, ones,
                                        words)));
      out.emplace_back("raw" + at, container(forced(codec::SlotMode::kRaw,
                                                    ones, words)));
      out.emplace_back("rle" + at, container(forced(codec::SlotMode::kRle,
                                                    ones, words)));
      out.emplace_back("zeros listed" + at,
                       container(zeros_listed(ones, words)));
      for (const uint32_t wrong : {ones + 1, ones - 1}) {
        if (wrong > graduation) continue;  // ones - 1 wraps at fill 0
        out.emplace_back("sparse" + at + ", ones " + std::to_string(wrong),
                         container(forced(codec::SlotMode::kSparse, wrong,
                                          words)));
        out.emplace_back("zeros listed" + at + ", ones " +
                             std::to_string(wrong),
                         container(zeros_listed(wrong, words)));
      }
    }
    // Exactly the graduation fill: a bitmap-class state (or, when T is
    // the bound, one a round-0 state cannot reach). Two different ones,
    // so a sparse store over a raw one must clear the bitmap first.
    const uint32_t ones = static_cast<uint32_t>(graduation);
    out.emplace_back("raw at the graduation fill",
                     container(forced(codec::SlotMode::kRaw, ones,
                                      RandomBits(rng, graduation))));
    out.emplace_back("sparse at the graduation fill",
                     container(forced(codec::SlotMode::kSparse, ones,
                                      RandomBits(rng, graduation))));
    return out;
  }

  void TearDown() override { EXPECT_EQ(FlowInvariantViolations(), 0u); }
};

TEST_P(Smbz1DirectTest, SerializeSmbz1IsTheCompressedImage) {
  ArenaSmbEngine engine(Geometry());
  Fill(engine);
  EXPECT_EQ(engine.SerializeSmbz1(), Compressed(engine.Serialize()));
  const ArenaSmbEngine frozen = FrozenEngine();
  EXPECT_EQ(frozen.SerializeSmbz1(), Compressed(frozen.Serialize()));
  // And with every flow on a bitmap (no list rows at all).
  ArenaSmbEngine::Config fixed = Geometry();
  fixed.tuning.nursery_capacity = 0;
  ArenaSmbEngine flat(fixed);
  Fill(flat);
  EXPECT_EQ(flat.SerializeSmbz1(), engine.SerializeSmbz1());
  EXPECT_TRUE(engine.ListsWellFormed());
}

TEST_P(Smbz1DirectTest, SerializeSmbz1OfFlowsIsTheCompressedSubset) {
  const ArenaSmbEngine engine = FrozenEngine();
  // Every flow id the fixture used, frozen ones included (they are not
  // live, so both writers skip them), each listed twice, interleaved
  // with unknown ids.
  std::vector<uint64_t> flows;
  for (uint64_t flow = 120; flow > 0; --flow) {
    flows.push_back(flow);
    flows.push_back(1000000 + flow);
    if (flow % 3 == 0) flows.push_back(flow);
  }
  for (uint64_t flow = 1; flow <= 120; ++flow) flows.push_back(flow);
  EXPECT_EQ(engine.SerializeSmbz1(flows),
            Compressed(engine.SerializeFlows(flows)));
  EXPECT_EQ(engine.SerializeSmbz1({}), Compressed(engine.SerializeFlows({})));
  const std::vector<uint64_t> unknown = {7777777, 8888888};
  EXPECT_EQ(engine.SerializeSmbz1(unknown),
            Compressed(engine.SerializeFlows(unknown)));
}

// DeserializeSmbz1 against Deserialize(*DecompressToFlw1Image(b)) over
// the SMBZ1 corruption matrix (every truncation, every bit flip with the
// CRC left stale, bit flips with it recomputed), seeded multi-byte
// mutations, and planted record and header defects: both accept the
// same inputs, and the engines they restore serialize alike.
TEST_P(Smbz1DirectTest, DeserializeSmbz1AcceptsExactlyWhatTheImagePathDoes) {
  ArenaSmbEngine::Config small = Geometry();
  ArenaSmbEngine engine(small);
  Xoshiro256 rng(0xACCE);
  for (uint64_t flow = 1; flow <= 12; ++flow) {
    const size_t packets = 1 + rng.NextBounded(flow < 10 ? 120 : 3000);
    for (size_t p = 0; p < packets; ++p) engine.Record(flow, rng.Next());
  }
  const std::vector<uint8_t> good = engine.SerializeSmbz1();
  const std::vector<uint8_t> image = engine.Serialize();

  size_t accepted = 0, rejected = 0;
  const auto check = [&](const std::vector<uint8_t>& bytes,
                         const std::string& what) {
    const auto direct = ArenaSmbEngine::DeserializeSmbz1(bytes);
    const auto raw = codec::DecompressToFlw1Image(bytes);
    const auto via =
        raw.has_value() ? ArenaSmbEngine::Deserialize(*raw) : std::nullopt;
    ASSERT_EQ(direct.has_value(), via.has_value()) << what;
    if (direct.has_value()) {
      ++accepted;
      ASSERT_EQ(direct->Serialize(), via->Serialize()) << what;
      ASSERT_TRUE(direct->ListsWellFormed()) << what;
    } else {
      ++rejected;
    }
  };

  check(good, "intact");
  const size_t stride = std::max<size_t>(1, good.size() / 400);
  for (size_t cut = 0; cut < good.size(); cut += stride) {
    check(std::vector<uint8_t>(good.begin(),
                               good.begin() + static_cast<ptrdiff_t>(cut)),
          "cut at " + std::to_string(cut));
  }
  for (size_t byte = 0; byte < good.size(); byte += stride) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::vector<uint8_t> bad = good;
      bad[byte] ^= static_cast<uint8_t>(1u << bit);
      check(bad, "stale CRC, flip " + std::to_string(byte));
      check(Reseal(bad), "flip " + std::to_string(byte));
    }
  }
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Xoshiro256 mutate(seed);
    std::vector<uint8_t> bad = good;
    const size_t edits = 1 + mutate.NextBounded(4);
    for (size_t i = 0; i < edits; ++i) {
      const size_t at = mutate.NextBounded(bad.size() - 4);
      bad[at] = static_cast<uint8_t>(mutate.Next());
    }
    check(Reseal(bad), "seed " + std::to_string(seed));
  }

  const size_t record = (2 + Words()) * 8;
  const size_t last = kFlw1HeaderBytes + (engine.NumFlows() - 1) * record;
  check(EditedImage(image,
                    [&](std::vector<uint8_t>* b) { (*b)[last + 8] ^= 1; }),
        "ones off by one in the last record");
  check(EditedImage(image,
                    [&](std::vector<uint8_t>* b) {
                      StoreU64(b, last + 8, uint64_t{1} << 26);
                    }),
        "a round the popcount cannot reach");
  check(EditedImage(image,
                    [&](std::vector<uint8_t>* b) {
                      std::copy_n(b->begin() + kFlw1HeaderBytes, 8,
                                  b->begin() + static_cast<ptrdiff_t>(last));
                    }),
        "duplicate key");
  // Header fields: threshold 0 and above m are outside the envelope, a
  // changed seed or threshold inside it restores a different engine.
  for (const uint64_t threshold :
       {uint64_t{0}, uint64_t{GetParam() + 1}, small.threshold - 1,
        small.threshold + 1}) {
    std::vector<uint8_t> bad = good;
    StoreU64(&bad, 8 + 8, threshold);
    check(Reseal(bad), "threshold " + std::to_string(threshold));
  }
  {
    std::vector<uint8_t> bad = good;
    StoreU64(&bad, 8 + 16, small.base_seed ^ 0xFF);
    check(Reseal(bad), "base seed");
    bad = good;
    StoreU64(&bad, 8 + 24, engine.NumFlows() + 1);
    check(Reseal(bad), "one flow too many");
    bad = good;
    StoreU64(&bad, 8 + 32, Words() + 1);
    check(Reseal(bad), "words_per_slot");
    bad = good;
    bad.insert(bad.end() - 4, uint8_t{0});
    check(Reseal(bad), "trailing byte");
  }
  // Hand-built records: list-class states in the modes the engine's own
  // writer would not pick, counts that disagree with the fill, and the
  // graduation fill.
  const auto crafted = Crafted();
  size_t crafted_accepted = 0;
  for (const auto& [what, bytes] : crafted) {
    const size_t before = accepted;
    check(bytes, what);
    crafted_accepted += accepted - before;
  }
  EXPECT_GE(crafted_accepted, 16u);
  EXPECT_GE(crafted.size() - crafted_accepted, 14u);
  EXPECT_GT(accepted, 5u);
  EXPECT_GT(rejected, 100u);
}

// ApplySmbz1 against the image path it replaces — decompress,
// Deserialize, then UpsertFlowState per flow — on a replica under a
// memory budget (eviction between upserts included): FLW1-identical
// replicas. Then every defect leaves the replica untouched.
TEST_P(Smbz1DirectTest, ApplySmbz1UpsertsWholeOrNothing) {
  ArenaSmbEngine::Config config = Geometry();
  ArenaSmbEngine child(config);
  Fill(child);
  ArenaSmbEngine::Config budgeted = config;
  budgeted.tuning.memory_budget_bytes = child.LiveBytes() / 2;
  budgeted.tuning.cold_tier = true;
  ArenaSmbEngine direct(budgeted);
  ArenaSmbEngine via(budgeted);
  Xoshiro256 rng(0xA991);
  for (uint64_t flow = 1; flow <= 200; ++flow) {
    for (size_t p = 0; p < 1 + flow % 37; ++p) {
      const uint64_t element = rng.Next();
      direct.Record(flow * 3, element);
      via.Record(flow * 3, element);
    }
  }
  ASSERT_EQ(direct.Serialize(), via.Serialize());

  std::vector<uint64_t> delta_flows;
  child.ForEachFlow(
      [&](uint64_t flow, double) { delta_flows.push_back(flow); });
  std::reverse(delta_flows.begin(), delta_flows.end());
  const std::vector<uint8_t> delta = child.SerializeSmbz1(delta_flows);
  ASSERT_TRUE(direct.ApplySmbz1(delta));
  const auto unpacked = codec::DecompressToFlw1Image(delta);
  ASSERT_TRUE(unpacked.has_value());
  const auto staged = ArenaSmbEngine::Deserialize(*unpacked);
  ASSERT_TRUE(staged.has_value());
  staged->ForEachFlowState([&](uint64_t flow, uint32_t round, uint32_t ones,
                               std::span<const uint64_t> words) {
    ASSERT_TRUE(via.UpsertFlowState(flow, round, ones, words));
  });
  EXPECT_EQ(direct.Serialize(), via.Serialize());
  EXPECT_GT(direct.Stats().evicted_flows, 0u);
  EXPECT_TRUE(direct.ListsWellFormed());

  // Re-applying leaves every flow's state as it was (replacement
  // semantics); under the budget it may still move rows to and from the
  // cold tier, so the reference bytes are taken after it.
  ASSERT_TRUE(direct.ApplySmbz1(child.SerializeSmbz1(delta_flows)));
  const std::vector<uint8_t> before = direct.Serialize();

  // Each defect sits in the last record where it is a record defect, so
  // a record-by-record apply would already have changed the replica.
  for (uint64_t e = 0; e < 500; ++e) child.Record(1 + e % 40, e * 977);
  const std::vector<uint8_t> next = child.SerializeSmbz1(delta_flows);
  const std::vector<uint8_t> image = child.SerializeFlows(delta_flows);
  const size_t record = (2 + Words()) * 8;
  const size_t last = kFlw1HeaderBytes + (delta_flows.size() - 1) * record;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> bad;
  {
    std::vector<uint8_t> crc = next;
    crc[kSmbz1HeaderBytes + 3] ^= 0x40;
    bad.emplace_back("bad CRC", crc);
  }
  bad.emplace_back("unreachable state", EditedImage(image, [&](auto* b) {
                     (*b)[last + 8] ^= 1;
                   }));
  bad.emplace_back("duplicate key", EditedImage(image, [&](auto* b) {
                     std::copy_n(b->begin() + kFlw1HeaderBytes, 8,
                                 b->begin() + static_cast<ptrdiff_t>(last));
                   }));
  for (const int field : {0, 1, 2}) {
    std::vector<uint8_t> geometry = next;
    const uint64_t values[] = {GetParam() + 64, config.threshold + 1,
                               config.base_seed + 1};
    StoreU64(&geometry, 8 + 8 * static_cast<size_t>(field), values[field]);
    if (field == 0) StoreU64(&geometry, 8 + 32, Words() + 1);
    bad.emplace_back("geometry field " + std::to_string(field),
                     Reseal(geometry));
  }
  {
    std::vector<uint8_t> trailing = next;
    trailing.insert(trailing.end() - 4, uint8_t{0x80});
    bad.emplace_back("trailing bytes", Reseal(trailing));
  }
  for (const auto& [what, bytes] : bad) {
    EXPECT_FALSE(direct.ApplySmbz1(bytes)) << what;
    EXPECT_EQ(direct.Serialize(), before) << what;
  }
  EXPECT_TRUE(direct.ApplySmbz1(next));
  EXPECT_NE(direct.Serialize(), before);

  // Hand-built records, each container applied to two fresh budgeted
  // replicas holding the first delta: the image path's upserts decide,
  // and a rejected container changes nothing.
  ArenaSmbEngine crafted_direct(budgeted);
  ArenaSmbEngine crafted_via(budgeted);
  ASSERT_TRUE(crafted_direct.ApplySmbz1(delta));
  staged->ForEachFlowState([&](uint64_t flow, uint32_t round, uint32_t ones,
                               std::span<const uint64_t> words) {
    ASSERT_TRUE(crafted_via.UpsertFlowState(flow, round, ones, words));
  });
  size_t crafted_accepted = 0;
  for (const auto& [what, bytes] : Crafted()) {
    const std::vector<uint8_t> prior = crafted_direct.Serialize();
    ASSERT_EQ(prior, crafted_via.Serialize()) << what;
    const auto unpacked_crafted = codec::DecompressToFlw1Image(bytes);
    const auto parsed =
        unpacked_crafted.has_value()
            ? ArenaSmbEngine::Deserialize(*unpacked_crafted)
            : std::nullopt;
    const bool applied = crafted_direct.ApplySmbz1(bytes);
    ASSERT_EQ(applied, parsed.has_value()) << what;
    if (!applied) {
      EXPECT_EQ(crafted_direct.Serialize(), prior) << what;
      continue;
    }
    ++crafted_accepted;
    parsed->ForEachFlowState([&](uint64_t flow, uint32_t round,
                                 uint32_t ones,
                                 std::span<const uint64_t> words) {
      ASSERT_TRUE(crafted_via.UpsertFlowState(flow, round, ones, words));
    });
    EXPECT_EQ(crafted_direct.Serialize(), crafted_via.Serialize()) << what;
    EXPECT_TRUE(crafted_direct.ListsWellFormed()) << what;
  }
  EXPECT_GE(crafted_accepted, 16u);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, Smbz1DirectTest, ::testing::Values(10000, 70000),
    [](const ::testing::TestParamInfo<size_t>& param) {
      return std::string(param.param > 65536 ? "Uint32" : "Uint16") + "M" +
             std::to_string(param.param);
    });

}  // namespace
}  // namespace smb
