// SMBZ1 codec structural tests: per-slot mode selection and round-trip
// identity, full FLW1-image compression round-trips through a real
// engine, format sniffing, and back-compat guarantees (the property and
// corrupt-input matrices live in smbz1_property_test.cc).

#include "codec/smbz1.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"
#include "flow/arena_smb_engine.h"
#include "hash/murmur3.h"

namespace smb::codec {
namespace {

constexpr uint64_t kNumBits = 256;
constexpr size_t kWords = (kNumBits + 63) / 64;

std::vector<uint64_t> WordsWithBits(std::initializer_list<uint32_t> bits) {
  std::vector<uint64_t> words(kWords, 0);
  for (const uint32_t pos : bits) {
    words[pos >> 6] |= uint64_t{1} << (pos & 63);
  }
  return words;
}

// Decodes one slot record that must consume the whole buffer.
void ExpectDecodes(const std::vector<uint8_t>& record, uint32_t want_round,
                   uint32_t want_ones,
                   const std::vector<uint64_t>& want_words,
                   SlotMode want_mode) {
  size_t pos = 0;
  DecodedSlot slot;
  std::vector<uint64_t> words(kWords, 0xDEADBEEFCAFEF00Dull);
  ASSERT_TRUE(DecodeSlot(record, &pos, kNumBits, &slot, words));
  EXPECT_EQ(pos, record.size());
  EXPECT_EQ(slot.round, want_round);
  EXPECT_EQ(slot.ones, want_ones);
  EXPECT_EQ(slot.mode, want_mode);
  EXPECT_EQ(words, want_words);
}

TEST(Smbz1SlotTest, SparseWinsForLowFill) {
  const std::vector<uint64_t> words = WordsWithBits({3, 64, 65, 200});
  SlotState state{0, 4, words};
  std::vector<uint8_t> out;
  CodecStats stats;
  EncodeSlot(kNumBits, state, &out, &stats);
  EXPECT_EQ(stats.sparse_slots, 1u);
  // Far below the 1 + varints + 32-byte raw payload.
  EXPECT_LT(out.size(), 10u);
  ExpectDecodes(out, 0, 4, words, SlotMode::kSparse);
}

TEST(Smbz1SlotTest, SparseZeroPolarityWinsForDenseFill) {
  // Final-round style state: everything set except a handful of zeros.
  std::vector<uint64_t> words(kWords, ~uint64_t{0});
  for (const uint32_t pos : {17u, 99u, 255u}) {
    words[pos >> 6] &= ~(uint64_t{1} << (pos & 63));
  }
  SlotState state{7, 29, words};
  std::vector<uint8_t> out;
  CodecStats stats;
  EncodeSlot(kNumBits, state, &out, &stats);
  EXPECT_EQ(stats.sparse_slots, 1u);
  EXPECT_LT(out.size(), 12u);
  ExpectDecodes(out, 7, 29, words, SlotMode::kSparse);
}

TEST(Smbz1SlotTest, RawFallbackForHighEntropyMidFill) {
  // A p~0.5 random bitmap carries ~1 bit/bit of entropy; no mode can
  // beat the verbatim words, so the encoder must not try.
  std::vector<uint64_t> words(kWords);
  Xoshiro256 rng(0xF00D);
  for (auto& w : words) w = rng.Next();
  uint32_t ones = 0;
  for (const uint64_t w : words) {
    ones += static_cast<uint32_t>(__builtin_popcountll(w));
  }
  SlotState state{3, ones - 3 * 32, words};
  std::vector<uint8_t> out;
  CodecStats stats;
  EncodeSlot(kNumBits, state, &out, &stats);
  EXPECT_EQ(stats.raw_slots, 1u);
  // Never worse than raw payload + small header.
  EXPECT_LE(out.size(), kWords * 8 + 6);
  ExpectDecodes(out, 3, state.ones, words, SlotMode::kRaw);
}

TEST(Smbz1SlotTest, RleWinsForClusteredRuns) {
  // One solid run of ones inside zeros: RLE names three runs; sparse
  // would name 128 positions.
  std::vector<uint64_t> words(kWords, 0);
  words[1] = ~uint64_t{0};
  words[2] = ~uint64_t{0};
  SlotState state{0, 128, words};
  std::vector<uint8_t> out;
  CodecStats stats;
  EncodeSlot(kNumBits, state, &out, &stats);
  EXPECT_EQ(stats.rle_slots, 1u);
  EXPECT_LT(out.size(), 10u);
  ExpectDecodes(out, 0, 128, words, SlotMode::kRle);
}

TEST(Smbz1SlotTest, EmptySlotEncodesTiny) {
  const std::vector<uint64_t> words(kWords, 0);
  SlotState state{0, 0, words};
  std::vector<uint8_t> out;
  EncodeSlot(kNumBits, state, &out);
  EXPECT_LE(out.size(), 5u);
  size_t pos = 0;
  DecodedSlot slot;
  std::vector<uint64_t> decoded(kWords, 1);
  ASSERT_TRUE(DecodeSlot(out, &pos, kNumBits, &slot, decoded));
  EXPECT_EQ(decoded, words);
}

TEST(Smbz1SlotTest, ForcedModesAllRoundTrip) {
  const std::vector<uint64_t> words = WordsWithBits({0, 1, 63, 64, 130});
  SlotState state{1, 5, words};
  for (const SlotMode mode :
       {SlotMode::kRaw, SlotMode::kSparse, SlotMode::kRle}) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(EncodeSlotAs(mode, kNumBits, state, &out));
    ExpectDecodes(out, 1, 5, words, mode);
  }
}

// ---------------------------------------------------------------------------
// Whole-image round trips through a real engine.

ArenaSmbEngine PopulatedEngine(size_t flows, uint64_t seed) {
  ArenaSmbEngine::Config config;
  config.num_bits = 256;
  config.threshold = 32;
  config.base_seed = 0x5EED;
  ArenaSmbEngine engine(config);
  Xoshiro256 rng(seed);
  for (uint64_t flow = 1; flow <= flows; ++flow) {
    const size_t packets = 1 + rng.NextBounded(300);
    for (size_t p = 0; p < packets; ++p) engine.Record(flow, rng.Next());
  }
  return engine;
}

TEST(Smbz1ImageTest, CompressDecompressIsByteIdentical) {
  const ArenaSmbEngine engine = PopulatedEngine(64, 42);
  const std::vector<uint8_t> flw1 = engine.Serialize();
  CodecStats stats;
  const auto packed = CompressFlw1Image(flw1, &stats);
  ASSERT_TRUE(packed.has_value());
  EXPECT_TRUE(IsSmbz1Image(*packed));
  EXPECT_FALSE(IsSmbz1Image(flw1));
  EXPECT_EQ(stats.raw_bytes, flw1.size());
  EXPECT_EQ(stats.encoded_bytes, packed->size());
  const auto unpacked = DecompressToFlw1Image(*packed);
  ASSERT_TRUE(unpacked.has_value());
  EXPECT_EQ(*unpacked, flw1);
  // ...and the rebuilt image still deserializes.
  EXPECT_TRUE(ArenaSmbEngine::Deserialize(*unpacked).has_value());
}

TEST(Smbz1ImageTest, EmptyEngineImageRoundTrips) {
  ArenaSmbEngine::Config config;
  config.num_bits = 256;
  config.threshold = 32;
  const ArenaSmbEngine engine(config);
  const std::vector<uint8_t> flw1 = engine.Serialize();
  const auto packed = CompressFlw1Image(flw1);
  ASSERT_TRUE(packed.has_value());
  const auto unpacked = DecompressToFlw1Image(*packed);
  ASSERT_TRUE(unpacked.has_value());
  EXPECT_EQ(*unpacked, flw1);
}

TEST(Smbz1ImageTest, SparseFlowsCompressHard) {
  // Single-packet flows: each slot is one position; the per-flow cost
  // collapses from 8 + 8 + 32 bytes to ~8 + 4.
  ArenaSmbEngine::Config config;
  config.num_bits = 256;
  config.threshold = 32;
  ArenaSmbEngine engine(config);
  Xoshiro256 rng(7);
  for (uint64_t flow = 1; flow <= 500; ++flow) engine.Record(flow, rng.Next());
  const std::vector<uint8_t> flw1 = engine.Serialize();
  const auto packed = CompressFlw1Image(flw1);
  ASSERT_TRUE(packed.has_value());
  EXPECT_GE(flw1.size(), packed->size() * 3)
      << "sparse image should compress at least 3x: " << flw1.size()
      << " -> " << packed->size();
  EXPECT_EQ(*DecompressToFlw1Image(*packed), flw1);
}

TEST(Smbz1ImageTest, RejectsNonFlw1Input) {
  EXPECT_FALSE(CompressFlw1Image(std::vector<uint8_t>{}).has_value());
  std::vector<uint8_t> junk(100, 0xAB);
  EXPECT_FALSE(CompressFlw1Image(junk).has_value());
  // A valid image with one payload bit flipped fails the FLW1 checksum.
  const ArenaSmbEngine engine = PopulatedEngine(8, 3);
  std::vector<uint8_t> flw1 = engine.Serialize();
  flw1[flw1.size() / 2] ^= 0x10;
  EXPECT_FALSE(CompressFlw1Image(flw1).has_value());
}

// Header and checksum only, claiming 2^61 flows: num_flows times the
// record size wraps size_t to exactly the 52-byte image size, so a size
// check that multiplies would accept it and encode records that are
// not there.
TEST(Smbz1ImageTest, RejectsFlowCountThatWrapsSizeCheck) {
  std::vector<uint8_t> flw1 = PopulatedEngine(0, 1).Serialize();
  ASSERT_EQ(flw1.size(), 52u);
  constexpr size_t kNumFlowsOffset = 4 + 3 * 8;
  const uint64_t num_flows = uint64_t{1} << 61;
  std::memcpy(flw1.data() + kNumFlowsOffset, &num_flows, 8);
  const uint64_t checksum = Murmur3_128(flw1.data(), 44, 0x464C5731u).lo;
  std::memcpy(flw1.data() + 44, &checksum, 8);
  EXPECT_FALSE(CompressFlw1Image(flw1).has_value());
}

TEST(Smbz1ImageTest, RejectsWrongVersionAndReserved) {
  const ArenaSmbEngine engine = PopulatedEngine(8, 4);
  const std::vector<uint8_t> flw1 = engine.Serialize();
  const auto packed = CompressFlw1Image(flw1);
  ASSERT_TRUE(packed.has_value());
  {
    std::vector<uint8_t> bad = *packed;
    bad[5] = 2;  // version
    EXPECT_FALSE(IsSmbz1Image(bad));
    EXPECT_FALSE(DecompressToFlw1Image(bad).has_value());
  }
  {
    std::vector<uint8_t> bad = *packed;
    bad[6] = 1;  // reserved
    EXPECT_FALSE(DecompressToFlw1Image(bad).has_value());
  }
}

}  // namespace
}  // namespace smb::codec
