// Corrupt-input property tests for the SMB snapshot format: any
// truncation, extension, or bit corruption must yield std::nullopt (never
// UB, never a silently-wrong estimator). Structural checks are exercised
// separately with a recomputed checksum, so both defense layers (checksum
// for accidental corruption, invariants for buggy/hostile writers) are
// covered.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"
#include "core/self_morphing_bitmap.h"
#include "hash/murmur3.h"

namespace smb {
namespace {

// Mirror of the format constants in self_morphing_bitmap.cc.
constexpr uint64_t kChecksumSeed = 0x534D4232u;  // "SMB2"
// Header field offsets (after the 4-byte magic).
constexpr size_t kNumBitsOffset = 4;
constexpr size_t kThresholdOffset = 12;
constexpr size_t kRoundOffset = 28;
constexpr size_t kOnesOffset = 36;
constexpr size_t kWordCountOffset = 44;
constexpr size_t kWordsOffset = 52;

void WriteU64At(std::vector<uint8_t>* bytes, size_t offset, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<uint8_t>(v >> (8 * i));
  }
}

uint64_t ReadU64At(const std::vector<uint8_t>& bytes, size_t offset) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(bytes[offset + static_cast<size_t>(i)])
         << (8 * i);
  }
  return v;
}

// Re-signs a crafted snapshot so it passes the checksum gate and reaches
// the structural validation under test.
void FixChecksum(std::vector<uint8_t>* bytes) {
  const uint64_t checksum =
      Murmur3_128(bytes->data(), bytes->size() - 8, kChecksumSeed).lo;
  WriteU64At(bytes, bytes->size() - 8, checksum);
}

SelfMorphingBitmap MakeLoaded(uint64_t seed, size_t items) {
  SelfMorphingBitmap::Config config;
  config.num_bits = 1000;
  config.threshold = 100;
  config.hash_seed = seed;
  SelfMorphingBitmap smb(config);
  Xoshiro256 rng(seed + 1);
  for (size_t i = 0; i < items; ++i) smb.Add(rng.Next());
  return smb;
}

TEST(SmbCorruptInputTest, TruncationAtEveryByteOffset) {
  const auto bytes = MakeLoaded(3, 4000).Serialize();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(SelfMorphingBitmap::Deserialize(truncated).has_value())
        << "cut=" << cut;
  }
}

TEST(SmbCorruptInputTest, OversizedPayloadRejected) {
  const auto bytes = MakeLoaded(4, 4000).Serialize();
  for (size_t extra : {size_t{1}, size_t{8}, size_t{64}}) {
    auto padded = bytes;
    padded.insert(padded.end(), extra, 0xAB);
    EXPECT_FALSE(SelfMorphingBitmap::Deserialize(padded).has_value())
        << "extra=" << extra;
    // Even re-signed, the trailing bytes must be rejected, not ignored.
    FixChecksum(&padded);
    EXPECT_FALSE(SelfMorphingBitmap::Deserialize(padded).has_value())
        << "extra=" << extra << " (re-signed)";
  }
}

TEST(SmbCorruptInputTest, TrailingGarbagePropertyOverRandomStates) {
  // Property: for ANY reachable estimator state and ANY non-empty suffix,
  // Deserialize(Serialize(state) + suffix) == nullopt. Randomized over
  // states (fill level decides round/ones geometry) and suffixes.
  Xoshiro256 rng(0xA11CE);
  for (int iteration = 0; iteration < 100; ++iteration) {
    const auto bytes =
        MakeLoaded(rng.Next(), 100 + rng.NextBounded(8000)).Serialize();
    auto padded = bytes;
    const size_t extra = 1 + rng.NextBounded(96);
    for (size_t i = 0; i < extra; ++i) {
      padded.push_back(static_cast<uint8_t>(rng.Next()));
    }
    EXPECT_FALSE(SelfMorphingBitmap::Deserialize(padded).has_value())
        << "iteration=" << iteration << " extra=" << extra;
    FixChecksum(&padded);
    EXPECT_FALSE(SelfMorphingBitmap::Deserialize(padded).has_value())
        << "iteration=" << iteration << " extra=" << extra
        << " (re-signed)";
    // The unpadded snapshot is the control: it must still load.
    EXPECT_TRUE(SelfMorphingBitmap::Deserialize(bytes).has_value());
  }
}

TEST(SmbCorruptInputTest, SingleBitFlipAnywhereRejected) {
  const auto bytes = MakeLoaded(5, 4000).Serialize();
  ASSERT_TRUE(SelfMorphingBitmap::Deserialize(bytes).has_value());
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = bytes;
      corrupted[offset] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(SelfMorphingBitmap::Deserialize(corrupted).has_value())
          << "offset=" << offset << " bit=" << bit;
    }
  }
}

TEST(SmbCorruptInputTest, OnesAtOrAboveThresholdInNonFinalRoundRejected) {
  // A non-final round morphs the instant v reaches T, so v >= T is
  // unreachable there. Keep popcount == round*T + ones consistent by
  // claiming round 0 owns all the set bits.
  SelfMorphingBitmap smb = MakeLoaded(6, 2500);
  ASSERT_GT(smb.round(), 0u);
  auto bytes = smb.Serialize();
  const uint64_t total_ones =
      smb.round() * smb.threshold() + smb.ones_in_round();
  WriteU64At(&bytes, kRoundOffset, 0);
  WriteU64At(&bytes, kOnesOffset, total_ones);
  FixChecksum(&bytes);
  ASSERT_GE(total_ones, smb.threshold());
  EXPECT_FALSE(SelfMorphingBitmap::Deserialize(bytes).has_value());
}

TEST(SmbCorruptInputTest, OnesAboveLogicalBitsRejected) {
  auto bytes = MakeLoaded(7, 100).Serialize();
  // num_bits=1000, T=100 -> max_round=9, logical bitmap of round 9 has
  // 100 bits. Claim ones=200 there (> logical bits, < stored popcount is
  // irrelevant: this check fires before the popcount cross-check).
  WriteU64At(&bytes, kRoundOffset, 9);
  WriteU64At(&bytes, kOnesOffset, 200);
  FixChecksum(&bytes);
  EXPECT_FALSE(SelfMorphingBitmap::Deserialize(bytes).has_value());
}

TEST(SmbCorruptInputTest, StraySetBitAboveNumBitsRejected) {
  SelfMorphingBitmap smb = MakeLoaded(8, 500);
  auto bytes = smb.Serialize();
  // 1000 bits -> the last word holds bits 960..999; bit 62 of it is above
  // num_bits. Bump the ones header too so the popcount cross-check stays
  // consistent and the tail-bit check is what must fire.
  const size_t last_word_offset = bytes.size() - 16;
  uint64_t last_word = ReadU64At(bytes, last_word_offset);
  ASSERT_EQ(last_word >> 40, 0u);
  last_word |= uint64_t{1} << 62;
  WriteU64At(&bytes, last_word_offset, last_word);
  WriteU64At(&bytes, kOnesOffset, ReadU64At(bytes, kOnesOffset) + 1);
  FixChecksum(&bytes);
  EXPECT_FALSE(SelfMorphingBitmap::Deserialize(bytes).has_value());
}

TEST(SmbCorruptInputTest, PopcountHeaderMismatchRejected) {
  SelfMorphingBitmap smb = MakeLoaded(9, 2000);
  // Claiming one fewer/more set bit than the bitmap holds must fail even
  // with a valid checksum: the header would shift Estimate() arbitrarily.
  for (long long delta : {-1, 1}) {
    auto bytes = smb.Serialize();
    const uint64_t ones = ReadU64At(bytes, kOnesOffset);
    ASSERT_GT(ones, 0u);
    WriteU64At(&bytes, kOnesOffset,
               ones + static_cast<uint64_t>(delta));
    FixChecksum(&bytes);
    EXPECT_FALSE(SelfMorphingBitmap::Deserialize(bytes).has_value())
        << "delta=" << delta;
  }
}

TEST(SmbCorruptInputTest, WordCountMismatchRejected) {
  auto bytes = MakeLoaded(10, 1000).Serialize();
  const uint64_t word_count = ReadU64At(bytes, kWordCountOffset);
  WriteU64At(&bytes, kWordCountOffset, word_count + 1);
  FixChecksum(&bytes);
  EXPECT_FALSE(SelfMorphingBitmap::Deserialize(bytes).has_value());
}

// num_bits = 2^64 - 1 wraps a `(num_bits + 63) / 64` word count to
// zero, so a header-only image with word_count 0 would pass the size
// check and leave no last word for the tail-bit check to read.
TEST(SmbCorruptInputTest, WordCountThatWrapsRejected) {
  auto bytes = MakeLoaded(12, 10).Serialize();
  bytes.resize(kWordsOffset + 8);
  WriteU64At(&bytes, kNumBitsOffset, ~uint64_t{0});
  WriteU64At(&bytes, kThresholdOffset, ~uint64_t{0});
  WriteU64At(&bytes, kRoundOffset, 0);
  WriteU64At(&bytes, kOnesOffset, 0);
  WriteU64At(&bytes, kWordCountOffset, 0);
  FixChecksum(&bytes);
  EXPECT_FALSE(SelfMorphingBitmap::Deserialize(bytes).has_value());
}

TEST(SmbCorruptInputTest, CraftedButConsistentSnapshotAccepted) {
  // Sanity check that FixChecksum + the offset map above match the real
  // format: an untouched re-signed snapshot still round-trips.
  auto bytes = MakeLoaded(11, 3000).Serialize();
  FixChecksum(&bytes);
  EXPECT_TRUE(SelfMorphingBitmap::Deserialize(bytes).has_value());
  EXPECT_EQ(ReadU64At(bytes, kNumBitsOffset), 1000u);
  EXPECT_EQ(ReadU64At(bytes, kThresholdOffset), 100u);
  EXPECT_EQ(ReadU64At(bytes, kWordCountOffset), 16u);
  EXPECT_GE(bytes.size(), kWordsOffset + 16 * 8 + 8);
}

}  // namespace
}  // namespace smb
