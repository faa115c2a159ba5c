// SMBZ1 property suite: 200 random morph states per mode must round-trip
// bit-identically (forced through each mode AND through the automatic
// chooser), the chooser must never beat raw's size bound, and a corrupt
// input matrix (truncation at every length, a bit flip at every byte,
// mode-byte garbage) must always be rejected — never crash, never decode
// to different bits. Runs under ASan/UBSan in CI.

#include "codec/smbz1.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <vector>

#include "common/random.h"
#include "flow/arena_smb_engine.h"

namespace smb::codec {
namespace {

constexpr size_t kStatesPerMode = 200;

struct Geometry {
  uint64_t num_bits;
  uint64_t threshold;
};

// Mixed word-aligned and ragged-tail widths.
constexpr Geometry kGeometries[] = {{256, 32}, {200, 25}, {1000, 100}};

struct MorphState {
  uint32_t round = 0;
  uint32_t ones = 0;
  std::vector<uint64_t> words;
};

// A random reachable (r, v, bitmap) for the geometry: popcount equals
// r*T + v, v < T below the final round, no bits above num_bits.
MorphState RandomState(Xoshiro256& rng, const Geometry& g,
                       uint64_t max_round) {
  MorphState state;
  state.round = static_cast<uint32_t>(rng.NextBounded(max_round + 1));
  const uint64_t remaining = g.num_bits - state.round * g.threshold;
  const uint64_t fill_cap =
      state.round < max_round ? std::min<uint64_t>(g.threshold, remaining)
                              : remaining + 1;
  state.ones = static_cast<uint32_t>(rng.NextBounded(fill_cap));
  const size_t popcount = state.round * g.threshold + state.ones;
  std::vector<uint32_t> positions(g.num_bits);
  std::iota(positions.begin(), positions.end(), 0);
  for (size_t i = 0; i < popcount; ++i) {
    const size_t j = i + rng.NextBounded(g.num_bits - i);
    std::swap(positions[i], positions[j]);
  }
  state.words.assign((g.num_bits + 63) / 64, 0);
  for (size_t i = 0; i < popcount; ++i) {
    state.words[positions[i] >> 6] |= uint64_t{1} << (positions[i] & 63);
  }
  return state;
}

void ExpectRoundTrip(const Geometry& g, const MorphState& state,
                     const std::vector<uint8_t>& record) {
  size_t pos = 0;
  DecodedSlot slot;
  std::vector<uint64_t> words(state.words.size(), ~uint64_t{0});
  ASSERT_TRUE(DecodeSlot(record, &pos, g.num_bits, &slot, words));
  ASSERT_EQ(pos, record.size());
  EXPECT_EQ(slot.round, state.round);
  EXPECT_EQ(slot.ones, state.ones);
  EXPECT_EQ(words, state.words);
}

TEST(Smbz1PropertyTest, TwoHundredRandomStatesPerForcedMode) {
  Xoshiro256 rng(0x5EEDC0DE);
  for (const Geometry& g : kGeometries) {
    // Structural round bound only — the codec doesn't know SmbMaxRound;
    // pick rounds that keep remaining bits positive.
    const uint64_t max_round = (g.num_bits - 1) / g.threshold - 1;
    for (const SlotMode mode :
         {SlotMode::kRaw, SlotMode::kSparse, SlotMode::kRle}) {
      for (size_t i = 0; i < kStatesPerMode; ++i) {
        const MorphState state = RandomState(rng, g, max_round);
        std::vector<uint8_t> record;
        // Tail-clean by construction, so every mode can represent every
        // state.
        ASSERT_TRUE(EncodeSlotAs(
            mode, g.num_bits,
            SlotState{state.round, state.ones, state.words}, &record));
        ExpectRoundTrip(g, state, record);
      }
    }
  }
}

TEST(Smbz1PropertyTest, AutoChooserRoundTripsAndNeverBeatsRawBound) {
  Xoshiro256 rng(0xBEEF);
  for (const Geometry& g : kGeometries) {
    const uint64_t max_round = (g.num_bits - 1) / g.threshold - 1;
    for (size_t i = 0; i < kStatesPerMode; ++i) {
      const MorphState state = RandomState(rng, g, max_round);
      std::vector<uint8_t> chosen;
      EncodeSlot(g.num_bits, SlotState{state.round, state.ones, state.words},
                 &chosen);
      ExpectRoundTrip(g, state, chosen);
      std::vector<uint8_t> raw;
      ASSERT_TRUE(EncodeSlotAs(
          SlotMode::kRaw, g.num_bits,
          SlotState{state.round, state.ones, state.words}, &raw));
      // "Never worse": the chooser prices raw too, so it can only win.
      EXPECT_LE(chosen.size(), raw.size());
    }
  }
}

// Runs of zero words, all-ones words and random literals, so rle is
// priced against real competition. `tail_clean` = false leaves stray
// bits above num_bits in a ragged last word, which rules sparse out.
MorphState ClusteredState(Xoshiro256& rng, const Geometry& g,
                          bool tail_clean) {
  MorphState state;
  state.words.assign((g.num_bits + 63) / 64, 0);
  size_t w = 0;
  while (w < state.words.size()) {
    const uint64_t kind = rng.NextBounded(3);
    const size_t len = 1 + rng.NextBounded(6);
    for (size_t i = 0; i < len && w < state.words.size(); ++i, ++w) {
      state.words[w] = kind == 0 ? 0 : kind == 1 ? ~uint64_t{0} : rng.Next();
    }
  }
  const size_t tail = g.num_bits % 64;
  if (tail_clean && tail != 0) {
    state.words.back() &= (uint64_t{1} << tail) - 1;
  }
  // The codec carries (r, v) verbatim; it never checks them against the
  // bitmap, so any in-range pair exercises the header path.
  state.round = static_cast<uint32_t>(rng.NextBounded(8));
  state.ones = static_cast<uint32_t>(rng.NextBounded(g.threshold));
  return state;
}

// The shortest forced encoding, ties broken raw < sparse < rle.
std::vector<uint8_t> ShortestForcedRecord(uint64_t num_bits,
                                          const SlotState& state) {
  std::vector<uint8_t> best;
  for (const SlotMode mode :
       {SlotMode::kRaw, SlotMode::kSparse, SlotMode::kRle}) {
    std::vector<uint8_t> record;
    if (!EncodeSlotAs(mode, num_bits, state, &record)) continue;
    if (best.empty() || record.size() < best.size()) best = record;
  }
  return best;
}

// The chooser's contract byte for byte: round trips alone would accept
// a chooser that picked a different valid mode, silently changing the
// SMBZ1 bytes of every checkpoint and delta.
TEST(Smbz1PropertyTest, ChooserEmitsShortestForcedRecordWithTieOrder) {
  Xoshiro256 rng(0xC4005E);
  std::vector<Geometry> geometries(std::begin(kGeometries),
                                   std::end(kGeometries));
  geometries.push_back({10000, 1000});  // the CLI geometry
  for (const Geometry& g : geometries) {
    const uint64_t max_round = (g.num_bits - 1) / g.threshold - 1;
    for (size_t i = 0; i < kStatesPerMode; ++i) {
      for (const MorphState& state :
           {RandomState(rng, g, max_round), ClusteredState(rng, g, true),
            ClusteredState(rng, g, false)}) {
        const SlotState slot{state.round, state.ones, state.words};
        std::vector<uint8_t> chosen;
        EncodeSlot(g.num_bits, slot, &chosen);
        ASSERT_EQ(chosen, ShortestForcedRecord(g.num_bits, slot))
            << "num_bits " << g.num_bits << " state " << i;
      }
    }
  }
}

// The positions-fed writer prices raw and a floor of rle from the
// positions alone, so over round-0 bitmaps of every shape — scattered,
// clustered into whole words of ones (rle wins), dense (the varint gaps
// grow past a byte on wide bitmaps), empty — whenever it appends a
// record that record is exactly EncodeSlot's. It may decline a record
// its rle floor cannot settle (the caller's EncodeSlot fallback writes
// that one), so declining is not checked here; the engine-level byte
// equality tests guard the output. The decoder reports the same
// popcount the words hold.
TEST(Smbz1PropertyTest, PositionsFedSparseRecordIsEncodeSlots) {
  Xoshiro256 rng(0x5A5E);
  size_t sparse = 0, other = 0;
  for (const uint64_t num_bits : {uint64_t{200}, uint64_t{10000},
                                  uint64_t{70000}}) {
    const size_t num_words = static_cast<size_t>((num_bits + 63) / 64);
    for (size_t i = 0; i < 400; ++i) {
      std::vector<uint64_t> words(num_words, 0);
      const size_t shape = i % 4;
      const size_t count = rng.NextBounded(shape == 3 ? 3 : num_bits / 8);
      for (size_t k = 0; k < count; ++k) {
        const uint64_t pos = shape == 2 ? rng.NextBounded(num_bits / 16 + 1)
                                        : rng.NextBounded(num_bits);
        words[pos / 64] |= uint64_t{1} << (pos % 64);
      }
      if (shape == 1) {
        for (size_t w = 0; w + 1 < num_words && w < 1 + i % 5; ++w) {
          words[(w * 7) % (num_words - 1)] = ~uint64_t{0};
        }
      }
      std::vector<uint32_t> positions32;
      for (size_t w = 0; w < num_words; ++w) {
        for (uint64_t word = words[w]; word != 0; word &= word - 1) {
          positions32.push_back(static_cast<uint32_t>(
              w * 64 + static_cast<size_t>(std::countr_zero(word))));
        }
      }
      const uint32_t ones = static_cast<uint32_t>(positions32.size());
      std::vector<uint8_t> expected = {0xEE};
      EncodeSlot(num_bits, SlotState{0, ones, words}, &expected);
      std::vector<uint8_t> got = {0xEE};
      const bool wrote =
          num_bits <= 65536
              ? EncodeSparseSlot(num_bits,
                                 std::vector<uint16_t>(positions32.begin(),
                                                       positions32.end()),
                                 &got)
              : EncodeSparseSlot(num_bits, positions32, &got);
      if (wrote) {
        ++sparse;
        ASSERT_EQ(got, expected) << num_bits << " bits, case " << i;
      } else {
        ++other;
        ASSERT_EQ(got.size(), 1u);
      }
      size_t pos = 1;
      DecodedSlot slot;
      std::vector<uint64_t> decoded(num_words);
      ASSERT_TRUE(DecodeSlot(expected, &pos, num_bits, &slot, decoded));
      EXPECT_EQ(decoded, words);
      EXPECT_EQ(slot.set_bits, ones);
    }
  }
  EXPECT_GT(sparse, 100u);
  EXPECT_GT(other, 50u);
}

// Re-encoding a decoded record gives back its bytes, in every mode the
// chooser picks — raw, sparse over the set bits, sparse over the zero
// bits, rle — and in every forced mode, on the engine's two position
// widths (uint16 below 65536 bits, uint32 above). A reader that keeps a
// record's bytes instead of decoding and re-encoding it (a frozen row
// copied into a snapshot) relies on this.
TEST(Smbz1PropertyTest, ReencodingADecodedRecordGivesItsBytes) {
  Xoshiro256 rng(0x2E2E);
  for (const uint64_t num_bits : {uint64_t{10000}, uint64_t{70000}}) {
    const size_t num_words = static_cast<size_t>((num_bits + 63) / 64);
    const uint64_t tail_mask = (uint64_t{1} << (num_bits % 64)) - 1;
    // Chosen records by mode byte: raw, set sparse, rle, zero sparse.
    size_t chosen_modes[4] = {};
    for (size_t i = 0; i < 240; ++i) {
      std::vector<uint64_t> words(num_words, 0);
      const size_t shape = i % 4;
      if (shape == 0) {  // a few set bits
        const size_t count = rng.NextBounded(num_bits / 20);
        for (size_t k = 0; k < count; ++k) {
          const uint64_t pos = rng.NextBounded(num_bits);
          words[pos / 64] |= uint64_t{1} << (pos % 64);
        }
      } else if (shape == 1) {  // a few zero bits
        std::fill(words.begin(), words.end(), ~uint64_t{0});
        const size_t count = rng.NextBounded(num_bits / 20);
        for (size_t k = 0; k < count; ++k) {
          const uint64_t pos = rng.NextBounded(num_bits);
          words[pos / 64] &= ~(uint64_t{1} << (pos % 64));
        }
      } else if (shape == 2) {  // runs of zero, ones and literal words
        for (size_t w = 0; w < num_words;) {
          const uint64_t kind = rng.NextBounded(3);
          const size_t len = 1 + rng.NextBounded(12);
          for (size_t k = 0; k < len && w < num_words; ++k, ++w) {
            words[w] = kind == 0   ? 0
                       : kind == 1 ? ~uint64_t{0}
                                   : rng.Next();
          }
        }
      } else {  // mid fill
        for (uint64_t& w : words) w = rng.Next();
      }
      words.back() &= tail_mask;
      const SlotState state{static_cast<uint32_t>(rng.NextBounded(10)),
                            static_cast<uint32_t>(rng.NextBounded(num_bits)),
                            words};
      std::vector<uint8_t> chosen;
      EncodeSlot(num_bits, state, &chosen);
      ++chosen_modes[(chosen[0] & 0x03) | ((chosen[0] & 0x04) ? 3 : 0)];
      const auto reencoded = [&](const std::vector<uint8_t>& record,
                                 std::optional<SlotMode> forced) {
        size_t pos = 0;
        DecodedSlot slot;
        std::vector<uint64_t> decoded(num_words);
        EXPECT_TRUE(DecodeSlot(record, &pos, num_bits, &slot, decoded));
        EXPECT_EQ(pos, record.size());
        const SlotState again{slot.round, slot.ones, decoded};
        std::vector<uint8_t> out;
        if (forced.has_value()) {
          EXPECT_TRUE(EncodeSlotAs(*forced, num_bits, again, &out));
        } else {
          EncodeSlot(num_bits, again, &out);
        }
        return out;
      };
      ASSERT_EQ(reencoded(chosen, std::nullopt), chosen)
          << num_bits << " bits, case " << i;
      for (const SlotMode mode :
           {SlotMode::kRaw, SlotMode::kSparse, SlotMode::kRle}) {
        std::vector<uint8_t> forced;
        ASSERT_TRUE(EncodeSlotAs(mode, num_bits, state, &forced));
        ASSERT_EQ(reencoded(forced, mode), forced)
            << num_bits << " bits, case " << i << ", mode "
            << static_cast<int>(mode);
      }
    }
    for (const size_t count : chosen_modes) EXPECT_GE(count, 20u) << num_bits;
  }
}

// ---------------------------------------------------------------------------
// Corrupt-input rejection matrices. Scaled down (but never off) under
// SMB_SMOKE_SCALE so the ASan fuzz-smoke CI leg stays fast.

size_t SmokeDivisor() {
  const char* scale = std::getenv("SMB_SMOKE_SCALE");
  if (scale == nullptr) return 1;
  const long v = std::atol(scale);
  return v > 1 ? static_cast<size_t>(v) : 1;
}

// Slot records are self-delimiting, so every strict prefix must fail to
// decode (the decoder runs out of bytes) — it must never read past the
// buffer or write outside the word span.
TEST(Smbz1PropertyTest, SlotRejectsTruncationEverywhere) {
  Xoshiro256 rng(0x7127);
  const size_t stride = SmokeDivisor();
  const Geometry g = kGeometries[0];
  const uint64_t max_round = (g.num_bits - 1) / g.threshold - 1;
  for (const SlotMode mode :
       {SlotMode::kRaw, SlotMode::kSparse, SlotMode::kRle}) {
    for (size_t i = 0; i < 16; ++i) {
      const MorphState state = RandomState(rng, g, max_round);
      std::vector<uint8_t> record;
      ASSERT_TRUE(EncodeSlotAs(
          mode, g.num_bits, SlotState{state.round, state.ones, state.words},
          &record));
      for (size_t cut = 0; cut < record.size(); cut += stride) {
        const std::vector<uint8_t> prefix(
            record.begin(),
            record.begin() + static_cast<std::ptrdiff_t>(cut));
        size_t pos = 0;
        DecodedSlot slot;
        std::vector<uint64_t> words(state.words.size(), 0);
        EXPECT_FALSE(DecodeSlot(prefix, &pos, g.num_bits, &slot, words))
            << "mode " << static_cast<int>(mode) << " cut at " << cut;
      }
    }
  }
}

// A flipped bit in a slot record has no checksum to catch it, so decode
// may legitimately succeed with a different state — the guarantee is
// that it never crashes, never reads past the record, and never writes
// bits above num_bits (ASan/UBSan make those failures loud).
TEST(Smbz1PropertyTest, SlotSurvivesBitFlipsEverywhere) {
  Xoshiro256 rng(0xF11B);
  const size_t stride = SmokeDivisor();
  const Geometry g = kGeometries[1];  // ragged tail: 200 bits
  const uint64_t max_round = (g.num_bits - 1) / g.threshold - 1;
  const uint64_t tail_mask = (uint64_t{1} << (g.num_bits % 64)) - 1;
  for (const SlotMode mode :
       {SlotMode::kRaw, SlotMode::kSparse, SlotMode::kRle}) {
    for (size_t i = 0; i < 8; ++i) {
      const MorphState state = RandomState(rng, g, max_round);
      std::vector<uint8_t> record;
      ASSERT_TRUE(EncodeSlotAs(
          mode, g.num_bits, SlotState{state.round, state.ones, state.words},
          &record));
      for (size_t byte = 0; byte < record.size(); byte += stride) {
        for (int bit = 0; bit < 8; ++bit) {
          std::vector<uint8_t> bad = record;
          bad[byte] ^= static_cast<uint8_t>(uint8_t{1} << bit);
          size_t pos = 0;
          DecodedSlot slot;
          std::vector<uint64_t> words(state.words.size(), 0);
          if (DecodeSlot(bad, &pos, g.num_bits, &slot, words)) {
            EXPECT_LE(pos, bad.size());
            EXPECT_EQ(words.back() & ~tail_mask, 0u)
                << "decode set bits above num_bits";
          }
        }
      }
    }
  }
}

// The mode byte reserves bits 3–7, mode value 3, and the polarity bit
// outside sparse mode; all must be rejected outright so future format
// revisions stay distinguishable.
TEST(Smbz1PropertyTest, SlotRejectsModeByteGarbage) {
  const Geometry g = kGeometries[0];
  Xoshiro256 rng(0x6A4B);
  const MorphState state = RandomState(rng, g, 3);
  std::vector<uint8_t> record;
  EncodeSlot(g.num_bits, SlotState{state.round, state.ones, state.words},
             &record);
  ASSERT_FALSE(record.empty());
  for (int garbage = 0; garbage < 256; ++garbage) {
    const uint8_t byte = static_cast<uint8_t>(garbage);
    const bool reserved_set = (byte & 0xF8) != 0;
    const bool bad_mode = (byte & 0x03) == 0x03;
    const bool stray_polarity =
        (byte & 0x04) != 0 &&
        (byte & 0x03) != static_cast<uint8_t>(SlotMode::kSparse);
    if (!reserved_set && !bad_mode && !stray_polarity) continue;
    std::vector<uint8_t> bad = record;
    bad[0] = byte;
    size_t pos = 0;
    DecodedSlot slot;
    std::vector<uint64_t> words(state.words.size(), 0);
    EXPECT_FALSE(DecodeSlot(bad, &pos, g.num_bits, &slot, words))
        << "mode byte 0x" << std::hex << garbage << " accepted";
  }
}

ArenaSmbEngine PropertyEngine() {
  ArenaSmbEngine::Config config;
  config.num_bits = 256;
  config.threshold = 32;
  config.base_seed = 0x5EED;
  ArenaSmbEngine engine(config);
  Xoshiro256 rng(0xABCD);
  for (uint64_t flow = 1; flow <= 24; ++flow) {
    const size_t packets = 1 + rng.NextBounded(200);
    for (size_t p = 0; p < packets; ++p) engine.Record(flow, rng.Next());
  }
  return engine;
}

// Every strict prefix of a framed image must be rejected: the header,
// flow table, and CRC are all length-checked before use.
TEST(Smbz1PropertyTest, ImageRejectsTruncationEverywhere) {
  const auto packed = CompressFlw1Image(PropertyEngine().Serialize());
  ASSERT_TRUE(packed.has_value());
  const size_t stride = SmokeDivisor();
  for (size_t cut = 0; cut < packed->size(); cut += stride) {
    const std::vector<uint8_t> prefix(
        packed->begin(), packed->begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(DecompressToFlw1Image(prefix).has_value())
        << "truncated image of " << cut << " bytes accepted";
  }
}

// CRC-32C detects every single-bit error, so a framed image with any one
// bit flipped must never decompress — regardless of whether the flip
// lands in the magic, header, a slot record, or the CRC itself.
TEST(Smbz1PropertyTest, ImageRejectsBitFlipsEverywhere) {
  const auto packed = CompressFlw1Image(PropertyEngine().Serialize());
  ASSERT_TRUE(packed.has_value());
  const size_t stride = SmokeDivisor();
  for (size_t byte = 0; byte < packed->size(); byte += stride) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = *packed;
      bad[byte] ^= static_cast<uint8_t>(uint8_t{1} << bit);
      EXPECT_FALSE(DecompressToFlw1Image(bad).has_value())
          << "bit flip at byte " << byte << " bit " << bit << " accepted";
    }
  }
}

}  // namespace
}  // namespace smb::codec
