#include "codec/smbz1.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "codec/flw1_layout.h"
#include "common/bit_util.h"
#include "common/le_bytes.h"
#include "common/macros.h"
#include "io/crc32c.h"

namespace smb::codec {
namespace {

// Container framing.
constexpr char kMagic[5] = {'S', 'M', 'B', 'Z', '1'};
constexpr uint8_t kVersion = 1;
constexpr size_t kHeaderBytes = 5 + 1 + 2 + 5 * 8;
constexpr size_t kCrcBytes = 4;

// Guards DecompressToFlw1Image against absurd headers before any
// allocation happens. Far above every supported geometry (the engine
// caps num_bits well below this) yet small enough that a hostile
// header cannot demand gigabytes.
constexpr uint64_t kMaxNumBits = uint64_t{1} << 26;

size_t VarintSize(uint64_t v) {
  // Seven payload bits per byte; `| 1` gives zero its one byte.
  return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7;
}

uint8_t* PutVarint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

bool ReadVarint(std::span<const uint8_t> in, size_t* pos, uint64_t* v) {
  uint64_t out = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= in.size()) return false;
    const uint8_t byte = in[(*pos)++];
    out |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The tenth byte may only carry the single remaining bit.
      if (shift == 63 && byte > 1) return false;
      *v = out;
      return true;
    }
  }
  return false;
}

size_t WordsForBits(uint64_t num_bits) {
  return static_cast<size_t>((num_bits + 63) / 64);
}

uint64_t TailMask(uint64_t num_bits) {
  const size_t tail = num_bits % 64;
  return tail == 0 ? ~uint64_t{0} : (uint64_t{1} << tail) - 1;
}

// True when no bit at or above num_bits is set — the precondition for
// both sparse polarities (a position list cannot name stray tail bits).
bool TailClean(uint64_t num_bits, std::span<const uint64_t> words) {
  return (words.back() & ~TailMask(num_bits)) == 0;
}

constexpr uint64_t kZeroRun = 0;
constexpr uint64_t kOnesRun = 1;
constexpr uint64_t kLiteralRun = 2;

// Greedy word-run grouping: zero words and all-ones words fold into run
// tokens, everything else accumulates into literal runs. Calls
// fn(kind, begin, len) for each run in order.
template <typename Fn>
void ForEachRun(std::span<const uint64_t> words, Fn fn) {
  const size_t n = words.size();
  size_t i = 0;
  while (i < n) {
    const size_t begin = i;
    const uint64_t w = words[i];
    if (w == 0 || w == ~uint64_t{0}) {
      while (++i < n && words[i] == w) {
      }
      fn(w == 0 ? kZeroRun : kOnesRun, begin, i - begin);
    } else {
      while (++i < n && words[i] != 0 && words[i] != ~uint64_t{0}) {
      }
      fn(kLiteralRun, begin, i - begin);
    }
  }
}

uint64_t RunToken(uint64_t kind, size_t len) {
  return (static_cast<uint64_t>(len) << 2) | kind;
}

// The exact rle payload size, plus the popcount from the same pass:
// runs count arithmetically, only literal words are popcounted.
size_t RleSizeAndPopcount(std::span<const uint64_t> words,
                          uint64_t* popcount) {
  size_t size = 0;
  uint64_t ones = 0;
  ForEachRun(words, [&](uint64_t kind, size_t begin, size_t len) {
    size += VarintSize(RunToken(kind, len));
    if (kind == kOnesRun) {
      ones += 64 * static_cast<uint64_t>(len);
    } else if (kind == kLiteralRun) {
      size += len * 8;
      for (size_t w = begin; w < begin + len; ++w) {
        ones += static_cast<uint64_t>(Popcount64(words[w]));
      }
    }
  });
  *popcount = ones;
  return size;
}

uint8_t* PutRle(uint8_t* p, std::span<const uint64_t> words) {
  ForEachRun(words, [&](uint64_t kind, size_t begin, size_t len) {
    p = PutVarint(p, RunToken(kind, len));
    if (kind == kLiteralRun) {
      std::memcpy(p, words.data() + begin, len * 8);
      p += len * 8;
    }
  });
  return p;
}

// Calls fn(gap) for each position of the listed polarity below
// num_bits, ascending; gap is the position itself for the first and
// the distance minus one after that. `invert` lists zero positions.
template <typename Fn>
void ForEachSparseGap(uint64_t num_bits, std::span<const uint64_t> words,
                      bool invert, Fn fn) {
  const uint64_t flip = invert ? ~uint64_t{0} : 0;
  const uint64_t tail_mask = TailMask(num_bits);
  uint64_t next = 0;  // one past the previous position
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t word = words[w] ^ flip;
    if (w + 1 == words.size()) word &= tail_mask;
    while (word != 0) {
      const uint64_t position =
          w * 64 + static_cast<uint64_t>(CountTrailingZeros64(word));
      word &= word - 1;
      fn(position - next);
      next = position + 1;
    }
  }
}

// The minority polarity and its bit count, for a tail-clean slot.
struct SparsePlan {
  bool invert = false;
  uint64_t count = 0;
};

SparsePlan PlanSparse(uint64_t num_bits, uint64_t popcount) {
  const bool invert = popcount * 2 > num_bits;
  return {invert, invert ? num_bits - popcount : popcount};
}

size_t SparseSize(uint64_t num_bits, std::span<const uint64_t> words,
                  const SparsePlan& plan) {
  size_t size = VarintSize(plan.count);
  ForEachSparseGap(num_bits, words, plan.invert,
                   [&](uint64_t gap) { size += VarintSize(gap); });
  return size;
}

uint8_t* PutSparse(uint8_t* p, uint64_t num_bits,
                   std::span<const uint64_t> words, const SparsePlan& plan) {
  p = PutVarint(p, plan.count);
  ForEachSparseGap(num_bits, words, plan.invert,
                   [&](uint64_t gap) { p = PutVarint(p, gap); });
  return p;
}

// Appends the record for an already-priced mode: the buffer grows once
// by the exact record size and the payload is written in place.
void WriteRecord(SlotMode mode, uint64_t num_bits, const SlotState& state,
                 const SparsePlan& sparse, size_t payload_size,
                 std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + 1 + VarintSize(state.round) + VarintSize(state.ones) +
              payload_size);
  uint8_t* p = out->data() + at;
  uint8_t mode_byte = static_cast<uint8_t>(mode);
  if (mode == SlotMode::kSparse && sparse.invert) mode_byte |= 0x04;
  *p++ = mode_byte;
  p = PutVarint(p, state.round);
  p = PutVarint(p, state.ones);
  switch (mode) {
    case SlotMode::kRaw:
      std::memcpy(p, state.words.data(), state.words.size_bytes());
      p += state.words.size_bytes();
      break;
    case SlotMode::kSparse:
      p = PutSparse(p, num_bits, state.words, sparse);
      break;
    case SlotMode::kRle:
      p = PutRle(p, state.words);
      break;
  }
  SMB_DCHECK(p == out->data() + out->size());
}

}  // namespace

void EncodeSlot(uint64_t num_bits, const SlotState& state,
                std::vector<uint8_t>* out, CodecStats* stats) {
  const size_t raw_size = state.words.size_bytes();
  uint64_t popcount = 0;
  const size_t rle_size = RleSizeAndPopcount(state.words, &popcount);
  // Ties go raw < sparse < rle: sparse must beat raw and not lose to
  // rle; rle must beat both.
  SlotMode mode = SlotMode::kRaw;
  size_t best = raw_size;
  SparsePlan sparse;
  if (TailClean(num_bits, state.words)) {
    sparse = PlanSparse(num_bits, popcount);
    // Every listed position costs at least one byte, so a count that
    // already loses skips the position walk.
    const size_t min_sparse = VarintSize(sparse.count) + sparse.count;
    if (min_sparse < best && min_sparse <= rle_size) {
      const size_t sparse_size = SparseSize(num_bits, state.words, sparse);
      if (sparse_size < best) {
        mode = SlotMode::kSparse;
        best = sparse_size;
      }
    }
  }
  if (rle_size < best) {
    mode = SlotMode::kRle;
    best = rle_size;
  }
  WriteRecord(mode, num_bits, state, sparse, best, out);
  if (stats != nullptr) {
    switch (mode) {
      case SlotMode::kRaw: ++stats->raw_slots; break;
      case SlotMode::kSparse: ++stats->sparse_slots; break;
      case SlotMode::kRle: ++stats->rle_slots; break;
    }
  }
}

bool EncodeSlotAs(SlotMode mode, uint64_t num_bits, const SlotState& state,
                  std::vector<uint8_t>* out) {
  uint64_t popcount = 0;
  const size_t rle_size = RleSizeAndPopcount(state.words, &popcount);
  SparsePlan sparse;
  size_t payload_size = state.words.size_bytes();
  if (mode == SlotMode::kSparse) {
    if (!TailClean(num_bits, state.words)) return false;
    sparse = PlanSparse(num_bits, popcount);
    payload_size = SparseSize(num_bits, state.words, sparse);
  } else if (mode == SlotMode::kRle) {
    payload_size = rle_size;
  }
  WriteRecord(mode, num_bits, state, sparse, payload_size, out);
  return true;
}

bool DecodeSlot(std::span<const uint8_t> in, size_t* pos, uint64_t num_bits,
                DecodedSlot* slot, std::span<uint64_t> words) {
  const size_t words_per_slot = WordsForBits(num_bits);
  if (words.size() != words_per_slot) return false;
  if (*pos >= in.size()) return false;
  const uint8_t mode_byte = in[(*pos)++];
  if ((mode_byte & 0xF8) != 0) return false;
  const uint8_t mode_bits = mode_byte & 0x03;
  const bool invert = (mode_byte & 0x04) != 0;
  if (mode_bits > 2) return false;
  const SlotMode mode = static_cast<SlotMode>(mode_bits);
  if (invert && mode != SlotMode::kSparse) return false;
  uint64_t round = 0;
  uint64_t ones = 0;
  if (!ReadVarint(in, pos, &round) || round > flw1::kMaxRound) return false;
  if (!ReadVarint(in, pos, &ones) || ones > flw1::kFillMask) return false;
  slot->round = static_cast<uint32_t>(round);
  slot->ones = static_cast<uint32_t>(ones);
  slot->mode = mode;
  switch (mode) {
    case SlotMode::kRaw: {
      if (in.size() - *pos < words_per_slot * 8) return false;
      std::memcpy(words.data(), in.data() + *pos, words_per_slot * 8);
      *pos += words_per_slot * 8;
      // Bits above num_bits must be zero in every mode; a verbatim
      // payload carrying them is corrupt, not merely untidy.
      return (words.back() & ~TailMask(num_bits)) == 0;
    }
    case SlotMode::kSparse: {
      uint64_t count = 0;
      if (!ReadVarint(in, pos, &count) || count > num_bits) return false;
      if (invert) {
        std::fill(words.begin(), words.end(), ~uint64_t{0});
        words.back() &= TailMask(num_bits);
      } else {
        std::fill(words.begin(), words.end(), uint64_t{0});
      }
      uint64_t position = 0;
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t delta = 0;
        if (!ReadVarint(in, pos, &delta)) return false;
        position = (i == 0) ? delta : position + delta + 1;
        if (position >= num_bits) return false;
        const uint64_t bit = uint64_t{1} << (position % 64);
        if (invert) {
          words[position / 64] &= ~bit;
        } else {
          words[position / 64] |= bit;
        }
      }
      return true;
    }
    case SlotMode::kRle: {
      size_t covered = 0;
      while (covered < words_per_slot) {
        uint64_t token = 0;
        if (!ReadVarint(in, pos, &token)) return false;
        const uint64_t kind = token & 3;
        const uint64_t len = token >> 2;
        if (kind > 2 || len == 0) return false;
        if (len > words_per_slot - covered) return false;
        if (kind == 2) {
          if (in.size() - *pos < static_cast<size_t>(len) * 8) return false;
          std::memcpy(words.data() + covered, in.data() + *pos,
                      static_cast<size_t>(len) * 8);
          *pos += static_cast<size_t>(len) * 8;
        } else {
          const uint64_t fill = (kind == 0) ? 0 : ~uint64_t{0};
          std::fill(words.begin() + static_cast<ptrdiff_t>(covered),
                    words.begin() + static_cast<ptrdiff_t>(covered + len),
                    fill);
        }
        covered += static_cast<size_t>(len);
      }
      // Same tail rule as raw: a run or literal may not spill bits
      // above num_bits.
      return (words.back() & ~TailMask(num_bits)) == 0;
    }
  }
  return false;
}

bool IsSmbz1Image(std::span<const uint8_t> bytes) {
  return bytes.size() >= 6 &&
         std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0 &&
         bytes[5] == kVersion;
}

std::optional<std::vector<uint8_t>> CompressFlw1Image(
    std::span<const uint8_t> image, CodecStats* stats) {
  if (image.size() < flw1::kHeaderBytes + flw1::kChecksumBytes) {
    return std::nullopt;
  }
  if (std::memcmp(image.data(), flw1::kMagic, sizeof(flw1::kMagic)) != 0) {
    return std::nullopt;
  }
  const uint8_t* header = image.data() + sizeof(flw1::kMagic);
  const uint64_t num_bits = LoadU64(header);
  const uint64_t threshold = LoadU64(header + 8);
  const uint64_t base_seed = LoadU64(header + 16);
  const uint64_t num_flows = LoadU64(header + 24);
  const uint64_t words_per_slot = LoadU64(header + 32);
  if (num_bits == 0 || num_bits > kMaxNumBits) return std::nullopt;
  if (words_per_slot != WordsForBits(num_bits)) return std::nullopt;
  // Exact size by division: a multiplied-out num_flows can wrap size_t.
  const size_t record_bytes = (2 + static_cast<size_t>(words_per_slot)) * 8;
  const size_t body_bytes =
      image.size() - flw1::kHeaderBytes - flw1::kChecksumBytes;
  if (body_bytes % record_bytes != 0 ||
      num_flows != body_bytes / record_bytes) {
    return std::nullopt;
  }
  if (flw1::Checksum(image.data(), image.size() - flw1::kChecksumBytes) !=
      LoadU64(image.data() + image.size() - flw1::kChecksumBytes)) {
    return std::nullopt;
  }

  std::vector<uint8_t> out;
  out.reserve(kHeaderBytes + static_cast<size_t>(num_flows) * 16 +
              kCrcBytes);
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  out.push_back(kVersion);
  out.push_back(0);
  out.push_back(0);
  for (const uint64_t field :
       {num_bits, threshold, base_seed, num_flows, words_per_slot}) {
    AppendU64(&out, field);
  }
  std::vector<uint64_t> words(static_cast<size_t>(words_per_slot));
  const uint8_t* record = image.data() + flw1::kHeaderBytes;
  for (uint64_t f = 0; f < num_flows; ++f, record += record_bytes) {
    const uint64_t meta = LoadU64(record + 8);
    if (meta > 0xFFFFFFFFull) return std::nullopt;
    // One copy per slot: the FLW1 words sit 4 bytes off 8-byte alignment.
    std::memcpy(words.data(), record + 16, words.size() * 8);
    AppendU64(&out, LoadU64(record));
    SlotState state;
    state.round = static_cast<uint32_t>(meta) >> flw1::kRoundShift;
    state.ones = static_cast<uint32_t>(meta) & flw1::kFillMask;
    state.words = words;
    EncodeSlot(num_bits, state, &out, stats);
  }
  AppendU32(&out, io::Crc32c(out.data(), out.size()));
  if (stats != nullptr) {
    stats->raw_bytes += image.size();
    stats->encoded_bytes += out.size();
  }
  return out;
}

std::optional<std::vector<uint8_t>> DecompressToFlw1Image(
    std::span<const uint8_t> smbz1) {
  if (smbz1.size() < kHeaderBytes + kCrcBytes) return std::nullopt;
  if (!IsSmbz1Image(smbz1)) return std::nullopt;
  if (smbz1[6] != 0 || smbz1[7] != 0) return std::nullopt;
  const uint32_t stored_crc = LoadU32(smbz1.data() + smbz1.size() - kCrcBytes);
  if (io::Crc32c(smbz1.data(), smbz1.size() - kCrcBytes) != stored_crc) {
    return std::nullopt;
  }
  const uint8_t* header = smbz1.data() + 8;
  const uint64_t num_bits = LoadU64(header);
  const uint64_t threshold = LoadU64(header + 8);
  const uint64_t base_seed = LoadU64(header + 16);
  const uint64_t num_flows = LoadU64(header + 24);
  const uint64_t words_per_slot = LoadU64(header + 32);
  if (num_bits == 0 || num_bits > kMaxNumBits) return std::nullopt;
  if (words_per_slot != WordsForBits(num_bits)) return std::nullopt;
  // Every flow costs at least key + mode byte + two varints; a header
  // claiming more flows than the payload could hold is rejected before
  // any allocation is sized from it.
  const size_t payload_bytes = smbz1.size() - kHeaderBytes - kCrcBytes;
  if (num_flows > payload_bytes / 11) return std::nullopt;

  std::vector<uint8_t> out;
  out.reserve(flw1::kHeaderBytes +
              static_cast<size_t>(num_flows) *
                  (2 + static_cast<size_t>(words_per_slot)) * 8 +
              flw1::kChecksumBytes);
  out.insert(out.end(), flw1::kMagic, flw1::kMagic + sizeof(flw1::kMagic));
  for (const uint64_t field :
       {num_bits, threshold, base_seed, num_flows, words_per_slot}) {
    AppendU64(&out, field);
  }
  std::vector<uint64_t> words(static_cast<size_t>(words_per_slot));
  const std::span<const uint8_t> body =
      smbz1.first(smbz1.size() - kCrcBytes);
  size_t pos = kHeaderBytes;
  for (uint64_t f = 0; f < num_flows; ++f) {
    uint64_t key = 0;
    if (!ReadU64(body, &pos, &key)) return std::nullopt;
    DecodedSlot slot;
    if (!DecodeSlot(body, &pos, num_bits, &slot, words)) {
      return std::nullopt;
    }
    AppendU64(&out, key);
    AppendU64(&out,
              (static_cast<uint64_t>(slot.round) << flw1::kRoundShift) |
                  slot.ones);
    AppendU64s(&out, words);
  }
  // Trailing garbage between the last record and the CRC is a defect.
  if (pos != body.size()) return std::nullopt;
  AppendU64(&out, flw1::Checksum(out.data(), out.size()));
  return out;
}

}  // namespace smb::codec
