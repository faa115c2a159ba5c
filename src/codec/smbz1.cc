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

namespace {

template <typename Pos>
bool EncodeSparseSlotOf(uint64_t num_bits, std::span<const Pos> positions,
                        std::vector<uint8_t>* out) {
  const uint64_t count = positions.size();
  // EncodeSlot lists the minority polarity; these are the set bits.
  if (PlanSparse(num_bits, count).invert) return false;
  // One pass prices the gaps' varints — a byte each, plus one per seven
  // bits past the first seven (positions fit in 26 bits) — and counts
  // the words touched.
  size_t long_gap_bytes = 0;
  size_t words_touched = 0;
  if (count > 0) {
    long_gap_bytes = VarintSize(positions[0]) - 1;
    words_touched = 1;
  }
  for (size_t i = 1; i < count; ++i) {
    const uint32_t gap = uint32_t{positions[i]} - positions[i - 1] - 1;
    long_gap_bytes += size_t{gap >= (1u << 7)} + size_t{gap >= (1u << 14)} +
                      size_t{gap >= (1u << 21)};
    words_touched += (positions[i] / 64) != (positions[i - 1] / 64);
  }
  const size_t sparse_size = VarintSize(count) + count + long_gap_bytes;
  // EncodeSlot keeps sparse exactly when it is below raw and not above
  // rle (the minimum sparse size it tries first never exceeds this one).
  // Every word touched but not full is a literal of 8 rle bytes, so
  // that lower bound settles the rle side without pricing the runs. A
  // list too dense for it (about 8 positions per touched word) is left
  // to EncodeSlot on the materialized words.
  if (sparse_size >= WordsForBits(num_bits) * 8) return false;
  const size_t rle_floor = 8 * (words_touched - std::min<size_t>(
                                                    words_touched, count / 64));
  if (sparse_size > rle_floor) return false;
  const size_t at = out->size();
  out->resize(at + 1 + VarintSize(0) + VarintSize(count) + sparse_size);
  uint8_t* p = out->data() + at;
  *p++ = static_cast<uint8_t>(SlotMode::kSparse);
  p = PutVarint(p, 0);      // round
  p = PutVarint(p, count);  // ones
  p = PutVarint(p, count);
  uint64_t next = 0;  // one past the previous position
  if (long_gap_bytes == 0) {
    for (const Pos position : positions) {
      *p++ = static_cast<uint8_t>(position - next);
      next = uint64_t{position} + 1;
    }
  } else {
    for (const Pos position : positions) {
      p = PutVarint(p, position - next);
      next = uint64_t{position} + 1;
    }
  }
  SMB_DCHECK(p == out->data() + out->size());
  return true;
}

}  // namespace

bool EncodeSparseSlot(uint64_t num_bits, std::span<const uint16_t> positions,
                      std::vector<uint8_t>* out) {
  return EncodeSparseSlotOf(num_bits, positions, out);
}

bool EncodeSparseSlot(uint64_t num_bits, std::span<const uint32_t> positions,
                      std::vector<uint8_t>* out) {
  return EncodeSparseSlotOf(num_bits, positions, out);
}

bool ReadSlotHeader(std::span<const uint8_t> in, size_t* pos,
                    SlotHeader* header) {
  if (*pos >= in.size()) return false;
  const uint8_t mode_byte = in[(*pos)++];
  if ((mode_byte & 0xF8) != 0) return false;
  const uint8_t mode_bits = mode_byte & 0x03;
  if (mode_bits > 2) return false;
  header->mode = static_cast<SlotMode>(mode_bits);
  header->zeros_listed = (mode_byte & 0x04) != 0;
  if (header->zeros_listed && header->mode != SlotMode::kSparse) {
    return false;
  }
  uint64_t round = 0;
  uint64_t ones = 0;
  if (!ReadVarint(in, pos, &round) || round > flw1::kMaxRound) return false;
  if (!ReadVarint(in, pos, &ones) || ones > flw1::kFillMask) return false;
  header->round = static_cast<uint32_t>(round);
  header->ones = static_cast<uint32_t>(ones);
  return true;
}

bool ReadSparseCount(std::span<const uint8_t> in, size_t* pos,
                     uint64_t num_bits, uint64_t* count) {
  return ReadVarint(in, pos, count) && *count <= num_bits;
}

bool DecodeSlot(std::span<const uint8_t> in, size_t* pos, uint64_t num_bits,
                DecodedSlot* slot, std::span<uint64_t> words) {
  const size_t words_per_slot = WordsForBits(num_bits);
  if (words.size() != words_per_slot) return false;
  if (!ReadSlotHeader(in, pos, slot)) return false;
  switch (slot->mode) {
    case SlotMode::kRaw: {
      if (in.size() - *pos < words_per_slot * 8) return false;
      std::memcpy(words.data(), in.data() + *pos, words_per_slot * 8);
      *pos += words_per_slot * 8;
      slot->set_bits = 0;
      for (const uint64_t w : words) {
        slot->set_bits += static_cast<uint64_t>(Popcount64(w));
      }
      // Bits above num_bits must be zero in every mode; a verbatim
      // payload carrying them is corrupt, not merely untidy.
      return (words.back() & ~TailMask(num_bits)) == 0;
    }
    case SlotMode::kSparse: {
      uint64_t count = 0;
      if (!ReadSparseCount(in, pos, num_bits, &count)) return false;
      if (slot->zeros_listed) {
        std::fill(words.begin(), words.end(), ~uint64_t{0});
        words.back() &= TailMask(num_bits);
      } else {
        std::fill(words.begin(), words.end(), uint64_t{0});
      }
      // The listed positions are distinct (the count is the popcount's
      // share) and ascending: one word's bits gather in a register and
      // toggle the fill once.
      size_t word = 0;
      uint64_t toggled = 0;
      if (!ReadSparsePositions(in, pos, num_bits, count,
                               [&](uint64_t position) {
                                 if (position / 64 != word) {
                                   words[word] ^= toggled;
                                   word = static_cast<size_t>(position / 64);
                                   toggled = 0;
                                 }
                                 toggled |= uint64_t{1} << (position % 64);
                               })) {
        return false;
      }
      words[word] ^= toggled;
      slot->set_bits = slot->zeros_listed ? num_bits - count : count;
      return true;
    }
    case SlotMode::kRle: {
      size_t covered = 0;
      slot->set_bits = 0;
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
          for (size_t w = covered; w < covered + len; ++w) {
            slot->set_bits += static_cast<uint64_t>(Popcount64(words[w]));
          }
        } else {
          const uint64_t fill = (kind == 0) ? 0 : ~uint64_t{0};
          if (kind == 1) slot->set_bits += 64 * len;
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

void BeginContainer(const ContainerHeader& header,
                    std::vector<uint8_t>* out) {
  out->insert(out->end(), kMagic, kMagic + sizeof(kMagic));
  out->push_back(kVersion);
  out->push_back(0);
  out->push_back(0);
  for (const uint64_t field :
       {header.num_bits, header.threshold, header.base_seed,
        header.num_flows, header.words_per_slot}) {
    AppendU64(out, field);
  }
}

void SealContainer(std::vector<uint8_t>* out) {
  AppendU32(out, io::Crc32c(out->data(), out->size()));
}

std::optional<ContainerHeader> ReadContainer(
    std::span<const uint8_t> smbz1, std::span<const uint8_t>* records) {
  if (smbz1.size() < kHeaderBytes + kCrcBytes) return std::nullopt;
  if (!IsSmbz1Image(smbz1)) return std::nullopt;
  if (smbz1[6] != 0 || smbz1[7] != 0) return std::nullopt;
  const uint32_t stored_crc = LoadU32(smbz1.data() + smbz1.size() - kCrcBytes);
  if (io::Crc32c(smbz1.data(), smbz1.size() - kCrcBytes) != stored_crc) {
    return std::nullopt;
  }
  const uint8_t* fields = smbz1.data() + 8;
  ContainerHeader header;
  header.num_bits = LoadU64(fields);
  header.threshold = LoadU64(fields + 8);
  header.base_seed = LoadU64(fields + 16);
  header.num_flows = LoadU64(fields + 24);
  header.words_per_slot = LoadU64(fields + 32);
  if (header.num_bits == 0 || header.num_bits > kMaxNumBits) {
    return std::nullopt;
  }
  if (header.words_per_slot != WordsForBits(header.num_bits)) {
    return std::nullopt;
  }
  // Every flow costs at least key + mode byte + two varints; a header
  // claiming more flows than the payload could hold is rejected before
  // any allocation is sized from it.
  *records = smbz1.subspan(kHeaderBytes,
                           smbz1.size() - kHeaderBytes - kCrcBytes);
  if (header.num_flows > records->size() / 11) return std::nullopt;
  return header;
}

uint64_t Flw1EquivalentBytes(std::span<const uint8_t> smbz1) {
  SMB_DCHECK(smbz1.size() >= kHeaderBytes);
  return flw1::ImageBytes(LoadU64(smbz1.data() + 8 + 24),
                          LoadU64(smbz1.data() + 8 + 32));
}

std::optional<std::vector<uint8_t>> CompressFlw1Image(
    std::span<const uint8_t> image, CodecStats* stats) {
  const std::optional<flw1::Header> header = flw1::ReadHeader(image);
  if (!header.has_value()) return std::nullopt;
  const auto [num_bits, threshold, base_seed, num_flows, words_per_slot] =
      *header;
  const size_t record_bytes = header->RecordBytes();

  std::vector<uint8_t> out;
  out.reserve(kHeaderBytes + static_cast<size_t>(num_flows) * 16 +
              kCrcBytes);
  BeginContainer(
      {num_bits, threshold, base_seed, num_flows, words_per_slot}, &out);
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
  SealContainer(&out);
  if (stats != nullptr) {
    stats->raw_bytes += image.size();
    stats->encoded_bytes += out.size();
  }
  return out;
}

std::optional<std::vector<uint8_t>> DecompressToFlw1Image(
    std::span<const uint8_t> smbz1) {
  std::span<const uint8_t> records;
  const std::optional<ContainerHeader> header =
      ReadContainer(smbz1, &records);
  if (!header.has_value()) return std::nullopt;
  const auto [num_bits, threshold, base_seed, num_flows, words_per_slot] =
      *header;

  std::vector<uint8_t> out;
  out.reserve(flw1::ImageBytes(num_flows, words_per_slot));
  out.insert(out.end(), flw1::kMagic, flw1::kMagic + sizeof(flw1::kMagic));
  for (const uint64_t field :
       {num_bits, threshold, base_seed, num_flows, words_per_slot}) {
    AppendU64(&out, field);
  }
  std::vector<uint64_t> words(static_cast<size_t>(words_per_slot));
  size_t pos = 0;
  for (uint64_t f = 0; f < num_flows; ++f) {
    uint64_t key = 0;
    if (!ReadU64(records, &pos, &key)) return std::nullopt;
    DecodedSlot slot;
    if (!DecodeSlot(records, &pos, num_bits, &slot, words)) {
      return std::nullopt;
    }
    AppendU64(&out, key);
    AppendU64(&out,
              (static_cast<uint64_t>(slot.round) << flw1::kRoundShift) |
                  slot.ones);
    AppendU64s(&out, words);
  }
  // Trailing garbage between the last record and the CRC is a defect.
  if (pos != records.size()) return std::nullopt;
  AppendU64(&out, flw1::Checksum(out.data(), out.size()));
  return out;
}

}  // namespace smb::codec
