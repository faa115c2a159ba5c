// FLW1 — the byte layout of an ArenaSmbEngine snapshot image, defined
// once for the engine that writes and reads it (flow/arena_smb_engine.cc)
// and for the SMBZ1 codec that re-frames it (codec/smbz1.cc). It depends
// on the hash layer only, so the codec still never links the flow layer.
//
// Image layout (little-endian):
//   magic "FLW1" (4 bytes)
//   u64 num_bits, threshold, base_seed, num_flows, words_per_slot
//   per flow: u64 flow key, u64 packed meta (below),
//             words_per_slot x u64 bitmap words
//   u64 checksum (Checksum() of every preceding byte)

#ifndef SMBCARD_CODEC_FLW1_LAYOUT_H_
#define SMBCARD_CODEC_FLW1_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>

#include "common/le_bytes.h"
#include "hash/murmur3.h"

namespace smb::flw1 {

inline constexpr char kMagic[4] = {'F', 'L', 'W', '1'};
inline constexpr uint64_t kChecksumSeed = 0x464C5731u;  // "FLW1"
inline constexpr size_t kHeaderBytes = sizeof(kMagic) + 5 * 8;
inline constexpr size_t kChecksumBytes = 8;

// Packed morph metadata (r, v): round in the top 6 bits, fill in the low
// 26, so a round never exceeds 63.
inline constexpr uint32_t kRoundShift = 26;
inline constexpr uint32_t kFillMask = (uint32_t{1} << kRoundShift) - 1;
inline constexpr uint32_t kMaxRound = ~uint32_t{0} >> kRoundShift;

inline uint64_t Checksum(const uint8_t* data, size_t len) {
  return Murmur3_128(data, len, kChecksumSeed).lo;
}

struct Header {
  uint64_t num_bits = 0;
  uint64_t threshold = 0;
  uint64_t base_seed = 0;
  uint64_t num_flows = 0;
  uint64_t words_per_slot = 0;
  size_t RecordBytes() const {
    return (2 + static_cast<size_t>(words_per_slot)) * 8;
  }
};

// The size of an image of `num_flows` records.
inline uint64_t ImageBytes(uint64_t num_flows, uint64_t words_per_slot) {
  return kHeaderBytes + num_flows * (2 + words_per_slot) * 8 +
         kChecksumBytes;
}

// Checks an image's framing and returns its header: the magic, 0 <
// num_bits <= 2^26 with words_per_slot == ceil(num_bits / 64), a body of
// exactly num_flows records (by division, so a huge num_flows cannot wrap
// the check; truncation and trailing bytes fail) and the checksum. The
// geometry's own rules (threshold, rounds) are the reader's to apply.
inline std::optional<Header> ReadHeader(std::span<const uint8_t> image) {
  if (image.size() < kHeaderBytes + kChecksumBytes ||
      std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  const uint8_t* fields = image.data() + sizeof(kMagic);
  Header header;
  header.num_bits = LoadU64(fields);
  header.threshold = LoadU64(fields + 8);
  header.base_seed = LoadU64(fields + 16);
  header.num_flows = LoadU64(fields + 24);
  header.words_per_slot = LoadU64(fields + 32);
  if (header.num_bits == 0 || header.num_bits > (uint64_t{1} << 26) ||
      header.words_per_slot != (header.num_bits + 63) / 64) {
    return std::nullopt;
  }
  const size_t body_bytes = image.size() - kHeaderBytes - kChecksumBytes;
  if (body_bytes % header.RecordBytes() != 0 ||
      header.num_flows != body_bytes / header.RecordBytes()) {
    return std::nullopt;
  }
  if (Checksum(image.data(), image.size() - kChecksumBytes) !=
      LoadU64(image.data() + image.size() - kChecksumBytes)) {
    return std::nullopt;
  }
  return header;
}

}  // namespace smb::flw1

#endif  // SMBCARD_CODEC_FLW1_LAYOUT_H_
