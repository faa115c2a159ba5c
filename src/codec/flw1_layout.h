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

}  // namespace smb::flw1

#endif  // SMBCARD_CODEC_FLW1_LAYOUT_H_
