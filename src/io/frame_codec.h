// Chunked CRC-32C image framing, factored out of CheckpointStore so every
// consumer of the on-disk/wire layout shares one codec (DESIGN.md §11, §16):
//
//   * CheckpointStore files  (magic "SMBCKPT1", tag = generation)
//   * DeltaSpool entries     (magic "SMBSPOOL", tag = delta sequence)
//
// Image layout (all integers little-endian):
//
//   header   magic (8 bytes) | tag u64 | payload_size u64 | chunk_size u64
//            | header_crc u32 (CRC-32C of the 32 bytes before it)
//   chunks   ceil(payload_size / chunk_size) frames of
//            length u32 | chunk_crc u32 | bytes[length]
//            where length == chunk_size except for the final chunk
//
// An image validates iff the magic and both CRC layers match and its size
// is exactly header + framed payload — trailing garbage is rejected. The
// parser additionally classifies every rejection (FrameDefect) so callers
// can count skip reasons without string-matching the human message.

#ifndef SMBCARD_IO_FRAME_CODEC_H_
#define SMBCARD_IO_FRAME_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace smb::io {

// Upper bounds a validator will believe from a (CRC-valid) header, so a
// corrupted-but-lucky header cannot demand absurd allocations.
inline constexpr uint64_t kMaxFramedPayloadBytes = uint64_t{1} << 32;
inline constexpr uint64_t kMaxFramedChunkBytes = uint64_t{1} << 24;

inline constexpr size_t kFramedHeaderBytes = 8 + 3 * 8 + 4;
inline constexpr size_t kFramedChunkOverheadBytes = 4 + 4;

// Rejection class, in decreasing blame-the-header order: a parse stops at
// the first defect it proves, so exactly one class describes each failure.
enum class FrameDefect : uint8_t {
  kNone = 0,
  kBadHeader,  // wrong magic, short header, header CRC, absurd geometry
  kTorn,       // size does not match the header, or a chunk length lies
  kBitFlip,    // chunk CRC mismatch over a structurally intact image
  // Set only by ReadFramedFile (io/file_util.h):
  kUnreadable,  // the file could not be read at all
  kWrongTag,    // a valid image whose tag is not the one its name carries
};

// Human-readable reason slug for a defect ("header" / "torn" / "bit_flip"
// / "read_error" / "stale_generation"); used as a telemetry label value.
const char* FrameDefectName(FrameDefect defect);

// The full framed image of one payload.
std::vector<uint8_t> BuildFramedImage(const char magic[8], uint64_t tag,
                                      std::span<const uint8_t> payload,
                                      size_t chunk_bytes);

// Validates an image against `magic` and extracts its tag/payload. `tag`,
// `payload` and `defect` may each be null (validate only); `error` gets the
// human-readable reason on failure.
bool ParseFramedImage(const char magic[8], const std::vector<uint8_t>& image,
                      uint64_t* tag, std::vector<uint8_t>* payload,
                      std::string* error, FrameDefect* defect = nullptr);

}  // namespace smb::io

#endif  // SMBCARD_IO_FRAME_CODEC_H_
