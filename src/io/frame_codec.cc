#include "io/frame_codec.h"

#include <cstring>

#include "common/le_bytes.h"
#include "io/crc32c.h"

namespace smb::io {

const char* FrameDefectName(FrameDefect defect) {
  switch (defect) {
    case FrameDefect::kNone: return "none";
    case FrameDefect::kBadHeader: return "header";
    case FrameDefect::kTorn: return "torn";
    case FrameDefect::kBitFlip: return "bit_flip";
    case FrameDefect::kUnreadable: return "read_error";
    case FrameDefect::kWrongTag: return "stale_generation";
  }
  return "unknown";
}

std::vector<uint8_t> BuildFramedImage(const char magic[8], uint64_t tag,
                                      std::span<const uint8_t> payload,
                                      size_t chunk_bytes) {
  const size_t num_chunks =
      payload.empty() ? 0 : (payload.size() + chunk_bytes - 1) / chunk_bytes;
  std::vector<uint8_t> image;
  image.reserve(kFramedHeaderBytes + payload.size() +
                num_chunks * kFramedChunkOverheadBytes);
  for (int i = 0; i < 8; ++i) image.push_back(static_cast<uint8_t>(magic[i]));
  AppendU64(&image, tag);
  AppendU64(&image, payload.size());
  AppendU64(&image, chunk_bytes);
  AppendU32(&image, Crc32c(image.data(), image.size()));
  for (size_t offset = 0; offset < payload.size(); offset += chunk_bytes) {
    const size_t len = payload.size() - offset < chunk_bytes
                           ? payload.size() - offset
                           : chunk_bytes;
    AppendU32(&image, static_cast<uint32_t>(len));
    AppendU32(&image, Crc32c(payload.data() + offset, len));
    image.insert(image.end(), payload.begin() + static_cast<long>(offset),
                 payload.begin() + static_cast<long>(offset + len));
  }
  return image;
}

bool ParseFramedImage(const char magic[8], const std::vector<uint8_t>& image,
                      uint64_t* tag, std::vector<uint8_t>* payload,
                      std::string* error, FrameDefect* defect) {
  FrameDefect local_defect = FrameDefect::kNone;
  FrameDefect* d = defect ? defect : &local_defect;
  *d = FrameDefect::kNone;
  if (image.size() < kFramedHeaderBytes ||
      std::memcmp(image.data(), magic, 8) != 0) {
    *error = "bad magic or short header";
    *d = FrameDefect::kBadHeader;
    return false;
  }
  if (LoadU32(image.data() + kFramedHeaderBytes - 4) !=
      Crc32c(image.data(), kFramedHeaderBytes - 4)) {
    *error = "header CRC mismatch";
    *d = FrameDefect::kBadHeader;
    return false;
  }
  const uint64_t stored_tag = LoadU64(image.data() + 8);
  const uint64_t payload_size = LoadU64(image.data() + 16);
  const uint64_t chunk_bytes = LoadU64(image.data() + 24);
  if (payload_size > kMaxFramedPayloadBytes || chunk_bytes < 1 ||
      chunk_bytes > kMaxFramedChunkBytes) {
    *error = "implausible header geometry";
    *d = FrameDefect::kBadHeader;
    return false;
  }
  const uint64_t num_chunks =
      payload_size == 0 ? 0 : (payload_size + chunk_bytes - 1) / chunk_bytes;
  if (image.size() != kFramedHeaderBytes + payload_size +
                          num_chunks * kFramedChunkOverheadBytes) {
    *error = "file size does not match header (torn or padded)";
    *d = FrameDefect::kTorn;
    return false;
  }
  std::vector<uint8_t> out;
  if (payload) out.reserve(static_cast<size_t>(payload_size));
  size_t pos = kFramedHeaderBytes;
  for (uint64_t chunk = 0; chunk < num_chunks; ++chunk) {
    const uint64_t expected_len =
        chunk + 1 < num_chunks ? chunk_bytes
                               : payload_size - chunk * chunk_bytes;
    const uint32_t len = LoadU32(image.data() + pos);
    const uint32_t crc = LoadU32(image.data() + pos + 4);
    pos += kFramedChunkOverheadBytes;
    if (len != expected_len) {
      *error = "chunk " + std::to_string(chunk) + " has wrong length";
      *d = FrameDefect::kTorn;
      return false;
    }
    if (Crc32c(image.data() + pos, len) != crc) {
      *error = "chunk " + std::to_string(chunk) + " CRC mismatch";
      *d = FrameDefect::kBitFlip;
      return false;
    }
    if (payload) {
      out.insert(out.end(), image.begin() + static_cast<long>(pos),
                 image.begin() + static_cast<long>(pos + len));
    }
    pos += len;
  }
  if (tag) *tag = stored_tag;
  if (payload) *payload = std::move(out);
  return true;
}

}  // namespace smb::io
