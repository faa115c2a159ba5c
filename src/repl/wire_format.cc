#include "repl/wire_format.h"

#include <algorithm>
#include <cstring>

#include "common/le_bytes.h"
#include "io/crc32c.h"

namespace smb::repl {
namespace {

bool ValidFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kGoodbye);
}

}  // namespace

std::vector<uint8_t> EncodeFingerprint(const GeometryFingerprint& fp) {
  std::vector<uint8_t> out;
  out.reserve(24);
  AppendU64(&out, fp.num_bits);
  AppendU64(&out, fp.threshold);
  AppendU64(&out, fp.base_seed);
  return out;
}

bool DecodeFingerprint(std::span<const uint8_t> payload,
                       GeometryFingerprint* fp) {
  if (payload.size() != 24) return false;
  fp->num_bits = LoadU64(payload.data());
  fp->threshold = LoadU64(payload.data() + 8);
  fp->base_seed = LoadU64(payload.data() + 16);
  return true;
}

std::vector<uint8_t> EncodeHello(const HelloPayload& hello) {
  std::vector<uint8_t> out = EncodeFingerprint(hello.fingerprint);
  if (hello.codec_mask != 0) AppendU64(&out, hello.codec_mask);
  return out;
}

bool DecodeHello(std::span<const uint8_t> payload, HelloPayload* hello) {
  if (payload.size() != 24 && payload.size() != 32) return false;
  if (!DecodeFingerprint(payload.first(24), &hello->fingerprint)) {
    return false;
  }
  hello->codec_mask =
      payload.size() == 32 ? LoadU64(payload.data() + 24) : 0;
  return true;
}

std::vector<uint8_t> EncodeCodecMask(uint64_t mask) {
  std::vector<uint8_t> out;
  out.reserve(8);
  AppendU64(&out, mask);
  return out;
}

bool DecodeCodecMask(std::span<const uint8_t> payload, uint64_t* mask) {
  if (payload.empty()) {
    *mask = 0;  // legacy parent: no codec payload means raw only
    return true;
  }
  if (payload.size() != 8) return false;
  *mask = LoadU64(payload.data());
  return true;
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<uint8_t> out;
  out.reserve(kWireHeaderBytes + frame.payload.size() +
              kWirePayloadCrcBytes);
  for (char c : kWireMagic) out.push_back(static_cast<uint8_t>(c));
  out.push_back(static_cast<uint8_t>(frame.type));
  out.push_back(kWireVersion);
  out.push_back(0);  // reserved
  out.push_back(0);
  AppendU64(&out, frame.child_id);
  AppendU64(&out, frame.seq);
  AppendU32(&out, static_cast<uint32_t>(frame.payload.size()));
  AppendU32(&out, io::Crc32c(out.data(), out.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  AppendU32(&out,
            io::Crc32c(frame.payload.data(), frame.payload.size()));
  return out;
}

FrameDecoder::Result FrameDecoder::Next(Frame* out, std::string* error) {
  if (poisoned_) {
    *error = "stream already poisoned";
    return Result::kCorrupt;
  }
  if (buffer_.size() < kWireHeaderBytes) return Result::kNeedMore;
  // The deque is contiguous enough for nobody: copy the header out.
  uint8_t header[kWireHeaderBytes];
  std::copy(buffer_.begin(),
            buffer_.begin() + static_cast<long>(kWireHeaderBytes), header);
  if (std::memcmp(header, kWireMagic, sizeof(kWireMagic)) != 0) {
    poisoned_ = true;
    *error = "bad frame magic";
    return Result::kCorrupt;
  }
  if (LoadU32(header + kWireHeaderBytes - 4) !=
      io::Crc32c(header, kWireHeaderBytes - 4)) {
    poisoned_ = true;
    *error = "frame header CRC mismatch";
    return Result::kCorrupt;
  }
  const uint8_t type = header[8];
  const uint8_t version = header[9];
  const uint32_t payload_len = LoadU32(header + 28);
  if (!ValidFrameType(type) || version != kWireVersion ||
      payload_len > kWireMaxPayloadBytes) {
    poisoned_ = true;
    *error = "implausible frame header";
    return Result::kCorrupt;
  }
  const size_t total =
      kWireHeaderBytes + payload_len + kWirePayloadCrcBytes;
  if (buffer_.size() < total) return Result::kNeedMore;
  std::vector<uint8_t> payload(payload_len);
  std::copy(buffer_.begin() + static_cast<long>(kWireHeaderBytes),
            buffer_.begin() + static_cast<long>(kWireHeaderBytes +
                                                payload_len),
            payload.begin());
  uint8_t crc_bytes[kWirePayloadCrcBytes];
  std::copy(buffer_.begin() +
                static_cast<long>(kWireHeaderBytes + payload_len),
            buffer_.begin() + static_cast<long>(total), crc_bytes);
  if (LoadU32(crc_bytes) !=
      io::Crc32c(payload.data(), payload.size())) {
    poisoned_ = true;
    *error = "frame payload CRC mismatch";
    return Result::kCorrupt;
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(total));
  out->type = static_cast<FrameType>(type);
  out->child_id = LoadU64(header + 12);
  out->seq = LoadU64(header + 20);
  out->payload = std::move(payload);
  return Result::kFrame;
}

}  // namespace smb::repl
