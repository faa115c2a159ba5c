// Replication wire protocol (DESIGN.md §16) — the framing children and
// the parent speak over a Unix-domain stream socket.
//
// Frame layout (all integers little-endian):
//
//   header    magic "SMBREPL1" (8) | type u8 | version u8 | reserved u16
//             | child_id u64 | seq u64 | payload_len u32
//             | header_crc u32 (CRC-32C of the 32 bytes before it)
//   payload   payload_len bytes | payload_crc u32 (CRC-32C of payload;
//             present even when payload_len == 0)
//
// Both CRC layers are the same CRC-32C the checkpoint files use, so a
// frame that survives decode has the same integrity guarantee as a
// checkpoint that survives recovery. The stream decoder treats ANY
// header or CRC mismatch as poisoning the connection (a byte-stream
// cannot resynchronize after corruption); the caller drops the
// connection and relies on reconnect + retransmit-from-ack.
//
// Frame semantics:
//
//   kHello      child -> parent, opens a session. payload = geometry
//               fingerprint (num_bits, threshold, base_seed as 3 u64);
//               seq = the child's next unassigned sequence number.
//   kHelloAck   parent -> child, empty payload. seq = the parent's
//               PERSISTED high-water for this child (acks never outrun
//               the checkpoint, so a parent kill + restart loses no
//               acked delta).
//   kDelta      child -> parent. payload = SMBZ1 snapshot of the
//               delta's dirty flows (ArenaSmbEngine::SerializeSmbz1);
//               seq = the delta's sequence number, consecutive per child.
//   kAck        parent -> child. seq = persisted high-water; cumulative,
//               so a lost ack is repaired by the next one.
//   kHeartbeat  child -> parent, idle keepalive. seq = newest assigned
//               sequence number (0 when none).
//   kGoodbye    child -> parent, clean shutdown.

#ifndef SMBCARD_REPL_WIRE_FORMAT_H_
#define SMBCARD_REPL_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

namespace smb::repl {

inline constexpr char kWireMagic[8] = {'S', 'M', 'B', 'R', 'E', 'P', 'L',
                                       '1'};
inline constexpr uint8_t kWireVersion = 1;
// magic 8 + type 1 + version 1 + reserved 2 + child_id 8 + seq 8 +
// payload_len 4 (= 32) + header_crc 4.
inline constexpr size_t kWireHeaderBytes = 36;
inline constexpr size_t kWirePayloadCrcBytes = 4;
// A delta payload is one SMBZ1 image; anything claiming more than this is
// a corrupt header, not a frame worth buffering.
inline constexpr uint32_t kWireMaxPayloadBytes = 1u << 28;

enum class FrameType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kDelta = 3,
  kAck = 4,
  kHeartbeat = 5,
  kGoodbye = 6,
};

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  uint64_t child_id = 0;
  uint64_t seq = 0;
  std::vector<uint8_t> payload;
};

// The geometry fingerprint carried by kHello: a parent only accepts
// children whose engines it can merge (ArenaSmbEngine::CanMergeWith).
struct GeometryFingerprint {
  uint64_t num_bits = 0;
  uint64_t threshold = 0;
  uint64_t base_seed = 0;

  bool operator==(const GeometryFingerprint&) const = default;
};

std::vector<uint8_t> EncodeFingerprint(const GeometryFingerprint& fp);
bool DecodeFingerprint(std::span<const uint8_t> payload,
                       GeometryFingerprint* fp);

// The delta payload encoding (DESIGN.md §17). SMBZ1 is the only form in
// which per-flow state crosses the wire: every kDelta payload is an
// SMBZ1 snapshot, and a parent rejects anything else. The
// constant survives only as the value of ChildReplicator::Options::
// codec_mask, which callers may still set but not to anything else.
inline constexpr uint64_t kCodecSmbz1 = uint64_t{1} << 0;

// The complete wire image of one frame (header + payload + payload CRC).
std::vector<uint8_t> EncodeFrame(const Frame& frame);

// Incremental stream decoder: feed whatever recv() produced, then drain
// complete frames. One decoder per connection.
class FrameDecoder {
 public:
  enum class Result : uint8_t {
    kFrame = 0,    // *out holds the next decoded frame
    kNeedMore,     // the buffer holds only a frame prefix
    kCorrupt,      // stream poisoned — drop the connection
  };

  void Feed(std::span<const uint8_t> bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  // Decodes the next complete frame out of the buffered bytes. After
  // kCorrupt the decoder stays poisoned (every later call repeats
  // kCorrupt) because a byte stream has no resync point.
  Result Next(Frame* out, std::string* error);

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::deque<uint8_t> buffer_;
  bool poisoned_ = false;
};

}  // namespace smb::repl

#endif  // SMBCARD_REPL_WIRE_FORMAT_H_
