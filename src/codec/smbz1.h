// SMBZ1 — lossless compression for SMB sketch state (DESIGN.md §17).
//
// The FLW1 snapshot format spends a fixed (2 + words_per_slot) * 8 bytes
// per flow regardless of how much information the bitmap actually holds.
// SMBZ1 re-frames the same state with a per-slot encoder that picks the
// cheapest of three modes:
//
//   raw     the bitmap words verbatim — never worse than the small
//           slot header, and the fallback for mid-fill states whose
//           entropy genuinely approaches 1 bit/bit
//   sparse  a varint-delta position list over the *minority* bit
//           polarity: set positions for round-0/low-fill flows, zero
//           positions for late-round dense flows (an SMB bitmap at its
//           final rounds is almost all ones, so the zeros are the
//           cheap side to name)
//   rle     run-length tokens over 64-bit words (zero runs, all-ones
//           runs, literal runs) — wins on clustered or merged states
//
// The morph metadata (r, v) rides in the slot header as varints, so a
// decoder rebuilds bitmap + metadata without ever touching the
// estimator. Encode/decode round-trips are bit-identical: compressing
// an FLW1 image and decompressing it again reproduces the input
// byte-for-byte, including its trailing checksum.
//
// Container layout (little-endian):
//   magic "SMBZ1" (5 bytes), u8 version (= 1), u16 reserved (= 0)
//   u64 num_bits, threshold, base_seed, num_flows, words_per_slot
//   per flow: u64 flow key, slot record (below)
//   u32 CRC-32C over every preceding byte
//
// Slot record:
//   u8 mode byte: bits 0-1 mode (0 raw, 1 sparse, 2 rle; 3 invalid),
//                 bit 2 sparse polarity (0 = set positions listed,
//                 1 = zero positions listed), bits 3-7 must be zero
//   varint round, varint ones   (the packed FLW1 meta, split)
//   payload:
//     raw:    words_per_slot * 8 bytes, words verbatim
//     sparse: varint count, then count position varints — the first is
//             the position itself, each later one is the gap minus one
//             (positions are strictly ascending and < num_bits)
//     rle:    varint tokens until exactly words_per_slot words are
//             covered; kind = token & 3 (0 zero-word run, 1 all-ones
//             run, 2 literal run followed by len * 8 payload bytes),
//             len = token >> 2, len >= 1
//
// This header is self-contained on purpose: it depends only on the
// in-repo CRC-32C and Murmur3 primitives, never on the estimator or
// engine layers, so io/repl/flow can all link it without cycles.

#ifndef SMBCARD_CODEC_SMBZ1_H_
#define SMBCARD_CODEC_SMBZ1_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace smb::codec {

enum class SlotMode : uint8_t {
  kRaw = 0,
  kSparse = 1,
  kRle = 2,
};

// One flow's state as the engine holds it: morph metadata plus the
// materialized bitmap words.
struct SlotState {
  uint32_t round = 0;
  uint32_t ones = 0;
  std::span<const uint64_t> words;
};

// A slot record's mode byte and morph metadata.
struct SlotHeader {
  uint32_t round = 0;
  uint32_t ones = 0;
  SlotMode mode = SlotMode::kRaw;
  bool zeros_listed = false;  // sparse polarity bit
};

struct DecodedSlot : SlotHeader {
  uint64_t set_bits = 0;  // popcount of the decoded words
};

// Aggregate encoder accounting, for telemetry and bench ratio columns.
struct CodecStats {
  uint64_t raw_bytes = 0;      // FLW1-equivalent bytes of the input
  uint64_t encoded_bytes = 0;  // SMBZ1 bytes produced
  uint64_t raw_slots = 0;
  uint64_t sparse_slots = 0;
  uint64_t rle_slots = 0;
};

// Appends the cheapest slot record for `state` to `out`. `num_bits` is
// the logical bitmap width; `state.words` must span exactly
// (num_bits + 63) / 64 words. Per-slot mode tallies land in `stats`
// when given.
void EncodeSlot(uint64_t num_bits, const SlotState& state,
                std::vector<uint8_t>* out, CodecStats* stats = nullptr);

// Forces a specific mode (property tests exercise each mode across
// random morph states). Returns false when the mode cannot represent
// the state losslessly (sparse with stray bits above num_bits).
bool EncodeSlotAs(SlotMode mode, uint64_t num_bits, const SlotState& state,
                  std::vector<uint8_t>* out);

// Decodes one slot record at *pos, advancing it past the record.
// `words` must span exactly (num_bits + 63) / 64 words and is fully
// overwritten. Returns false (leaving *pos unspecified) on any
// structural defect: truncation, an invalid mode byte, out-of-range or
// non-ascending positions, run tokens that miss or overshoot the word
// count, payload bits above num_bits. Semantic validation of (round,
// ones) against the bitmap is the caller's job — slot->set_bits feeds
// SmbStateReachableCounts without another pass over the words.
bool DecodeSlot(std::span<const uint8_t> in, size_t* pos, uint64_t num_bits,
                DecodedSlot* slot, std::span<uint64_t> words);

// The sparse reader, in the pieces DecodeSlot's sparse branch is made
// of; a reader that wants a sparse record's positions rather than its
// words calls them itself, with DecodeSlot's checks.
//
// Reads the mode byte and (round, ones) at *pos, advancing past them.
// False on truncation, an invalid mode byte (reserved bits, mode 3, the
// polarity bit outside sparse), a round above 63 or a fill above 26
// bits.
bool ReadSlotHeader(std::span<const uint8_t> in, size_t* pos,
                    SlotHeader* header);
// Reads a sparse payload's position count at *pos; false on truncation
// or a count above num_bits.
bool ReadSparseCount(std::span<const uint8_t> in, size_t* pos,
                     uint64_t num_bits, uint64_t* count);
// Reads one LEB128 varint at *pos (at most ten bytes, the tenth holding
// one bit); false on truncation or overflow.
bool ReadVarint(std::span<const uint8_t> in, size_t* pos, uint64_t* v);
// Reads the `count` positions after a sparse count at *pos and calls
// fn(position) for each: strictly ascending, each below num_bits. False
// (fn may have seen a prefix) on truncation or a position at or past
// num_bits; *pos advances only on success.
template <typename Fn>
bool ReadSparsePositions(std::span<const uint8_t> in, size_t* pos,
                         uint64_t num_bits, uint64_t count, Fn fn) {
  // The cursor stays in a local: fn may write through memory that
  // aliases *pos.
  size_t at = *pos;
  uint64_t next = 0;  // one past the previous position
  for (uint64_t i = 0; i < count; ++i) {
    // One- and two-byte gaps (below 2^14) are read inline without a
    // branch on their length, which is close to random.
    uint64_t gap = 0;
    if (in.size() - at >= 2 && (in[at] & in[at + 1] & 0x80) == 0) {
      const uint64_t b0 = in[at];
      const uint64_t b1 = in[at + 1];
      const uint64_t two = b0 >> 7;  // a second byte follows
      const uint64_t mask = 0 - two;
      gap = (b0 & ~(mask & 0x80)) | ((b1 << 7) & mask);
      at += 1 + two;
    } else if (!ReadVarint(in, &at, &gap)) {
      return false;
    }
    if (gap >= num_bits - next) return false;
    const uint64_t position = next + gap;
    next = position + 1;
    fn(position);
  }
  *pos = at;
  return true;
}

// Appends the record EncodeSlot would write for the round-0 state whose
// set bits are exactly `positions` (strictly ascending, each below
// num_bits), when that record is sparse: the raw size and a floor of the
// rle size are priced from the positions, so no bitmap words are built.
// Returns false, appending nothing, when EncodeSlot would pick another
// mode, or when the floor cannot tell (a list of about 8 or more
// positions per word it touches); the caller then encodes the
// materialized words with EncodeSlot, which writes the same bytes
// whenever this function writes any.
bool EncodeSparseSlot(uint64_t num_bits, std::span<const uint16_t> positions,
                      std::vector<uint8_t>* out);
bool EncodeSparseSlot(uint64_t num_bits, std::span<const uint32_t> positions,
                      std::vector<uint8_t>* out);

// The container header fields.
struct ContainerHeader {
  uint64_t num_bits = 0;
  uint64_t threshold = 0;
  uint64_t base_seed = 0;
  uint64_t num_flows = 0;
  uint64_t words_per_slot = 0;
};

// Writes a container by parts: BeginContainer starts `out` with the
// header, the caller appends num_flows records (u64 flow key, then a
// slot record), and SealContainer appends the CRC.
void BeginContainer(const ContainerHeader& header, std::vector<uint8_t>* out);
void SealContainer(std::vector<uint8_t>* out);

// Checks a container's framing — magic, version, reserved bytes, CRC,
// 0 < num_bits <= 2^26, words_per_slot == ceil(num_bits / 64), and a
// num_flows the payload could hold — and returns its header, with
// *records set to the bytes between the header and the CRC. The records
// themselves are the reader's to decode; each is a u64 flow key then a
// slot record (DecodeSlot), and bytes left after the last are a defect.
std::optional<ContainerHeader> ReadContainer(
    std::span<const uint8_t> smbz1, std::span<const uint8_t>* records);

// The size of the FLW1 image a container re-frames, from its header's
// flow count and slot width alone (no CRC pass): for a container this
// process wrote, what CodecStats::raw_bytes reports for it.
uint64_t Flw1EquivalentBytes(std::span<const uint8_t> smbz1);

// True when `bytes` starts with the SMBZ1 magic at a supported version.
// Cheap content sniff for readers that accept either framing.
bool IsSmbz1Image(std::span<const uint8_t> bytes);

// Compresses a complete FLW1 image (as produced by
// ArenaSmbEngine::Serialize / SerializeFlows) into an SMBZ1 container.
// The input is validated first — magic, geometry, exact size, trailing
// Murmur3 checksum — and nullopt means it was not a well-formed FLW1
// image. Flow order is preserved.
std::optional<std::vector<uint8_t>> CompressFlw1Image(
    std::span<const uint8_t> flw1, CodecStats* stats = nullptr);

// Inverse of CompressFlw1Image: rebuilds the byte-identical FLW1 image,
// trailing checksum included. nullopt on any structural defect or CRC
// mismatch; the result always passes ArenaSmbEngine::Deserialize's
// framing checks if the original did.
std::optional<std::vector<uint8_t>> DecompressToFlw1Image(
    std::span<const uint8_t> smbz1);

}  // namespace smb::codec

#endif  // SMBCARD_CODEC_SMBZ1_H_
