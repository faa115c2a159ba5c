// Little-endian integers in byte buffers, shared by every binary format
// that builds a std::vector<uint8_t>: FLW1, SMBZ1, SMBRPAR1, SMBREPL1
// frames, SMBCKPT1/SMBSPOOL framed images, SMB2, HPP2 and SHD1
// snapshots, and SMBT1 traces.
//
// Values move through memcpy, which is the little-endian byte order only
// on a little-endian host; the bulk word forms rely on that to copy a
// whole bitmap in one call.

#ifndef SMBCARD_COMMON_LE_BYTES_H_
#define SMBCARD_COMMON_LE_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace smb {

static_assert(std::endian::native == std::endian::little,
              "the byte formats are written with host-order memcpy");

// Scalar appends grow the buffer and memcpy into the new tail: GCC 12
// reports a false -Wstringop-overflow for vector::insert from a local.
inline void AppendBytes(std::vector<uint8_t>* out, const void* bytes,
                        size_t size) {
  const size_t at = out->size();
  out->resize(at + size);
  std::memcpy(out->data() + at, bytes, size);
}

inline void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  AppendBytes(out, &v, sizeof(v));
}

inline void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  AppendBytes(out, &v, sizeof(v));
}

// Appends every word in one copy, without zero-filling the tail first.
inline void AppendU64s(std::vector<uint8_t>* out,
                       std::span<const uint64_t> words) {
  const auto* first = reinterpret_cast<const uint8_t*>(words.data());
  out->insert(out->end(), first, first + words.size_bytes());
}

// Unchecked loads; the caller has bounds-checked `p`.
inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Bounds-checked read at *pos; advances *pos on success.
inline bool ReadU64(std::span<const uint8_t> in, size_t* pos, uint64_t* v) {
  if (*pos > in.size() || in.size() - *pos < sizeof(*v)) return false;
  *v = LoadU64(in.data() + *pos);
  *pos += sizeof(*v);
  return true;
}

// Fills `words` from the bytes at *pos in one copy; advances *pos on
// success.
inline bool ReadU64s(std::span<const uint8_t> in, size_t* pos,
                     std::span<uint64_t> words) {
  if (*pos > in.size() || in.size() - *pos < words.size_bytes()) {
    return false;
  }
  std::memcpy(words.data(), in.data() + *pos, words.size_bytes());
  *pos += words.size_bytes();
  return true;
}

}  // namespace smb

#endif  // SMBCARD_COMMON_LE_BYTES_H_
