// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) — the frame
// checksum of the checkpoint file format.
//
// Chosen over the Murmur3 fingerprint the in-memory snapshot formats use
// because checkpoint files are meant to be inspectable/recoverable by
// external tooling: CRC-32C is the storage-industry convention (iSCSI,
// ext4, RocksDB block trailers) with well-known test vectors, and its
// incremental form lets the writer checksum chunk-by-chunk without
// buffering the file. Since SMBZ1 images carry a CRC-32C trailer, this
// checksum sits on the codec hot path (every compressed delta,
// checkpoint, spool image and wire frame), not just on checkpoint IO.
//
// Two kernels, chosen once per process at the first call: on an x86-64
// CPU that reports SSE4.2, the CRC32 instruction runs over three
// independent streams whose CRCs are joined with a GF(2) shift (Gopal et
// al., "Fast CRC Computation for iSCSI Polynomial Using CRC32
// Instruction", Intel 2011); everywhere else, portable slicing-by-8.
// Every build carries both, with no compile flag, and they return the
// same value for every input.

#ifndef SMBCARD_IO_CRC32C_H_
#define SMBCARD_IO_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace smb::io {

// CRC-32C of `data[0..len)`. `crc` chains calls: Crc32c(b, n, Crc32c(a, m))
// equals Crc32c(concat(a, b), m + n). Pass 0 to start a new checksum.
uint32_t Crc32c(const void* data, size_t len, uint32_t crc = 0);

// The portable slicing-by-8 kernel, same contract as Crc32c. Exposed so
// tests can check it on any CPU and benches can time a host-independent
// yardstick; the rest of the program calls Crc32c.
uint32_t Crc32cTable(const void* data, size_t len, uint32_t crc = 0);

using Crc32cFn = uint32_t (*)(const void* data, size_t len, uint32_t crc);

// The SSE4.2 three-stream kernel, or null when the CPU cannot run it (or
// is not x86-64). Exposed for the kernel tests and benches.
Crc32cFn Crc32cSse42Kernel();

// Bytes per stream in the SSE4.2 kernel's three-stream blocks; inputs
// shorter than three of them run one stream.
inline constexpr size_t kCrc32cStreamBlock = 2048;

// The kernel Crc32c dispatches to: "sse4.2" or "table".
std::string_view Crc32cKernelName();

}  // namespace smb::io

#endif  // SMBCARD_IO_CRC32C_H_
