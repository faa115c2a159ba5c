#include "io/crc32c.h"

#include <array>
#include <atomic>

#include "common/le_bytes.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace smb::io {
namespace {

// Reflected CRC-32C polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table,
// and kTables[k][b] advances byte b through k additional zero bytes, so
// the main loop retires eight input bytes with eight independent table
// lookups instead of an eight-deep serial chain.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      tables[k][i] =
          tables[0][tables[k - 1][i] & 0xFFu] ^ (tables[k - 1][i] >> 8);
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kTables = MakeTables();

// Compile-time pin of the standard check value: CRC-32C("123456789").
constexpr uint32_t TableCrc(const char* s, size_t n) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < n; ++i) {
    crc = kTables[0][(crc ^ static_cast<uint8_t>(s[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return ~crc;
}
static_assert(TableCrc("123456789", 9) == 0xE3069283u,
              "CRC-32C table does not reproduce the standard check value");

// a·b mod P over GF(2), both in the reflected form the CRC register uses
// (bit 31 is the coefficient of x^0).
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (int i = 0; i < 32; ++i) {
    if ((a & (0x80000000u >> i)) != 0) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;  // b·x
  }
  return product;
}

// x^(8·n) mod P: the factor that advances a CRC register over n zero
// bytes.
constexpr uint32_t ZeroBytesFactor(size_t n) {
  uint32_t factor = 0x80000000u;  // x^0
  for (size_t i = 0; i < n; ++i) factor = MultModP(factor, 0x00800000u);
  return factor;
}

// One zero byte through the byte table is the register times x^8.
static_assert(kTables[0][0x5Au] == MultModP(ZeroBytesFactor(1), 0x5Au),
              "GF(2) multiply disagrees with the CRC-32C table");

#if defined(__x86_64__)

// kShift[k][b] = (b << 8k)·x^(8·kCrc32cStreamBlock) mod P, so shifting a
// register over one stream block of zeros is four lookups: the multiply
// is linear in the register's bytes.
constexpr std::array<std::array<uint32_t, 256>, 4> MakeShiftTables() {
  const uint32_t factor = ZeroBytesFactor(kCrc32cStreamBlock);
  std::array<std::array<uint32_t, 256>, 4> tables{};
  for (size_t k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      tables[k][b] = MultModP(factor, b << (8 * k));
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 4> kShift = MakeShiftTables();

// The register advanced over kCrc32cStreamBlock zero bytes.
uint32_t ShiftOneBlock(uint32_t crc) {
  return kShift[0][crc & 0xFFu] ^ kShift[1][(crc >> 8) & 0xFFu] ^
         kShift[2][(crc >> 16) & 0xFFu] ^ kShift[3][crc >> 24];
}

// The CRC32 instruction has three cycles of latency and a throughput of
// one per cycle, so one dependent chain uses a third of it. Each round
// runs three chains over three adjacent blocks; the first continues the
// running register, the other two start from zero, and since the CRC
// register is linear, crc(A || B) = crc(A) shifted over |B| zero bytes ^
// crc_0(B).
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                        size_t len,
                                                        uint32_t crc) {
  constexpr size_t kBlock = kCrc32cStreamBlock;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc0 = ~crc;
  while (len >= 3 * kBlock) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    const uint8_t* const block_end = p + kBlock;
    do {
      crc0 = _mm_crc32_u64(crc0, LoadU64(p));
      crc1 = _mm_crc32_u64(crc1, LoadU64(p + kBlock));
      crc2 = _mm_crc32_u64(crc2, LoadU64(p + 2 * kBlock));
      p += 8;
    } while (p != block_end);
    crc0 = ShiftOneBlock(static_cast<uint32_t>(crc0)) ^ crc1;
    crc0 = ShiftOneBlock(static_cast<uint32_t>(crc0)) ^ crc2;
    p += 2 * kBlock;
    len -= 3 * kBlock;
  }
  while (len >= 8) {
    crc0 = _mm_crc32_u64(crc0, LoadU64(p));
    p += 8;
    len -= 8;
  }
  auto crc32 = static_cast<uint32_t>(crc0);
  while (len > 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
    --len;
  }
  return ~crc32;
}

bool CpuHasSse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#endif  // __x86_64__

uint32_t ResolveTrampoline(const void* data, size_t len, uint32_t crc);

// Starts at the resolver, then holds the selected kernel for the rest of
// the process. Relaxed ordering suffices: both kernels return the same
// value, so a racing caller that still sees the resolver is correct.
std::atomic<Crc32cFn> g_kernel{&ResolveTrampoline};

Crc32cFn ResolveBest() {
  const Crc32cFn hardware = Crc32cSse42Kernel();
  return hardware != nullptr ? hardware : &Crc32cTable;
}

uint32_t ResolveTrampoline(const void* data, size_t len, uint32_t crc) {
  const Crc32cFn fn = ResolveBest();
  g_kernel.store(fn, std::memory_order_relaxed);
  return fn(data, len, crc);
}

}  // namespace

uint32_t Crc32c(const void* data, size_t len, uint32_t crc) {
  return g_kernel.load(std::memory_order_relaxed)(data, len, crc);
}

uint32_t Crc32cTable(const void* data, size_t len, uint32_t crc) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  // The little-endian u64 load matches the byte-stream definition on the
  // hosts this codebase already commits to (see common/le_bytes.h).
  while (len >= 8) {
    uint64_t v = LoadU64(p);
    v ^= crc;
    crc = kTables[7][v & 0xFFu] ^ kTables[6][(v >> 8) & 0xFFu] ^
          kTables[5][(v >> 16) & 0xFFu] ^ kTables[4][(v >> 24) & 0xFFu] ^
          kTables[3][(v >> 32) & 0xFFu] ^ kTables[2][(v >> 40) & 0xFFu] ^
          kTables[1][(v >> 48) & 0xFFu] ^ kTables[0][(v >> 56) & 0xFFu];
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    crc = kTables[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    --len;
  }
  return ~crc;
}

Crc32cFn Crc32cSse42Kernel() {
#if defined(__x86_64__)
  static const bool supported = CpuHasSse42();
  if (supported) return &Crc32cSse42;
#endif
  return nullptr;
}

std::string_view Crc32cKernelName() {
  return ResolveBest() == &Crc32cTable ? "table" : "sse4.2";
}

}  // namespace smb::io
