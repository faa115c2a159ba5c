#include "io/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace smb::io {
namespace {

// Bit-at-a-time CRC-32C straight from the reflected polynomial: the
// definition every kernel is held to.
uint32_t ReferenceCrc32c(const uint8_t* p, size_t len, uint32_t crc = 0) {
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

// Every kernel this CPU can run, by name; Crc32c itself is checked
// against the same reference below.
std::vector<std::pair<std::string, Crc32cFn>> Kernels() {
  std::vector<std::pair<std::string, Crc32cFn>> kernels = {
      {"table", &Crc32cTable}};
  if (Crc32cSse42Kernel() != nullptr) {
    kernels.emplace_back("sse4.2", Crc32cSse42Kernel());
  }
  return kernels;
}

TEST(Crc32cKernelTest, EveryShortLengthAndOffsetMatchesTheReference) {
  const std::vector<uint8_t> bytes = RandomBytes(1100 + 8, 0xC3C);
  for (const auto& [name, kernel] : Kernels()) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t len = 0; len <= 1100; ++len) {
        const uint8_t* p = bytes.data() + offset;
        ASSERT_EQ(kernel(p, len, 0), ReferenceCrc32c(p, len))
            << name << " offset " << offset << " length " << len;
      }
    }
  }
}

// The lengths where the three-stream rounds start, end and hand over to
// the single-stream tail, and a buffer of many rounds.
TEST(Crc32cKernelTest, StreamBlockBoundariesMatchTheReference) {
  constexpr size_t kBlock = kCrc32cStreamBlock;
  const std::vector<uint8_t> bytes = RandomBytes(200 * 1024 + 8, 0xB10C);
  for (const auto& [name, kernel] : Kernels()) {
    for (const size_t len : {3 * kBlock - 1, 3 * kBlock, 3 * kBlock + 1,
                             6 * kBlock + 7, size_t{200 * 1024}}) {
      for (const size_t offset : {size_t{0}, size_t{5}}) {
        const uint8_t* p = bytes.data() + offset;
        ASSERT_EQ(kernel(p, len, 0), ReferenceCrc32c(p, len))
            << name << " offset " << offset << " length " << len;
        ASSERT_EQ(kernel(p, len, 0xDEADBEEFu),
                  ReferenceCrc32c(p, len, 0xDEADBEEFu))
            << name << " chained, offset " << offset << " length " << len;
      }
    }
  }
}

// Chaining at every split point equals one call over the whole buffer,
// including a split whose halves ran on different kernels.
TEST(Crc32cKernelTest, ChainingAtEverySplitMatchesOneCall) {
  const std::vector<uint8_t> bytes = RandomBytes(20 * 1024, 0x5917);
  const uint32_t whole = ReferenceCrc32c(bytes.data(), bytes.size());
  const auto kernels = Kernels();
  for (const auto& [first_name, first] : kernels) {
    for (const auto& [second_name, second] : kernels) {
      for (size_t split = 0; split <= bytes.size(); ++split) {
        const uint32_t head = first(bytes.data(), split, 0);
        ASSERT_EQ(second(bytes.data() + split, bytes.size() - split, head),
                  whole)
            << first_name << " then " << second_name << " split at "
            << split;
      }
    }
  }
}

// RFC 3720 (iSCSI) appendix B.4 CRC examples.
TEST(Crc32cKernelTest, MatchesTheIscsiTestVectors) {
  std::vector<uint8_t> zeros(32, 0x00);
  std::vector<uint8_t> ones(32, 0xFF);
  std::vector<uint8_t> ascending(32);
  std::vector<uint8_t> descending(32);
  for (size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  for (const auto& [name, kernel] : Kernels()) {
    EXPECT_EQ(kernel(zeros.data(), 32, 0), 0x8A9136AAu) << name;
    EXPECT_EQ(kernel(ones.data(), 32, 0), 0x62A8AB43u) << name;
    EXPECT_EQ(kernel(ascending.data(), 32, 0), 0x46DD794Eu) << name;
    EXPECT_EQ(kernel(descending.data(), 32, 0), 0x113FDB5Cu) << name;
  }
  EXPECT_EQ(Crc32c(zeros.data(), 32), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(descending.data(), 32), 0x113FDB5Cu);
}

TEST(Crc32cKernelTest, DispatchedCrcMatchesTheReference) {
  const std::vector<uint8_t> bytes = RandomBytes(50000, 0xD15);
  for (const size_t len : {size_t{0}, size_t{7}, size_t{4096},
                           size_t{3 * kCrc32cStreamBlock + 9},
                           size_t{50000}}) {
    EXPECT_EQ(Crc32c(bytes.data(), len), ReferenceCrc32c(bytes.data(), len))
        << "length " << len;
  }
}

// Crc32c runs the SSE4.2 kernel wherever the CPU reports SSE4.2, in
// every build: the hardware path does not depend on a compile flag.
TEST(Crc32cKernelTest, DispatchPicksSse42WheneverTheCpuHasIt) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  const bool has_sse42 = __builtin_cpu_supports("sse4.2");
#else
  const bool has_sse42 = false;
#endif
  EXPECT_EQ(Crc32cSse42Kernel() != nullptr, has_sse42);
  EXPECT_EQ(Crc32cKernelName(), has_sse42 ? "sse4.2" : "table");
}

}  // namespace
}  // namespace smb::io
