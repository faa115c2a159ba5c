// SlabAlloc/SlabArena unit tests: chunked growth with stable slot
// pointers, small first chunks that double toward 2 MiB, zero-filled
// allocation, free-list recycling, the live-vs-resident accounting split
// the memory budget depends on, and the hugepage fallback chain.

#include "flow/slab_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace smb {
namespace {

TEST(SlabArenaTest, AllocationsAreZeroFilledAndDistinct) {
  SlabArena arena(/*words_per_slot=*/32);
  std::vector<uint32_t> slots;
  for (int i = 0; i < 100; ++i) slots.push_back(arena.Allocate());
  for (size_t i = 0; i < slots.size(); ++i) {
    for (size_t j = i + 1; j < slots.size(); ++j) {
      EXPECT_NE(slots[i], slots[j]);
      EXPECT_NE(arena.SlotWords(slots[i]), arena.SlotWords(slots[j]));
    }
    for (size_t w = 0; w < arena.words_per_slot(); ++w) {
      ASSERT_EQ(arena.SlotWords(slots[i])[w], 0u) << i << " word " << w;
    }
  }
  EXPECT_EQ(arena.num_slots(), 100u);
}

TEST(SlabArenaTest, SlotPointersAreStableAcrossChunkGrowth) {
  // Small stride so many chunks get mapped; the first slot's pointer and
  // contents must never move while thousands more are allocated.
  SlabArena arena(/*words_per_slot=*/8);
  const uint32_t first = arena.Allocate();
  uint64_t* const first_words = arena.SlotWords(first);
  first_words[0] = 0xDEADBEEFCAFEF00DULL;
  const size_t slots_per_chunk = arena.slots_per_chunk();
  for (size_t i = 0; i < slots_per_chunk * 3 + 5; ++i) arena.Allocate();
  EXPECT_GE(arena.alloc_stats().mapped_bytes,
            3 * slots_per_chunk * 8 * sizeof(uint64_t));
  EXPECT_EQ(arena.SlotWords(first), first_words);
  EXPECT_EQ(first_words[0], 0xDEADBEEFCAFEF00DULL);
}

TEST(SlabArenaTest, FreeListRecyclesAndRezeroesSlots) {
  SlabArena arena(/*words_per_slot=*/16);
  const uint32_t a = arena.Allocate();
  const uint32_t b = arena.Allocate();
  arena.SlotWords(a)[3] = 42;
  arena.SlotWords(b)[7] = 43;
  const size_t high_water = arena.high_water_slots();

  arena.Free(a);
  EXPECT_EQ(arena.free_slots(), 1u);
  EXPECT_EQ(arena.num_slots(), 1u);
  const uint32_t again = arena.Allocate();
  EXPECT_EQ(again, a);  // recycled, not fresh
  EXPECT_EQ(arena.high_water_slots(), high_water);
  for (size_t w = 0; w < arena.words_per_slot(); ++w) {
    ASSERT_EQ(arena.SlotWords(again)[w], 0u) << w;
  }
  EXPECT_EQ(arena.SlotWords(b)[7], 43u);  // neighbor untouched
}

TEST(SlabArenaTest, LiveBytesCountsSlotsResidentCountsMappings) {
  SlabArena arena(/*words_per_slot=*/32);
  EXPECT_EQ(arena.LiveBytes(), 0u);
  const uint32_t slot = arena.Allocate();
  EXPECT_EQ(arena.LiveBytes(), 32 * sizeof(uint64_t));
  // The chunk is mapped whole, so resident far exceeds one slot.
  EXPECT_GE(arena.ResidentBytes(), arena.alloc_stats().mapped_bytes);
  const size_t resident = arena.ResidentBytes();
  arena.Free(slot);
  // Freeing shrinks the budgeted (live) figure but never unmaps.
  EXPECT_EQ(arena.LiveBytes(), 0u);
  EXPECT_GE(arena.ResidentBytes(), resident);
}

TEST(SlabArenaTest, ChunksStartSmallAndDoubleToTwoMebibytes) {
  // 1,256-byte slots (a 10,000-bit bitmap): a first slot maps one 64 KiB
  // unit, not a 2 MiB chunk; each later chunk doubles the mapped total
  // until chunks reach 2 MiB, so mapped bytes stay within twice the
  // slots handed out (plus one unit) the whole way.
  SlabArena arena(/*words_per_slot=*/157);
  std::vector<size_t> chunk_bytes;
  size_t mapped = 0;
  while (mapped < (size_t{16} << 20)) {
    arena.Allocate();
    const size_t now = arena.alloc_stats().mapped_bytes;
    if (now != mapped) chunk_bytes.push_back(now - mapped);
    mapped = now;
    ASSERT_LE(mapped, 2 * arena.LiveBytes() + (size_t{64} << 10));
  }
  ASSERT_GE(chunk_bytes.size(), 8u);
  EXPECT_LE(chunk_bytes.front(), size_t{64} << 10);
  for (size_t i = 1; i < chunk_bytes.size(); ++i) {
    EXPECT_GE(chunk_bytes[i], chunk_bytes[i - 1]) << i;
    EXPECT_LE(chunk_bytes[i], size_t{2} << 20) << i;
  }
  EXPECT_GT(chunk_bytes.back(), size_t{1} << 20);
}

TEST(SlabArenaTest, HugepageArenasMapFullChunksFromTheStart) {
  SlabAllocOptions options;
  options.try_hugepages = true;
  SlabArena arena(/*words_per_slot=*/157, options);
  arena.Allocate();
  EXPECT_GT(arena.alloc_stats().mapped_bytes, size_t{1} << 20);
}

TEST(SlabAllocTest, HugepageRequestFallsBackGracefully) {
  // Whatever this machine supports (HugeTLB pool, THP=madvise, or
  // neither), asking for hugepages must still produce usable zeroed
  // memory and coherent stats.
  SlabAllocOptions options;
  options.try_hugepages = true;
  SlabAlloc alloc(options);
  auto* words = static_cast<uint64_t*>(alloc.Map(1 << 20));
  ASSERT_NE(words, nullptr);
  for (size_t i = 0; i < (1 << 20) / sizeof(uint64_t); ++i) {
    ASSERT_EQ(words[i], 0u) << i;
  }
  words[0] = 7;  // writable
  const SlabAllocStats& stats = alloc.stats();
  EXPECT_GE(stats.mapped_bytes, size_t{1} << 20);
  EXPECT_LE(stats.hugetlb_bytes + stats.thp_advised_bytes,
            stats.mapped_bytes);
}

}  // namespace
}  // namespace smb
