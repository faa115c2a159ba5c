#include "flow/slab_arena.h"

#include <algorithm>

#include "common/bit_util.h"

#ifdef __linux__
#include <sys/mman.h>
#else
#include <cstdlib>
#include <new>
#endif

namespace smb {
namespace {

// Chunk sizing target: one explicit hugepage. Growth reaches it even
// when hugepages are off — 2 MiB chunks keep the mapping count low and
// give transparent hugepages an aligned region to collapse.
constexpr size_t kTargetChunkBytes = size_t{2} << 20;
// The addressing unit, and so the first chunk, without hugepages.
constexpr size_t kUnitBytes = size_t{64} << 10;
constexpr size_t kPageBytes = 4096;

// The largest power of two <= bytes / stride_bytes, at least 1.
size_t SlotsPerChunk(size_t bytes, size_t stride_bytes) {
  const size_t slots = std::max<size_t>(bytes / stride_bytes, 1);
  return size_t{1} << Log2Floor64(slots);
}

}  // namespace

void SlabAlloc::Unmap::operator()(void* base) const {
#ifdef __linux__
  munmap(base, bytes);
#else
  ::operator delete(base, std::align_val_t{kPageBytes});
#endif
}

void* SlabAlloc::Map(size_t bytes) {
  SMB_CHECK_MSG(bytes > 0, "cannot map an empty chunk");
  void* base = nullptr;
  size_t chunk_bytes = RoundUp(bytes, kPageBytes);
#ifdef __linux__
  if (options_.try_hugepages) {
    // Explicit hugepages first: needs a preallocated pool
    // (vm.nr_hugepages); commonly absent, so failure is the expected
    // path, not an error.
    const size_t huge_bytes = RoundUp(bytes, kTargetChunkBytes);
    base = mmap(nullptr, huge_bytes, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
    if (base != MAP_FAILED) {
      chunk_bytes = huge_bytes;
      stats_.hugetlb_bytes += huge_bytes;
    } else {
      base = nullptr;
    }
  }
  if (base == nullptr) {
    base = mmap(nullptr, chunk_bytes, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    SMB_CHECK_MSG(base != MAP_FAILED, "slab chunk mmap failed");
#ifdef MADV_HUGEPAGE
    if (options_.try_hugepages &&
        madvise(base, chunk_bytes, MADV_HUGEPAGE) == 0) {
      stats_.thp_advised_bytes += chunk_bytes;
    }
#endif
  }
#else
  base = ::operator new(chunk_bytes, std::align_val_t{kPageBytes});
  std::memset(base, 0, chunk_bytes);
#endif
  stats_.mapped_bytes += chunk_bytes;
  chunks_.emplace_back(base, Unmap{chunk_bytes});
  return base;
}

SlabArena::SlabArena(size_t words_per_slot,
                     const SlabAllocOptions& alloc_options)
    : stride_(words_per_slot), alloc_(alloc_options) {
  SMB_CHECK_MSG(words_per_slot >= 1, "slab slots need at least one word");
  // Power-of-two slots per unit so the hot slot->address math is a
  // shift+mask; the chunk request rounds the byte count up to the page
  // granularity, so a non-power-of-two stride only wastes the tail.
  const size_t stride_bytes = stride_ * sizeof(uint64_t);
  const size_t unit_slots = SlotsPerChunk(
      alloc_options.try_hugepages ? kTargetChunkBytes : kUnitBytes,
      stride_bytes);
  chunk_shift_ = static_cast<size_t>(Log2Floor64(unit_slots));
  chunk_mask_ = static_cast<uint32_t>(unit_slots - 1);
  target_units_ =
      SlotsPerChunk(kTargetChunkBytes, stride_bytes) / unit_slots;
}

uint32_t SlabArena::Allocate() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    std::memset(SlotWords(slot), 0, stride_ * sizeof(uint64_t));
    return slot;
  }
  const size_t slot = high_water_;
  if ((slot >> chunk_shift_) == chunk_bases_.size()) {
    // Double the mapped units, capped at one full-size chunk.
    const size_t units =
        std::clamp<size_t>(chunk_bases_.size(), 1, target_units_);
    const size_t unit_words = slots_per_chunk() * stride_;
    auto* base = static_cast<uint64_t*>(
        alloc_.Map(units * unit_words * sizeof(uint64_t)));
    for (size_t u = 0; u < units; ++u) {
      chunk_bases_.push_back(base + u * unit_words);
    }
  }
  ++high_water_;
  return static_cast<uint32_t>(slot);
}

void SlabArena::Free(uint32_t slot) {
  SMB_DCHECK(slot < high_water_);
  free_slots_.push_back(slot);
}

}  // namespace smb
