#include "flow/slab_arena.h"

#include <utility>

#include "common/bit_util.h"

#ifdef __linux__
#include <sys/mman.h>
#else
#include <cstdlib>
#include <new>
#endif

namespace smb {
namespace {

// Chunk sizing target: one explicit hugepage. Chosen even when hugepages
// are off — 2 MiB chunks keep the chunk-base array tiny and give
// transparent hugepages an aligned region to collapse.
constexpr size_t kTargetChunkBytes = size_t{2} << 20;
constexpr size_t kPageBytes = 4096;

}  // namespace

SlabAlloc::SlabAlloc(const SlabAllocOptions& options) : options_(options) {}

SlabAlloc::~SlabAlloc() { Release(); }

SlabAlloc::SlabAlloc(SlabAlloc&& other) noexcept
    : options_(other.options_),
      stats_(other.stats_),
      chunks_(std::move(other.chunks_)) {
  other.chunks_.clear();
  other.stats_ = SlabAllocStats{};
}

SlabAlloc& SlabAlloc::operator=(SlabAlloc&& other) noexcept {
  if (this == &other) return *this;
  Release();
  options_ = other.options_;
  stats_ = other.stats_;
  chunks_ = std::move(other.chunks_);
  other.chunks_.clear();
  other.stats_ = SlabAllocStats{};
  return *this;
}

void SlabAlloc::Release() {
#ifdef __linux__
  for (const Chunk& chunk : chunks_) {
    munmap(chunk.base, chunk.bytes);
  }
#else
  for (const Chunk& chunk : chunks_) {
    ::operator delete(chunk.base, std::align_val_t{kPageBytes});
  }
#endif
  chunks_.clear();
  stats_ = SlabAllocStats{};
}

void* SlabAlloc::Map(size_t bytes) {
  SMB_CHECK_MSG(bytes > 0, "cannot map an empty chunk");
  Chunk chunk;
#ifdef __linux__
  if (options_.try_hugepages) {
    // Explicit hugepages first: needs a preallocated pool
    // (vm.nr_hugepages); commonly absent, so failure is the expected
    // path, not an error.
    const size_t huge_bytes = RoundUp(bytes, kTargetChunkBytes);
    void* base = mmap(nullptr, huge_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
    if (base != MAP_FAILED) {
      chunk.base = base;
      chunk.bytes = huge_bytes;
      chunk.hugetlb = true;
      stats_.hugetlb_bytes += huge_bytes;
    }
  }
  if (chunk.base == nullptr) {
    const size_t page_bytes = RoundUp(bytes, kPageBytes);
    void* base = mmap(nullptr, page_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    SMB_CHECK_MSG(base != MAP_FAILED, "slab chunk mmap failed");
    chunk.base = base;
    chunk.bytes = page_bytes;
    if (options_.try_hugepages) {
#ifdef MADV_HUGEPAGE
      if (madvise(base, page_bytes, MADV_HUGEPAGE) == 0) {
        stats_.thp_advised_bytes += page_bytes;
      }
#endif
    }
  }
#else
  const size_t page_bytes = RoundUp(bytes, kPageBytes);
  chunk.base = ::operator new(page_bytes, std::align_val_t{kPageBytes});
  std::memset(chunk.base, 0, page_bytes);
  chunk.bytes = page_bytes;
#endif
  stats_.mapped_bytes += chunk.bytes;
  chunks_.push_back(chunk);
  return chunk.base;
}

SlabArena::SlabArena(size_t words_per_slot,
                     const SlabAllocOptions& alloc_options)
    : stride_(words_per_slot), alloc_(alloc_options) {
  SMB_CHECK_MSG(words_per_slot >= 1, "slab slots need at least one word");
  // Power-of-two slots per chunk so the hot slot->address math is a
  // shift+mask; the chunk request rounds the byte count up to the page
  // granularity, so a non-power-of-two stride only wastes the tail.
  const size_t stride_bytes = stride_ * sizeof(uint64_t);
  size_t per_chunk = kTargetChunkBytes / stride_bytes;
  if (per_chunk < 1) per_chunk = 1;
  chunk_shift_ = static_cast<size_t>(Log2Floor64(per_chunk));
  chunk_mask_ = static_cast<uint32_t>((size_t{1} << chunk_shift_) - 1);
}

uint32_t SlabArena::Allocate() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    std::memset(SlotWords(slot), 0, stride_ * sizeof(uint64_t));
    return slot;
  }
  const size_t slot = high_water_;
  const size_t chunk = slot >> chunk_shift_;
  if (chunk == chunk_bases_.size()) {
    chunk_bases_.push_back(static_cast<uint64_t*>(
        alloc_.Map(slots_per_chunk() * stride_ * sizeof(uint64_t))));
  }
  ++high_water_;
  return static_cast<uint32_t>(slot);
}

void SlabArena::Free(uint32_t slot) {
  SMB_DCHECK(slot < high_water_);
  free_slots_.push_back(slot);
}

}  // namespace smb
