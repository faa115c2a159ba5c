// SlabArena — contiguous fixed-stride bitmap storage for the per-flow
// engine, built on SlabAlloc, a chunked mmap page allocator.
//
// Every slot occupies `words_per_slot` consecutive uint64 words inside a
// chunk, so (a) allocating a flow is a bump of the slot counter (or a
// free-list pop after evictions) instead of a heap allocation, and
// (b) walking slots in order walks memory sequentially within each chunk
// — the access pattern the batch recording pipeline's prefetches are
// built around.
//
// Chunked growth (DESIGN.md §15): slots are grouped into power-of-two
// blocks of `slots_per_chunk`, each backed by one private anonymous
// mapping. Unlike the old std::vector slab, growth maps a NEW chunk and
// never moves existing slots, so slot pointers are stable for the
// arena's lifetime — eviction can free-list and reuse slots without any
// pointer fix-ups elsewhere.
//
// SlabAlloc is where page placement happens:
//   * try_hugepages: each chunk is first requested as MAP_HUGETLB (needs
//     preallocated hugepages); on failure the chunk falls back to a
//     normal mapping with madvise(MADV_HUGEPAGE) (transparent
//     hugepages); on kernels without either, a plain mapping. Stats
//     record which tier each byte landed in.
//
// Accounting: ResidentBytes() reports mapped bytes (the address-space
// the arena holds; an upper bound on RSS since untouched pages of a
// chunk are not yet committed). LiveBytes() reports bytes of
// currently-allocated slots only — the figure the eviction budget
// governs, honest under deletion because freed slots leave it
// immediately and are reused before any new chunk is mapped.

#ifndef SMBCARD_FLOW_SLAB_ARENA_H_
#define SMBCARD_FLOW_SLAB_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/macros.h"

namespace smb {

struct SlabAllocOptions {
  // Request MAP_HUGETLB chunks, falling back to madvise(MADV_HUGEPAGE),
  // falling back to plain pages.
  bool try_hugepages = false;
};

struct SlabAllocStats {
  size_t mapped_bytes = 0;       // total address space mapped
  size_t hugetlb_bytes = 0;      // backed by explicit MAP_HUGETLB pages
  size_t thp_advised_bytes = 0;  // madvise(MADV_HUGEPAGE) accepted
};

// Chunked page allocator: maps private anonymous chunks with the
// hugepage fallback chain above and owns them until destruction.
// Individual chunks are never unmapped early — the arena's free list
// recycles slots instead, so addresses handed out stay valid.
class SlabAlloc {
 public:
  explicit SlabAlloc(const SlabAllocOptions& options = {});
  ~SlabAlloc();

  SlabAlloc(SlabAlloc&& other) noexcept;
  SlabAlloc& operator=(SlabAlloc&& other) noexcept;
  SlabAlloc(const SlabAlloc&) = delete;
  SlabAlloc& operator=(const SlabAlloc&) = delete;

  // Maps a zero-filled chunk of at least `bytes` (rounded up to the page
  // size actually used) and returns its base. Aborts on out-of-memory —
  // the same contract heap growth had under std::vector.
  void* Map(size_t bytes);

  const SlabAllocOptions& options() const { return options_; }
  const SlabAllocStats& stats() const { return stats_; }
  size_t num_chunks() const { return chunks_.size(); }

 private:
  struct Chunk {
    void* base = nullptr;
    size_t bytes = 0;
    bool hugetlb = false;
  };

  void Release();

  SlabAllocOptions options_;
  SlabAllocStats stats_;
  std::vector<Chunk> chunks_;
};

class SlabArena {
 public:
  explicit SlabArena(size_t words_per_slot,
                     const SlabAllocOptions& alloc_options = {});

  SlabArena(SlabArena&&) = default;
  SlabArena& operator=(SlabArena&&) = default;
  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  // Returns a zero-filled slot: a recycled one when the free list is
  // non-empty, otherwise the next fresh slot (mapping a new chunk when
  // the current one is full). Never moves existing slots.
  uint32_t Allocate();

  // Recycles `slot`. The caller must not touch the slot again until
  // Allocate() hands it back out (zeroed).
  void Free(uint32_t slot);

  uint64_t* SlotWords(uint32_t slot) {
    return chunk_bases_[slot >> chunk_shift_] +
           (slot & chunk_mask_) * stride_;
  }
  const uint64_t* SlotWords(uint32_t slot) const {
    return chunk_bases_[slot >> chunk_shift_] +
           (slot & chunk_mask_) * stride_;
  }
  std::span<const uint64_t> SlotSpan(uint32_t slot) const {
    return {SlotWords(slot), stride_};
  }

  // Currently-allocated slots (free-listed slots excluded).
  size_t num_slots() const { return high_water_ - free_slots_.size(); }
  // Slots ever handed out, including ones now on the free list.
  size_t high_water_slots() const { return high_water_; }
  size_t free_slots() const { return free_slots_.size(); }
  size_t words_per_slot() const { return stride_; }
  size_t slots_per_chunk() const { return size_t{1} << chunk_shift_; }

  // Mapped footprint (address space held), plus bookkeeping vectors.
  size_t ResidentBytes() const {
    return sizeof(*this) + alloc_.stats().mapped_bytes +
           chunk_bases_.capacity() * sizeof(uint64_t*) +
           free_slots_.capacity() * sizeof(uint32_t);
  }
  // Bytes of live slots only — what a memory budget governs.
  size_t LiveBytes() const {
    return num_slots() * stride_ * sizeof(uint64_t);
  }

  const SlabAllocStats& alloc_stats() const { return alloc_.stats(); }

 private:
  size_t stride_;
  size_t chunk_shift_ = 0;   // log2(slots per chunk)
  uint32_t chunk_mask_ = 0;  // slots_per_chunk - 1
  size_t high_water_ = 0;
  SlabAlloc alloc_;
  std::vector<uint64_t*> chunk_bases_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace smb

#endif  // SMBCARD_FLOW_SLAB_ARENA_H_
