// Fixed-capacity single-producer/single-consumer ring buffer of trivially
// copyable items — the lock-free hand-off lane of the shard pipeline
// (parallel/shard_pipeline.h), which allocates one ring of its sink's item
// type (uint64_t items or Packets) per (producer, shard) pair. Each ring
// has exactly one writer thread and one reader thread by construction.
//
// Synchronization is the classic SPSC protocol: the producer publishes
// slots with a release store of `tail_`, the consumer retires them with a
// release store of `head_`, and each side keeps a cached copy of the other
// side's index so the common case touches no shared cache line at all.
// Batched push/pop move whole spans per index update, which is what makes
// the hand-off cost per item a fraction of a hash.

#ifndef SMBCARD_PARALLEL_SPSC_RING_H_
#define SMBCARD_PARALLEL_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/bit_util.h"
#include "common/macros.h"

namespace smb {

// `T` must be trivially copyable (elements are moved by plain assignment
// with no per-slot synchronization).
template <typename T>
class SpscRingOf {
 public:
  // Creates a ring holding up to `capacity` items; rounded up to a power
  // of two (capacity must be >= 1).
  explicit SpscRingOf(size_t capacity)
      : buffer_(size_t{1} << Log2Ceil64(capacity)),
        mask_(buffer_.size() - 1) {
    SMB_CHECK_MSG(capacity >= 1, "SpscRing needs capacity >= 1");
  }

  SpscRingOf(const SpscRingOf&) = delete;
  SpscRingOf& operator=(const SpscRingOf&) = delete;

  size_t capacity() const { return buffer_.size(); }

  // Producer side: appends up to items.size() elements, returns how many
  // were accepted (0 when full). Never blocks.
  size_t TryPush(std::span<const T> items) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    size_t free = buffer_.size() - static_cast<size_t>(tail - cached_head_);
    if (free < items.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = buffer_.size() - static_cast<size_t>(tail - cached_head_);
    }
    const size_t n = items.size() < free ? items.size() : free;
    for (size_t i = 0; i < n; ++i) {
      buffer_[static_cast<size_t>(tail + i) & mask_] = items[i];
    }
    if (n > 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  // Consumer side: removes up to `max` elements into `out`, returns how
  // many were taken (0 when empty). Never blocks.
  size_t TryPop(T* out, size_t max) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    size_t available = static_cast<size_t>(cached_tail_ - head);
    if (available == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      available = static_cast<size_t>(cached_tail_ - head);
      if (available == 0) return 0;
    }
    const size_t n = max < available ? max : available;
    for (size_t i = 0; i < n; ++i) {
      out[i] = buffer_[static_cast<size_t>(head + i) & mask_];
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

 private:
  static_assert(std::is_trivially_copyable_v<T>,
                "SpscRingOf elements cross threads by plain assignment");

  std::vector<T> buffer_;
  size_t mask_;
  // Producer-owned line: publish index + cached consumer position.
  alignas(64) std::atomic<uint64_t> tail_{0};
  uint64_t cached_head_ = 0;
  // Consumer-owned line: retire index + cached producer position.
  alignas(64) std::atomic<uint64_t> head_{0};
  uint64_t cached_tail_ = 0;
};

}  // namespace smb

#endif  // SMBCARD_PARALLEL_SPSC_RING_H_
