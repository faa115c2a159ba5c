// Lock-free telemetry primitives: Counter, Gauge, and a log-scale
// LatencyHistogram with power-of-two bucket boundaries (no floating point
// on the record path).
//
// Overhead policy: every update is a single relaxed atomic RMW on a
// cache-line-padded slot, and no instrument feeds back into an estimate —
// the overhead guard test pins this down with a golden estimate.

#ifndef SMBCARD_TELEMETRY_METRICS_H_
#define SMBCARD_TELEMETRY_METRICS_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace smb::telemetry {

inline constexpr size_t kCacheLineSize = 64;

// Histogram geometry is shared by the recording path, the exporter, and
// the parser, so it lives here unconditionally. Bucket 0 holds the value
// 0; bucket i (0 < i < last) holds values in [2^(i-1), 2^i - 1]; the last
// bucket is unbounded. 48 buckets cover every uint64 nanosecond latency or
// batch size we can produce in practice (2^46 ns ≈ 19 hours).
inline constexpr size_t kNumHistogramBuckets = 48;
inline constexpr uint64_t kHistogramUnbounded = UINT64_MAX;

// Bucket index for a recorded value — one bit_width, no FP, no branches
// beyond the clamp.
inline constexpr size_t HistogramBucketIndex(uint64_t value) {
  if (value == 0) return 0;
  const size_t width = static_cast<size_t>(std::bit_width(value));
  return width < kNumHistogramBuckets - 1 ? width : kNumHistogramBuckets - 1;
}

// Inclusive upper bound of bucket `index` (kHistogramUnbounded for the
// overflow bucket). The Prometheus exporter prints these as `le` bounds
// and the parser inverts them via bit_width, so the round trip is exact.
inline constexpr uint64_t HistogramBucketUpperBound(size_t index) {
  if (index == 0) return 0;
  if (index >= kNumHistogramBuckets - 1) return kHistogramUnbounded;
  return (uint64_t{1} << index) - 1;
}

// Monotonically increasing event count. Padded to a full cache line so
// adjacent registry entries never false-share under the parallel recorder.
class alignas(kCacheLineSize) Counter {
 public:
  void Add(uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written signed value (e.g. shard-skew permille, ring occupancy).
class alignas(kCacheLineSize) Gauge {
 public:
  void Set(int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket log-scale histogram; every update is three relaxed RMWs.
class alignas(kCacheLineSize) LatencyHistogram {
 public:
  void Record(uint64_t value) noexcept {
    buckets_[HistogramBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t Count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  uint64_t Sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  uint64_t BucketCount(size_t index) const noexcept {
    return index < kNumHistogramBuckets
               ? buckets_[index].load(std::memory_order_relaxed)
               : 0;
  }
  void Reset() noexcept {
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kNumHistogramBuckets]{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

// The lock-free + padding contract the ISSUE requires, enforced at compile
// time (the telemetry tests restate these as runtime-visible checks).
static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "telemetry counters require lock-free 64-bit atomics");
static_assert(std::atomic<int64_t>::is_always_lock_free,
              "telemetry gauges require lock-free 64-bit atomics");
static_assert(sizeof(Counter) == kCacheLineSize &&
                  alignof(Counter) == kCacheLineSize,
              "Counter must own exactly one cache line");
static_assert(sizeof(Gauge) == kCacheLineSize &&
                  alignof(Gauge) == kCacheLineSize,
              "Gauge must own exactly one cache line");
static_assert(alignof(LatencyHistogram) == kCacheLineSize &&
                  sizeof(LatencyHistogram) % kCacheLineSize == 0,
              "LatencyHistogram must be cache-line padded");

}  // namespace smb::telemetry

#endif  // SMBCARD_TELEMETRY_METRICS_H_
