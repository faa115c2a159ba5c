#include "trace/span_tracer.h"

#include <algorithm>
#include <array>
#include <deque>
#include <mutex>

namespace smb::trace {

namespace internal {

std::atomic<bool> g_capturing{false};

namespace {

struct ThreadLog {
  uint32_t tid = 0;
  // Monotone count of spans this thread committed since the last
  // StartCapture(); the ring slot is head % kSpanRingCapacity. Owner
  // thread writes, control plane reads — serialized by the quiescence
  // contract in the header, not by this struct.
  uint64_t head = 0;
  std::array<SpanEvent, kSpanRingCapacity> ring;
};

// Deliberately leaked: spans may be committed during static destruction
// of other objects, and registered logs must outlive their threads so a
// capture can be exported after workers exit.
std::mutex& RegistryMutex() {
  static std::mutex* mutex = new std::mutex;
  return *mutex;
}

std::deque<ThreadLog>& Registry() {
  static std::deque<ThreadLog>* registry = new std::deque<ThreadLog>;
  return *registry;
}

ThreadLog* AcquireThreadLog() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::deque<ThreadLog>& registry = Registry();
  registry.emplace_back();
  registry.back().tid = static_cast<uint32_t>(registry.size());
  return &registry.back();
}

ThreadLog* ThisThreadLog() {
  thread_local ThreadLog* log = AcquireThreadLog();
  return log;
}

}  // namespace

void CommitSpan(const char* category, const char* name, uint64_t start_ns,
                uint64_t end_ns) {
  ThreadLog* log = ThisThreadLog();
  SpanEvent& slot = log->ring[log->head % kSpanRingCapacity];
  slot.category = category;
  slot.name = name;
  slot.start_ns = start_ns;
  slot.duration_ns = end_ns - start_ns;
  ++log->head;
}

}  // namespace internal

void StartCapture() {
  std::lock_guard<std::mutex> lock(internal::RegistryMutex());
  for (internal::ThreadLog& log : internal::Registry()) log.head = 0;
  internal::g_capturing.store(true, std::memory_order_relaxed);
}

void StopCapture() {
  internal::g_capturing.store(false, std::memory_order_relaxed);
}

SpanStats CaptureStats() {
  std::lock_guard<std::mutex> lock(internal::RegistryMutex());
  SpanStats stats;
  for (const internal::ThreadLog& log : internal::Registry()) {
    stats.total_recorded += log.head;
    if (log.head > kSpanRingCapacity) {
      stats.dropped_on_wrap += log.head - kSpanRingCapacity;
    }
    ++stats.threads;
  }
  return stats;
}

std::vector<ChromeTraceEvent> CollectSpans() {
  std::lock_guard<std::mutex> lock(internal::RegistryMutex());
  std::vector<ChromeTraceEvent> out;
  for (const internal::ThreadLog& log : internal::Registry()) {
    const uint64_t retained =
        std::min<uint64_t>(log.head, kSpanRingCapacity);
    for (uint64_t i = log.head - retained; i != log.head; ++i) {
      const SpanEvent& event = log.ring[i % kSpanRingCapacity];
      out.push_back(ChromeTraceEvent{event.name, event.category, log.tid,
                                     event.start_ns, event.duration_ns});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ChromeTraceEvent& a, const ChromeTraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.tid < b.tid;
            });
  return out;
}

std::string ExportChromeTrace() {
  const SpanStats stats = CaptureStats();
  return FormatChromeTrace(CollectSpans(), stats.total_recorded,
                           stats.dropped_on_wrap);
}

}  // namespace smb::trace
