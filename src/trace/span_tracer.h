// Low-overhead span tracer (DESIGN.md §14). Hot pipeline stages are
// annotated with TRACE_SPAN("cat", "name"); each span is one 32-byte
// event pushed into a thread-local ring with no locks and no allocation
// on the record path — a relaxed atomic load (the capture flag) is the
// only cost when capture is idle, and spans never feed back into an
// estimate (the overhead-guard golden test pins bit-identity).
//
// Concurrency contract: Record-side calls (TRACE_SPAN / TRACE_INSTANT)
// are thread-safe against each other. StartCapture / StopCapture /
// CollectSpans / ExportChromeTrace are control-plane calls: they must not
// run concurrently with span writers (start capture before spawning
// workers, export after joining them — thread join provides the
// happens-before edge that makes the export race-free, which the TSan CI
// leg exercises). Per-thread rings hold kSpanRingCapacity events; older
// events are overwritten on wrap and counted as dropped, never blocking
// the recording thread.
//
// Span names and categories must be string literals (or otherwise
// immortal): the ring stores the pointers, not copies.

#ifndef SMBCARD_TRACE_SPAN_TRACER_H_
#define SMBCARD_TRACE_SPAN_TRACER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "trace/chrome_trace.h"
#include "trace/trace_clock.h"

namespace smb::trace {

// Aggregate capture accounting across every thread that ever recorded.
struct SpanStats {
  uint64_t total_recorded = 0;  // spans committed since StartCapture()
  uint64_t dropped_on_wrap = 0;  // overwritten by ring wrap, not exported
  uint32_t threads = 0;          // thread rings registered
};

// Events retained per thread. A wrapped ring keeps the newest
// kSpanRingCapacity spans — the tail of the run, which is what a
// post-hoc look at a long benchmark wants.
inline constexpr size_t kSpanRingCapacity = 8192;

// One ring slot: 32 bytes, pointers to immortal literals plus the two
// timestamps. Kept POD so a wrapped slot is overwritten by plain stores.
struct SpanEvent {
  const char* category;
  const char* name;
  uint64_t start_ns;
  uint64_t duration_ns;
};

namespace internal {

extern std::atomic<bool> g_capturing;

// Commits one completed span to this thread's ring (registering the ring
// on first use).
void CommitSpan(const char* category, const char* name, uint64_t start_ns,
                uint64_t end_ns);

}  // namespace internal

inline bool IsCapturing() {
  return internal::g_capturing.load(std::memory_order_relaxed);
}

// Resets every registered ring and raises the capture flag / lowers it.
// Control-plane only (see the concurrency contract above).
void StartCapture();
void StopCapture();

SpanStats CaptureStats();

// The retained spans of every ring, merged and sorted by start time.
std::vector<ChromeTraceEvent> CollectSpans();

// CollectSpans + CaptureStats rendered as a Chrome trace document.
std::string ExportChromeTrace();

class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name) {
    if (SMB_UNLIKELY(IsCapturing())) {
      category_ = category;
      name_ = name;
      start_ns_ = TraceNowNanos();
    }
  }

  ~ScopedSpan() {
    if (SMB_UNLIKELY(start_ns_ != 0)) {
      internal::CommitSpan(category_, name_, start_ns_, TraceNowNanos());
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  // 0 doubles as "capture was off at entry"; TraceNowNanos() is never 0
  // on a running system (steady clock epoch is boot).
  uint64_t start_ns_ = 0;
};

inline void RecordInstant(const char* category, const char* name) {
  if (SMB_UNLIKELY(IsCapturing())) {
    const uint64_t now = TraceNowNanos();
    internal::CommitSpan(category, name, now, now);
  }
}

#define SMB_TRACE_CONCAT_INNER(a, b) a##b
#define SMB_TRACE_CONCAT(a, b) SMB_TRACE_CONCAT_INNER(a, b)

// Times the enclosing scope as one complete-duration event.
#define TRACE_SPAN(category, name)                                      \
  ::smb::trace::ScopedSpan SMB_TRACE_CONCAT(smb_trace_span_, __COUNTER__)( \
      category, name)

// A zero-duration marker event.
#define TRACE_INSTANT(category, name) \
  ::smb::trace::RecordInstant(category, name)

}  // namespace smb::trace

#endif  // SMBCARD_TRACE_SPAN_TRACER_H_
