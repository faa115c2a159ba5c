// Steady-clock timestamps for span and flight-recorder events and for
// the telemetry latency histograms.

#ifndef SMBCARD_TRACE_TRACE_CLOCK_H_
#define SMBCARD_TRACE_TRACE_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace smb::trace {

// Nanoseconds on the steady clock. Comparable across threads within one
// process; not comparable across processes or restarts.
inline uint64_t TraceNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace smb::trace

#endif  // SMBCARD_TRACE_TRACE_CLOCK_H_
