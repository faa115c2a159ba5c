// Chrome trace-event JSON (the "JSON Array Format" with the object
// wrapper) — the interchange format the span tracer exports and that
// chrome://tracing / Perfetto load directly. The schema validator backs
// tools/trace_validate and the trace-smoke test.
//
// Emitted shape:
//   {
//     "displayTimeUnit": "ns",
//     "otherData": {"total_recorded": N, "dropped_on_wrap": D},
//     "traceEvents": [
//       {"name": "...", "cat": "...", "ph": "X",
//        "pid": 1, "tid": T, "ts": <µs>, "dur": <µs>},
//       ...
//     ]
//   }
// Only complete-duration events ("ph":"X") are used; instants are spans
// with dur 0. Timestamps are microseconds (the format's unit) carried
// with three fractional digits to preserve nanosecond resolution.

#ifndef SMBCARD_TRACE_CHROME_TRACE_H_
#define SMBCARD_TRACE_CHROME_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace smb::trace {

struct ChromeTraceEvent {
  std::string name;
  std::string category;
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
};

// Renders a complete trace document. `total_recorded` / `dropped_on_wrap`
// land in otherData so a viewer (and the validator) can tell a short
// trace from a wrapped one.
std::string FormatChromeTrace(const std::vector<ChromeTraceEvent>& events,
                              uint64_t total_recorded,
                              uint64_t dropped_on_wrap);

// Schema check for documents this exporter claims to produce: root
// object, `traceEvents` array, every event an object with non-empty
// string `name`, string `cat`, `ph` == "X", unsigned `pid`/`tid`, and
// non-negative numeric `ts`/`dur`. On failure returns false and, when
// `error` is non-null, a one-line reason naming the offending event
// index. On success stores the event count through `num_events` (may be
// null).
bool ValidateChromeTrace(std::string_view text, std::string* error,
                         size_t* num_events);

}  // namespace smb::trace

#endif  // SMBCARD_TRACE_CHROME_TRACE_H_
