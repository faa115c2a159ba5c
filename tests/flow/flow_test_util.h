// Shared helpers for the flow-engine suites.

#ifndef SMBCARD_TESTS_FLOW_FLOW_TEST_UTIL_H_
#define SMBCARD_TESTS_FLOW_FLOW_TEST_UTIL_H_

#include <cstdint>

#include "telemetry/metrics_registry.h"

namespace smb {

// The engine's always-on accounting check (recorded == live + evicted,
// per-class slots == live rows, LiveBytes() re-derived): failures this
// process has counted so far. Every engine in every suite must leave it
// at 0.
inline uint64_t FlowInvariantViolations() {
  return telemetry::MetricsRegistry::Global()
      .GetCounter("flow_invariant_violations_total")
      ->Value();
}

}  // namespace smb

#endif  // SMBCARD_TESTS_FLOW_FLOW_TEST_UTIL_H_
