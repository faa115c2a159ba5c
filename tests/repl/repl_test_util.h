// Shared helpers for the replication suites.

#ifndef SMBCARD_TESTS_REPL_REPL_TEST_UTIL_H_
#define SMBCARD_TESTS_REPL_REPL_TEST_UTIL_H_

#include <cstdint>

#include "telemetry/metrics_registry.h"

namespace smb::repl {

// ChildReplicator's always-on delivery identity (deltas_cut ==
// delivered + spooled + shed, re-checked after every cut and every ack):
// failures this process has counted so far. Every suite must leave it
// at 0.
inline uint64_t ReplInvariantViolations() {
  return telemetry::MetricsRegistry::Global()
      .GetCounter("repl_invariant_violations_total")
      ->Value();
}

}  // namespace smb::repl

#endif  // SMBCARD_TESTS_REPL_REPL_TEST_UTIL_H_
