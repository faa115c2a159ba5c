// Snapshot exporter: the Prometheus text exposition format, the one
// serialization of a MetricsSnapshot (smbcard --metrics-out, the bench
// "telemetry" key).
//
// The output is stable-keyed — samples appear in the snapshot's canonical
// (name, labels) order and every sample's lines are emitted in a fixed
// order — so exporting the same state twice yields byte-identical text,
// and snapshot_parser.h round-trips it back into an equal MetricsSnapshot.

#ifndef SMBCARD_TELEMETRY_EXPORTER_H_
#define SMBCARD_TELEMETRY_EXPORTER_H_

#include <string>

#include "telemetry/snapshot.h"

namespace smb::telemetry {

// Prometheus text format: one `# TYPE` comment per metric family, then its
// sample lines. Histograms expand into cumulative `_bucket{le="..."}`
// series (bounds are the exact 2^i - 1 bucket upper bounds) plus `_sum`
// and `_count`.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

}  // namespace smb::telemetry

#endif  // SMBCARD_TELEMETRY_EXPORTER_H_
