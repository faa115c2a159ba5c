// The parser that inverts the exporter: captured Prometheus text back
// into a MetricsSnapshot. Used by the exporter round-trip tests and by
// tools/smbtop to render captures.
//
// Scope: complete for everything ToPrometheusText emits (including
// histogram bucket reassembly from cumulative `le` series); not a
// general-purpose Prometheus implementation. Any malformed input yields
// nullopt rather than a partial snapshot; empty or all-whitespace input
// is a valid, empty snapshot.

#ifndef SMBCARD_TELEMETRY_SNAPSHOT_PARSER_H_
#define SMBCARD_TELEMETRY_SNAPSHOT_PARSER_H_

#include <optional>
#include <string_view>

#include "telemetry/snapshot.h"

namespace smb::telemetry {

std::optional<MetricsSnapshot> ParsePrometheusText(std::string_view text);

}  // namespace smb::telemetry

#endif  // SMBCARD_TELEMETRY_SNAPSHOT_PARSER_H_
