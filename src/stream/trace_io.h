// Trace persistence and import.
//
// * Binary format ("SMBT1"): compact save/load of generated traces, so a
//   --full 400k-flow trace can be generated once and replayed by every
//   CAIDA bench.
// * CSV import: `flow,element` per line (decimal or 0x-hex), so real
//   packet logs — e.g. a CAIDA capture reduced with
//   `tshark -T fields -e ip.dst -e ip.src` — can replace the synthetic
//   trace (DESIGN.md #1).

#ifndef SMBCARD_STREAM_TRACE_IO_H_
#define SMBCARD_STREAM_TRACE_IO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "stream/trace_gen.h"

namespace smb {

// Writes `trace` to `path`. Returns false on I/O failure.
bool WriteTraceFile(const Trace& trace, const std::string& path);

// Reads a trace written by WriteTraceFile. nullopt on malformed input or
// I/O failure.
std::optional<Trace> ReadTraceFile(const std::string& path);

// Parses one CSV field as a u64: decimal, or hex after a 0x prefix, with
// surrounding spaces, tabs and CRs trimmed. An empty field, a sign,
// trailing junk or an out-of-range value is rejected. Every reader of
// `flow,element` lines (ParseCsvTrace, smbcard --per-flow) uses it.
bool ParseCsvField(std::string_view field, uint64_t* out);

// Parses `flow,element` CSV text into a Trace. Lines starting with '#'
// and blank lines are skipped; whitespace around fields is tolerated.
// Values may be decimal or 0x-prefixed hex. True per-flow cardinalities
// are computed exactly from the packets. Returns nullopt if any data line
// is malformed (the error line is reported via `error_line` when given).
std::optional<Trace> ParseCsvTrace(const std::string& csv_text,
                                   size_t* error_line = nullptr);

// Convenience: ParseCsvTrace over a file's contents.
std::optional<Trace> ReadCsvTraceFile(const std::string& path,
                                      size_t* error_line = nullptr);

}  // namespace smb

#endif  // SMBCARD_STREAM_TRACE_IO_H_
