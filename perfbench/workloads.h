// The benchmark's three workloads. Each drives the library through the
// entry points the smbcard CLI uses, from SMBT1 trace bytes to answered
// queries, and checks every answer against a single-engine oracle that
// recorded the same trace without eviction.

#ifndef SMBCARD_PERFBENCH_WORKLOADS_H_
#define SMBCARD_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "perfbench/ledger.h"

namespace perfbench {

// Everything one pass of a workload's pipeline measured.
struct IterationSample {
  double setup_s = 0.0;     // engines, stores, sink, hello-acks
  double pipeline_s = 0.0;  // SMBT1 read until query-ready (CpuNs)
  double pipeline_wall_s = 0.0;  // the same window on the wall clock
  double ingest_s = 0.0;    // recorder-side busy time
  std::vector<double> recover_s;  // one per recovery
  std::vector<double> query_us;  // one per point query
  std::vector<double> topk_ms;   // one per top-100 answer
  std::vector<double> lag_ms;    // one per delta (or final checkpoint)
  uint64_t packets = 0;
  double resident_bytes_per_flow = 0.0;
  double bytes_written_per_packet = 0.0;
  double wire_bytes_per_packet = 0.0;
  double mean_rel_error = 0.0;
  // Operations attempted / failed, and what failed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  // Per-layer counts and sizes read from Stats() and file sizes, plus the
  // per-call timings of this pass (keys as in BENCHMARK.json).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the seeded trace, writes it as SMBT1 under `dir`, and
  // records the oracle. Untimed.
  virtual void Prepare(uint64_t seed, const std::string& dir) = 0;

  // Builds and tears down the workload's serving objects once; returns
  // the set-up time (engines, stores, sink, listen, hello-acks), or
  // nullopt when set-up failed.
  virtual std::optional<double> SetupOnce() = 0;

  // One full pass: set-up, pipeline, query phase, recovery, checks.
  virtual IterationSample Iterate(Ledger* ledger) = 0;

  // Inputs and configuration stamped beside the result.
  virtual void StampInputs(smb::JsonWriter* json) const = 0;

  // How many passes a run needs at least (so the query phase reaches
  // 1000 point queries and the timing medians have enough samples).
  virtual size_t MinIterations() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // SMBCARD_PERFBENCH_WORKLOADS_H_
