// Shared plumbing for the paper-reproduction bench binaries: run-scale
// configuration, stream feeding, and the error-sweep driver behind
// Figures 6-8.
//
// Every bench binary runs at a fast default scale (seconds on one core)
// and accepts `--full` (or env SMB_BENCH_FULL=1) to run at the paper's
// scale; SMB_BENCH_RUNS overrides the number of streams averaged per
// point (paper: 100).

#ifndef SMBCARD_BENCH_BENCH_UTIL_H_
#define SMBCARD_BENCH_BENCH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/stats.h"
#include "common/timer.h"
#include "estimators/estimator_factory.h"

namespace smb::bench {

struct BenchScale {
  bool full = false;   // --full / SMB_BENCH_FULL=1
  size_t runs = 10;    // streams averaged per accuracy point (paper: 100)
  // --json=PATH overrides the bench's default BENCH_*.json output file.
  std::string json_path;
  // --assert-batch-speedup=X makes throughput benches exit nonzero when
  // the dispatched AddBatch path records below X times the scalar Add
  // baseline (the CI smoke gate; 0 disables the assertion).
  double assert_batch_speedup = 0.0;
  // --assert-speedup=X is the same gate for benches whose headline
  // comparison is not AddBatch-vs-Add (e.g. per_flow_throughput's
  // arena-vs-legacy-engine ratio; 0 disables the assertion).
  double assert_speedup = 0.0;
  // --assert-bytes-drop=X makes per_flow_throughput exit nonzero when its
  // bytes_per_flow_drop (1 - resident bytes per flow of the position-list
  // engine over the fixed-stride engine's) is below X (0 disables).
  double assert_bytes_drop = 0.0;
  // --assert-walk-ratio=X makes per_flow_throughput exit nonzero when its
  // walk_ratio (the median ForEachFlow walk over the evicted, cold-tier
  // engine over the median walk over the unevicted one) is above X (0
  // disables).
  double assert_walk_ratio = 0.0;
  // codec_throughput gates (0 disables each): minimum SMBZ1 compression
  // ratio on the dense and sparse fixtures, minimum decode throughput in
  // MB/s of rehydrated FLW1 bytes, minimum sparse-fixture encode
  // throughput in MB/s of FLW1 input, and minimum ratio of that encode
  // rate to the rate of a CRC-32C pass over the same bytes.
  double assert_dense_ratio = 0.0;
  double assert_sparse_ratio = 0.0;
  double assert_decode_mbps = 0.0;
  double assert_encode_mbps = 0.0;
  double assert_encode_crc_ratio = 0.0;
  // --assert-direct-encode-ratio=X: codec_throughput exits nonzero when
  // CompressFlw1Image(Serialize()) over SerializeSmbz1(), timed on the
  // sparse fixture's engine and on a long-list engine, is below X on
  // either (0 disables).
  double assert_direct_encode_ratio = 0.0;
  // --assert-direct-decode-ratio=X: the same for restoring,
  // Deserialize(DecompressToFlw1Image()) over DeserializeSmbz1().
  double assert_direct_decode_ratio = 0.0;
  // --assert-crc-speedup=X: codec_throughput exits nonzero when the
  // dispatched Crc32c runs less than X times the table kernel's rate
  // (0 disables).
  double assert_crc_speedup = 0.0;
  // --trace-out=PATH captures the span tracer across the measured runs
  // and writes Chrome trace-event JSON to PATH.
  std::string trace_out;
  // Flow-bench trace shape overrides (per_flow_throughput): --flows=N
  // picks the distinct-flow count (0 keeps the scale default; counts
  // above 500k switch the bench to its huge tier — arena engines only),
  // --zipf=S the Zipf exponent of the per-flow cardinality distribution.
  size_t flows = 0;
  double zipf = 0.0;
  // --memory-budget=BYTES (K/M/G binary suffixes) bounds the eviction
  // mode's arena; 0 derives a budget at half the unevicted footprint so
  // eviction is always exercised.
  size_t memory_budget_bytes = 0;
};

// Parses --full and environment overrides.
BenchScale ParseScale(int argc, char** argv);

// The i-th distinct item of a stream family — bijective, so a loop over
// i in [0, n) feeds exactly n distinct items with no materialized buffer
// (needed for the 10^8-cardinality throughput points).
uint64_t NthItem(uint64_t seed, uint64_t i);

// Feeds n distinct items and returns the recording throughput.
Throughput MeasureRecording(CardinalityEstimator* estimator, uint64_t n,
                            uint64_t seed);

// Same stream as MeasureRecording, but fed through AddBatch in chunks
// that are whole multiples of the SIMD kernel block, so the vectorized
// path sees no scalar tails except the stream's last.
Throughput MeasureRecordingBatched(CardinalityEstimator* estimator,
                                   uint64_t n, uint64_t seed);

// Emits the fields that contextualize any perf number from this machine
// as one JSON object: hardware_concurrency, the batch kernel the CPU
// dispatcher resolved to, and the build's provenance. Call it after a
// Key("environment") so every BENCH_*.json carries the same blob.
void WriteEnvironmentJson(JsonWriter* json);

// Writes a finished JSON blob to `path` and prints where it went.
// Returns false (with a diagnostic on stderr) if the file cannot be
// written; benches treat that as a fatal CI error.
bool WriteBenchJson(const std::string& path, const JsonWriter& json);

// Queries the estimator `queries` times and returns the query throughput.
Throughput MeasureQueries(const CardinalityEstimator* estimator,
                          uint64_t queries);

// One accuracy point: records `runs` independent streams of cardinality n
// and aggregates the four Section V-A error metrics.
ErrorStats MeasureAccuracy(const EstimatorSpec& base_spec, uint64_t n,
                           size_t runs);

// The cardinality grid of Figures 6-8 (up to 1M; trimmed at fast scale).
std::vector<uint64_t> FigureCardinalityGrid(bool full);

// Human-readable count, e.g. "10^6" for powers of ten else plain digits.
std::string CountLabel(uint64_t n);

}  // namespace smb::bench

#endif  // SMBCARD_BENCH_BENCH_UTIL_H_
