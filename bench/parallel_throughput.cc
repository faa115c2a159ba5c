// Parallel recording throughput: the sharded concurrent pipeline vs the
// single-threaded Add() baseline over the same stream.
//
// Emits one JSON object on stdout (machine-readable, one result per mode)
// so CI and plotting scripts can track the speedup curve. Every mode times
// recording only; the stream is built outside the clock.
//   * add                 — one thread, one estimator, item-at-a-time
//   * add_batch           — one thread, one estimator, block fast path
//   * sharded_add_batch   — one thread driving all K shards
//   * parallel/P          — P producers + K shard consumer threads through
//                           the shard pipeline's SPSC rings
//
// The ISSUE-level target (>= 4x aggregate throughput at 8 threads) needs
// >= 8 hardware threads; `hardware_concurrency` is part of the output so a
// 1-core box's numbers are not misread as a pipeline regression.

#include <algorithm>
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/json_writer.h"
#include "common/timer.h"
#include "parallel/shard_pipeline.h"
#include "parallel/sharded_estimator.h"
#include "telemetry/exporter.h"
#include "telemetry/metrics_registry.h"

namespace smb::bench {
namespace {

constexpr size_t kTotalMemoryBits = 40000;
constexpr size_t kNumShards = 8;
constexpr uint64_t kStreamSeed = 29;

EstimatorSpec ShardSpec(uint64_t n) {
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kSmb;
  spec.memory_bits = kTotalMemoryBits / kNumShards;
  spec.design_cardinality = n / kNumShards;
  spec.hash_seed = 3;
  return spec;
}

struct ModeResult {
  const char* mode;
  size_t threads;
  double mdps;
  double estimate;
};

// Runs `record` over the n-item bench stream and returns the seconds it
// took. Each slice of the stream is built before the clock starts, so
// every mode times recording only: the whole stream at fast scale, fixed
// 64 MiB slices at full scale.
template <typename RecordFn>
double TimeOverStream(uint64_t n, RecordFn record) {
  constexpr uint64_t kSliceItems = uint64_t{1} << 23;
  std::vector<uint64_t> slice;
  double seconds = 0.0;
  for (uint64_t base = 0; base < n; base += kSliceItems) {
    slice.resize(static_cast<size_t>(std::min(kSliceItems, n - base)));
    for (size_t i = 0; i < slice.size(); ++i) {
      slice[i] = NthItem(kStreamSeed, base + i);
    }
    WallTimer timer;
    record(std::span<const uint64_t>(slice));
    seconds += timer.ElapsedSeconds();
  }
  return seconds;
}

ModeResult RunSingle(uint64_t n, bool batched) {
  EstimatorSpec spec = ShardSpec(n);
  spec.memory_bits = kTotalMemoryBits;
  spec.design_cardinality = n;
  auto estimator = CreateEstimator(spec);
  const double seconds =
      TimeOverStream(n, [&](std::span<const uint64_t> items) {
        if (batched) {
          estimator->AddBatch(items);
        } else {
          for (const uint64_t item : items) estimator->Add(item);
        }
      });
  return {batched ? "add_batch" : "add", 1,
          static_cast<double>(n) / seconds / 1e6, estimator->Estimate()};
}

ModeResult RunShardedSingleThread(uint64_t n) {
  ShardedEstimator::Config config;
  config.shard_spec = ShardSpec(n);
  config.num_shards = kNumShards;
  ShardedEstimator estimator(config);
  const double seconds = TimeOverStream(
      n, [&](std::span<const uint64_t> items) { estimator.AddBatch(items); });
  return {"sharded_add_batch", 1, static_cast<double>(n) / seconds / 1e6,
          estimator.Estimate()};
}

ModeResult RunParallel(uint64_t n, size_t producers) {
  ShardedEstimator::Config config;
  config.shard_spec = ShardSpec(n);
  config.num_shards = kNumShards;
  ShardedEstimator estimator(config);
  ShardPipelineOptions options;
  options.num_producers = producers;
  ShardPipeline<ShardedEstimator> pipeline(&estimator, options);
  const double seconds = TimeOverStream(
      n, [&](std::span<const uint64_t> items) { pipeline.Record(items); });
  return {"parallel", producers + kNumShards,
          static_cast<double>(n) / seconds / 1e6, estimator.Estimate()};
}

void Run(const BenchScale& scale) {
  const uint64_t n = scale.full ? 100000000 : 8000000;
  std::vector<ModeResult> results;
  results.push_back(RunSingle(n, /*batched=*/false));
  results.push_back(RunSingle(n, /*batched=*/true));
  results.push_back(RunShardedSingleThread(n));
  std::vector<size_t> producer_counts = {1, 2, 4, 8};
  for (size_t producers : producer_counts) {
    results.push_back(RunParallel(n, producers));
  }

  const double baseline = results[0].mdps;
  double best_parallel = 0.0;
  JsonWriter json(JsonWriter::kPretty);
  json.BeginObject();
  json.Key("bench");
  json.String("parallel_throughput");
  json.Key("cardinality");
  json.Uint(n);
  json.Key("total_memory_bits");
  json.Uint(kTotalMemoryBits);
  json.Key("num_shards");
  json.Uint(kNumShards);
  json.Key("results");
  json.BeginArray();
  size_t producer_index = 0;
  for (const ModeResult& r : results) {
    json.BeginObject();
    json.Key("mode");
    json.String(r.mode);
    json.Key("threads");
    json.Uint(r.threads);
    if (std::string_view(r.mode) == "parallel") {
      json.Key("producers");
      json.Uint(producer_counts[producer_index++]);
      json.Key("shards");
      json.Uint(kNumShards);
      if (r.mdps > best_parallel) best_parallel = r.mdps;
    }
    json.Key("mdps");
    json.Double(r.mdps, 2);
    json.Key("estimate");
    json.Double(r.estimate, 0);
    json.Key("rel_error");
    json.Double(
        (r.estimate - static_cast<double>(n)) / static_cast<double>(n), 4);
    json.EndObject();
  }
  json.EndArray();
  // hardware_concurrency sits right next to the speedup it contextualizes:
  // on a 1-core box a ~1x speedup is expected, not a pipeline regression.
  json.Key("hardware_concurrency");
  json.Uint(std::thread::hardware_concurrency());
  json.Key("speedup_best_parallel_vs_add");
  json.Double(baseline > 0 ? best_parallel / baseline : 0.0, 2);
  // Telemetry accumulated over every mode above, as Prometheus text.
  json.Key("telemetry");
  json.String(telemetry::ToPrometheusText(
      telemetry::MetricsRegistry::Global().Snapshot()));
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
}

}  // namespace
}  // namespace smb::bench

int main(int argc, char** argv) {
  smb::bench::Run(smb::bench::ParseScale(argc, argv));
  return 0;
}
