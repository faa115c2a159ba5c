// Per-flow recording throughput: the arena engine (flat flow table +
// SoA metadata + bitmap slab, DESIGN.md §12) against the legacy
// unordered_map-of-estimators engine, over one synthetic CAIDA-shaped
// trace. Emits BENCH_per_flow.json (override with --json=PATH):
//
//   * legacy_record      — unordered_map engine, packet-at-a-time
//   * arena_record       — arena engine, packet-at-a-time (scalar path)
//   * arena_batch        — arena engine, keyed SIMD batch path (position
//                          lists on, the default tuning)
//   * arena_fixed_stride — arena batch path with position lists off:
//                          every flow pays a full-stride slot from its
//                          first packet (the pre-eviction engine)
//   * arena_evict        — arena batch path under a memory budget with
//                          CLOCK eviction into the cold tier; evicted
//                          flows freeze and thaw, so every estimate must
//                          still equal the unevicted engine's
//   * parallel/P         — P producers + K flow-shard consumers through
//                          the SPSC packet rings
//
// Every mode records the identical trace, and estimates are
// cross-checked for bit-identity before any number is reported — a
// throughput win from a semantics drift must fail here, not land.
//
// Tiers: the fast scale (20k flows) is the CI smoke run; --full is the
// ISSUE gate's 120k-flow configuration; --flows=N above 500k switches
// to the huge tier (e.g. --flows=10000000 for the 10M-flow Zipf(1.0)
// memory-governance run), which drops the legacy and parallel modes —
// the map engine's footprint and packet-at-a-time pace are pointless at
// that scale — and audits bit-identity between the fixed-stride and
// position-list engines instead (both budget-free, so they must agree
// exactly). --zipf=S and --memory-budget=BYTES shape the trace and the
// eviction run at any tier; --assert-bytes-drop=X gates the list engine's
// resident-bytes saving over fixed stride. --assert-walk-ratio=X gates
// the estimate walk (ForEachFlow, under every top-K and threshold
// reader) over the evicted engine's live and frozen flows against the
// walk over the unevicted engine: walk_ratio, medians of alternating
// walks, so host speed cancels.
//
// The ISSUE acceptance gate (arena >= 2x legacy at >= 100k flows) is the
// --full configuration; CI smoke runs the fast scale with
// --assert-speedup=1.0 as a no-regression floor. hardware_concurrency is
// in the output so single-core boxes' parallel numbers read correctly.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/json_writer.h"
#include "common/timer.h"
#include "flow/arena_smb_engine.h"
#include "flow/sharded_flow_monitor.h"
#include "parallel/shard_pipeline.h"
#include "sketch/per_flow_monitor.h"
#include "stream/trace_gen.h"
#include "trace/span_tracer.h"

namespace smb::bench {
namespace {

constexpr uint64_t kHashSeed = 17;
constexpr size_t kMemoryBits = 2000;
// --flows above this run the arena-only huge tier.
constexpr size_t kHugeTierFlows = 500000;

EstimatorSpec MonitorSpec(uint64_t design_cardinality) {
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kSmb;
  spec.memory_bits = kMemoryBits;
  spec.design_cardinality = design_cardinality;
  spec.hash_seed = kHashSeed;
  return spec;
}

struct ModeResult {
  std::string mode;
  size_t threads = 1;
  double mpps = 0.0;        // packets per second / 1e6
  double bytes_per_flow = 0.0;
};

ModeResult RunMonitor(const Trace& trace, const EstimatorSpec& spec,
                      PerFlowMonitor::Engine engine, bool batched,
                      PerFlowMonitor* out) {
  PerFlowMonitor monitor(spec, engine);
  WallTimer timer;
  if (batched) {
    monitor.RecordBatch(trace.packets);
  } else {
    for (const Packet& p : trace.packets) monitor.Record(p.flow, p.element);
  }
  const double seconds = timer.ElapsedSeconds();
  ModeResult result;
  result.mode = engine == PerFlowMonitor::Engine::kLegacyMap
                    ? "legacy_record"
                    : (batched ? "arena_batch" : "arena_record");
  result.mpps = static_cast<double>(trace.packets.size()) / seconds / 1e6;
  result.bytes_per_flow = static_cast<double>(monitor.ResidentBytes()) /
                          static_cast<double>(monitor.NumFlows());
  if (out != nullptr) *out = std::move(monitor);
  return result;
}

// Batch-records the trace into a standalone arena engine under `tuning`.
ModeResult RunArena(const Trace& trace, const EstimatorSpec& spec,
                    const ArenaTuning& tuning, const std::string& mode,
                    ArenaSmbEngine* engine) {
  auto config = ArenaSmbEngine::ConfigForSpec(spec);
  config->tuning = tuning;
  *engine = ArenaSmbEngine(*config);
  WallTimer timer;
  engine->RecordBatch(trace.packets.data(), trace.packets.size());
  const double seconds = timer.ElapsedSeconds();
  ModeResult result;
  result.mode = mode;
  result.mpps = static_cast<double>(trace.packets.size()) / seconds / 1e6;
  result.bytes_per_flow = static_cast<double>(engine->ResidentBytes()) /
                          static_cast<double>(engine->NumFlows());
  return result;
}

ModeResult RunParallel(const Trace& trace, const EstimatorSpec& spec,
                       size_t producers, size_t shards) {
  const auto config = ArenaSmbEngine::ConfigForSpec(spec);
  ShardedFlowMonitor monitor(*config, shards);
  ShardPipelineOptions options;
  options.num_producers = producers;
  ShardPipeline<ShardedFlowMonitor> pipeline(&monitor, options);
  WallTimer timer;
  pipeline.Record(trace.packets);
  const double seconds = timer.ElapsedSeconds();
  ModeResult result;
  result.mode = "parallel";
  result.threads = producers + shards;
  result.mpps = static_cast<double>(trace.packets.size()) / seconds / 1e6;
  result.bytes_per_flow = static_cast<double>(monitor.ResidentBytes()) /
                          static_cast<double>(monitor.NumFlows());
  return result;
}

// The median ForEachFlow walk over `evicted` over the median walk over
// `unevicted`, the walks alternating so both see the same host speed.
double WalkRatio(const ArenaSmbEngine& evicted,
                 const ArenaSmbEngine& unevicted) {
  constexpr size_t kWalks = 7;
  const auto walk_seconds = [](const ArenaSmbEngine& engine) {
    double sum = 0.0;
    WallTimer timer;
    engine.ForEachFlow([&](uint64_t, double estimate) { sum += estimate; });
    const double seconds = timer.ElapsedSeconds();
    DoNotOptimize(sum);
    return seconds;
  };
  std::vector<double> evicted_s;
  std::vector<double> unevicted_s;
  for (size_t i = 0; i < kWalks; ++i) {
    evicted_s.push_back(walk_seconds(evicted));
    unevicted_s.push_back(walk_seconds(unevicted));
  }
  std::sort(evicted_s.begin(), evicted_s.end());
  std::sort(unevicted_s.begin(), unevicted_s.end());
  return evicted_s[kWalks / 2] / unevicted_s[kWalks / 2];
}

// Mean relative error of `estimate(flow)` against the trace's ground
// truth over every flow (min_cardinality >= 1, so truth never divides
// by zero).
template <typename EstimateFn>
double MeanRelativeError(const Trace& trace, EstimateFn estimate) {
  double total = 0.0;
  for (uint64_t flow = 0; flow < trace.num_flows(); ++flow) {
    const double truth =
        static_cast<double>(trace.true_cardinality[flow]);
    total += std::fabs(estimate(flow) - truth) / truth;
  }
  return total / static_cast<double>(trace.num_flows());
}

int Run(const BenchScale& scale) {
  TraceConfig config;
  // Full scale satisfies the ISSUE gate's >= 100k flows; fast scale keeps
  // the CI smoke run in seconds on one core. The huge tier shifts the
  // spread distribution toward the small flows that motivate position lists
  // (and keeps the packet count from exploding with the flow count).
  config.num_flows = scale.flows != 0 ? scale.flows
                     : scale.full     ? 120000
                                      : 20000;
  const bool huge = config.num_flows > kHugeTierFlows;
  config.max_cardinality = huge        ? 32
                           : scale.full ? 10000
                                        : 4000;
  config.dup_factor = huge ? 1.0 : 1.5;
  config.seed = 23;
  if (scale.zipf > 0.0) {
    config.cardinality_exponent = scale.zipf;
  } else if (huge) {
    config.cardinality_exponent = 1.0;
  }
  const Trace trace = GenerateTrace(config);
  // The huge tier keeps the paper-shaped sketch geometry (design 2000)
  // rather than shrinking the design with the per-flow spread cap: the
  // point is 10M full-size sketches under a byte budget.
  const EstimatorSpec spec =
      MonitorSpec(huge ? 2000 : config.max_cardinality);

  // Span capture across every measured mode (the resulting trace shows
  // the real pipeline under bench load).
  if (!scale.trace_out.empty()) trace::StartCapture();

  std::vector<ModeResult> results;
  PerFlowMonitor legacy(spec, PerFlowMonitor::Engine::kLegacyMap);
  if (!huge) {
    results.push_back(RunMonitor(trace, spec,
                                 PerFlowMonitor::Engine::kLegacyMap,
                                 /*batched=*/false, &legacy));
    results.push_back(RunMonitor(trace, spec, PerFlowMonitor::Engine::kArena,
                                 /*batched=*/false, nullptr));
  }

  ArenaTuning nursery_tuning;  // defaults: position lists on, no budget
  ArenaTuning fixed_tuning;
  fixed_tuning.nursery_capacity = 0;
  ArenaSmbEngine nursery_engine(*ArenaSmbEngine::ConfigForSpec(spec));
  ArenaSmbEngine fixed_engine(*ArenaSmbEngine::ConfigForSpec(spec));
  const ModeResult nursery_result = RunArena(
      trace, spec, nursery_tuning, "arena_batch", &nursery_engine);
  results.push_back(nursery_result);
  const ModeResult fixed_result = RunArena(
      trace, spec, fixed_tuning, "arena_fixed_stride", &fixed_engine);
  results.push_back(fixed_result);

  // Bit-identity audit over every flow before reporting any throughput.
  // Normal tiers hold the arena to the legacy engine; the huge tier
  // (no legacy run) holds the list engine to the fixed-stride one —
  // residency tiering must never change an estimate.
  size_t mismatches = 0;
  for (uint64_t flow = 0; flow < trace.num_flows(); ++flow) {
    const double reference =
        huge ? fixed_engine.Query(flow) : legacy.Query(flow);
    if (reference != nursery_engine.Query(flow)) ++mismatches;
  }
  if (!huge) {
    for (uint64_t flow = 0; flow < trace.num_flows(); ++flow) {
      if (legacy.Query(flow) != fixed_engine.Query(flow)) ++mismatches;
    }
  }

  // Eviction run: a budget at half the unevicted footprint (unless
  // --memory-budget picked one) guarantees the CLOCK path is exercised.
  const size_t budget = scale.memory_budget_bytes != 0
                            ? scale.memory_budget_bytes
                            : nursery_engine.LiveBytes() / 2;
  ArenaTuning evict_tuning;
  evict_tuning.memory_budget_bytes = budget;
  evict_tuning.eviction = ArenaEviction::kClock;
  evict_tuning.cold_tier = true;
  ArenaSmbEngine evict_engine(*ArenaSmbEngine::ConfigForSpec(spec));
  {
    auto arena_config = ArenaSmbEngine::ConfigForSpec(spec);
    arena_config->tuning = evict_tuning;
    evict_engine = ArenaSmbEngine(*arena_config);
    WallTimer timer;
    evict_engine.RecordBatch(trace.packets.data(), trace.packets.size());
    ModeResult result;
    result.mode = "arena_evict";
    result.mpps = static_cast<double>(trace.packets.size()) /
                  timer.ElapsedSeconds() / 1e6;
    result.bytes_per_flow =
        static_cast<double>(evict_engine.ResidentBytes()) /
        static_cast<double>(evict_engine.NumFlows());
    results.push_back(result);
  }
  const ArenaSmbEngine::ArenaStats evict_stats = evict_engine.Stats();
  const bool within_budget = evict_engine.LiveBytes() <= budget;

  // Eviction into the cold tier loses nothing: a frozen flow answers
  // from its frozen state and a returning one thaws it exactly, so every
  // flow must report the unevicted engine's estimate.
  size_t evict_mismatches = 0;
  for (uint64_t flow = 0; flow < trace.num_flows(); ++flow) {
    if (evict_engine.Query(flow) != nursery_engine.Query(flow)) {
      ++evict_mismatches;
    }
  }
  const double walk_ratio = WalkRatio(evict_engine, nursery_engine);
  const double rel_error = MeanRelativeError(
      trace, [&](uint64_t flow) { return nursery_engine.Query(flow); });

  std::vector<size_t> producer_counts;
  if (!huge) {
    producer_counts = {1, 2, 4};
    for (size_t producers : producer_counts) {
      results.push_back(RunParallel(trace, spec, producers, /*shards=*/4));
    }
  }

  if (!scale.trace_out.empty()) {
    // Every traced thread has been joined (RunParallel joins its workers),
    // so the export sees quiescent rings.
    trace::StopCapture();
    std::FILE* f = std::fopen(scale.trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   scale.trace_out.c_str());
      return 1;
    }
    const std::string blob = trace::ExportChromeTrace();
    const bool wrote =
        std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
    std::fclose(f);
    if (!wrote) {
      std::fprintf(stderr, "error: short write to %s\n",
                   scale.trace_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", scale.trace_out.c_str());
  }

  // Headline ratio: arena_batch over legacy where legacy ran; on the
  // huge tier, position lists over fixed-stride (same batch path, lists
  // on vs off).
  const double baseline_mpps = huge ? fixed_result.mpps : results[0].mpps;
  const double speedup =
      baseline_mpps > 0 ? nursery_result.mpps / baseline_mpps : 0.0;
  const double bytes_per_flow_drop =
      fixed_result.bytes_per_flow > 0
          ? 1.0 - nursery_result.bytes_per_flow / fixed_result.bytes_per_flow
          : 0.0;

  JsonWriter json(JsonWriter::kPretty);
  json.BeginObject();
  json.Key("bench");
  json.String("per_flow_throughput");
  json.Key("tier");
  json.String(huge ? "huge" : (scale.full ? "full" : "fast"));
  json.Key("num_flows");
  json.Uint(trace.num_flows());
  json.Key("packets");
  json.Uint(trace.packets.size());
  json.Key("zipf_exponent");
  json.Double(config.cardinality_exponent, 2);
  json.Key("memory_bits_per_flow");
  json.Uint(kMemoryBits);
  json.Key("estimate_mismatches");
  json.Uint(mismatches);
  json.Key("results");
  json.BeginArray();
  size_t producer_index = 0;
  for (const ModeResult& r : results) {
    json.BeginObject();
    json.Key("mode");
    json.String(r.mode);
    json.Key("threads");
    json.Uint(r.threads);
    if (r.mode == "parallel") {
      json.Key("producers");
      json.Uint(producer_counts[producer_index++]);
      json.Key("shards");
      json.Uint(4);
    }
    json.Key("mpps");
    json.Double(r.mpps, 3);
    json.Key("bytes_per_flow");
    json.Double(r.bytes_per_flow, 1);
    json.EndObject();
  }
  json.EndArray();
  json.Key(huge ? "speedup_nursery_vs_fixed_stride"
                : "speedup_arena_batch_vs_legacy");
  json.Double(speedup, 2);
  json.Key("bytes_per_flow_fixed_stride");
  json.Double(fixed_result.bytes_per_flow, 1);
  json.Key("bytes_per_flow_nursery");
  json.Double(nursery_result.bytes_per_flow, 1);
  json.Key("bytes_per_flow_drop");
  json.Double(bytes_per_flow_drop, 3);
  json.Key("eviction");
  json.BeginObject();
  json.Key("budget_bytes");
  json.Uint(budget);
  json.Key("live_bytes");
  json.Uint(evict_engine.LiveBytes());
  json.Key("within_budget");
  json.Bool(within_budget);
  json.Key("live_flows");
  json.Uint(evict_stats.live_flows);
  json.Key("recorded_flows");
  json.Uint(evict_stats.recorded_flows);
  json.Key("evicted_flows");
  json.Uint(evict_stats.evicted_flows);
  json.Key("cold_flows");
  json.Uint(evict_stats.cold_flows);
  json.Key("thawed_flows");
  json.Uint(evict_stats.thawed_flows);
  json.Key("estimate_mismatches");
  json.Uint(evict_mismatches);
  json.Key("walk_ratio");
  json.Double(walk_ratio, 3);
  json.Key("mean_rel_error");
  json.Double(rel_error, 4);
  json.EndObject();
  json.Key("environment");
  WriteEnvironmentJson(&json);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());

  const std::string path =
      scale.json_path.empty() ? "BENCH_per_flow.json" : scale.json_path;
  if (!WriteBenchJson(path, json)) return 1;

  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu flows with mismatched estimates across "
                 "engines\n",
                 mismatches);
    return 1;
  }
  if (evict_mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu flows estimate differently after eviction into "
                 "the cold tier\n",
                 evict_mismatches);
    return 1;
  }
  if (!within_budget) {
    std::fprintf(stderr,
                 "FAIL: arena_evict finished at %zu live bytes over the "
                 "%zu byte budget\n",
                 evict_engine.LiveBytes(), budget);
    return 1;
  }
  if (scale.assert_speedup > 0 && speedup < scale.assert_speedup) {
    std::fprintf(stderr,
                 "FAIL: %s speedup %.2fx below the --assert-speedup "
                 "floor %.2fx (baseline %.3f Mpps, arena_batch %.3f "
                 "Mpps)\n",
                 huge ? "lists-vs-fixed" : "arena-vs-legacy", speedup,
                 scale.assert_speedup, baseline_mpps, nursery_result.mpps);
    return 1;
  }
  if (scale.assert_bytes_drop > 0 &&
      bytes_per_flow_drop < scale.assert_bytes_drop) {
    std::fprintf(stderr,
                 "FAIL: bytes_per_flow_drop %.3f below the "
                 "--assert-bytes-drop floor %.3f (fixed stride %.1f B/flow, "
                 "position lists %.1f B/flow)\n",
                 bytes_per_flow_drop, scale.assert_bytes_drop,
                 fixed_result.bytes_per_flow, nursery_result.bytes_per_flow);
    return 1;
  }
  if (scale.assert_walk_ratio > 0 && walk_ratio > scale.assert_walk_ratio) {
    std::fprintf(stderr,
                 "FAIL: walk_ratio %.3f above the --assert-walk-ratio "
                 "ceiling %.3f (%zu live + %zu frozen flows against %zu "
                 "live)\n",
                 walk_ratio, scale.assert_walk_ratio, evict_stats.live_flows,
                 evict_stats.cold_flows, nursery_engine.NumFlows());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace smb::bench

int main(int argc, char** argv) {
  return smb::bench::Run(smb::bench::ParseScale(argc, argv));
}
