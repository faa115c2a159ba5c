#include "perfbench/workloads.h"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <utility>

#include "codec/smbz1.h"
#include "common/random.h"
#include "common/timer.h"
#include "estimators/estimator_factory.h"
#include "flow/arena_smb_engine.h"
#include "hash/murmur3.h"
#include "hash/xxhash64.h"
#include "io/checkpoint_store.h"
#include "repl/child_replicator.h"
#include "repl/replication_sink.h"
#include "sketch/per_flow_monitor.h"
#include "stream/trace_io.h"
#include "stream/trace_stats.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// The CLI's per-flow batch size and default geometry
// (--memory 10000 --design 1000000 --seed 0).
constexpr size_t kBlock = 4096;
constexpr size_t kMemoryBits = 10000;
constexpr uint64_t kDesignCardinality = 1000000;
constexpr size_t kTopK = 100;
// Share of point queries that ask for a flow the trace never carried. An
// assumption, not a measurement (see perfbench/README.md): it keeps the
// table's miss path in the mix without letting misses set the p50.
constexpr double kAbsentShare = 0.1;

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

smb::EstimatorSpec CliSpec() {
  smb::EstimatorSpec spec;
  spec.kind = smb::EstimatorKind::kSmb;
  spec.memory_bits = kMemoryBits;
  spec.design_cardinality = kDesignCardinality;
  spec.hash_seed = 0;
  return spec;
}

smb::ArenaSmbEngine::Config CliEngineConfig() {
  return *smb::ArenaSmbEngine::ConfigForSpec(CliSpec());
}

// Trace shape: a bulk of flows whose spreads follow the generator's
// bounded power law on [1, max_cardinality], plus a few heavy flows on
// [tail_min, tail_max] from the same law, so every accuracy range of
// stream/trace_stats holds flows without the tail's packets swamping
// the run. Spreads are the law's quantiles (stratified), so every seed
// draws the same size profile and the seed varies which flow gets which
// spread, the element ids, the repetitions and the arrival order.
struct Shape {
  size_t flows = 0;
  uint64_t max_cardinality = 0;
  size_t tail_flows = 0;
  uint64_t tail_min = 0;
  uint64_t tail_max = 0;
  double exponent = 1.5;
  double dup_factor = 2.0;
};

// repl_fanin's children each own one flow-hash slice.
constexpr size_t kSlices = 3;
size_t FlowSlice(uint64_t flow) {
  return static_cast<size_t>(smb::Murmur3Fmix64(flow ^ 0xF1A5ull) % kSlices);
}

// Inverse CDF of p(n) ~ n^-a on [lo, hi] at quantile q (a != 1).
uint64_t PowerLawQuantile(double q, uint64_t lo, uint64_t hi, double a) {
  const double e = 1.0 - a;
  const double l = std::pow(static_cast<double>(lo), e);
  const double h = std::pow(static_cast<double>(hi), e);
  const double x = std::pow(l + q * (h - l), 1.0 / e);
  return std::clamp<uint64_t>(static_cast<uint64_t>(x), lo, hi);
}

smb::Trace MakeTrace(const Shape& shape, uint64_t seed) {
  smb::Xoshiro256 rng(smb::Murmur3Fmix64(seed ^ 0x7ACEull));
  std::vector<uint64_t> sizes;
  sizes.reserve(shape.flows + shape.tail_flows);
  for (size_t i = 0; i < shape.flows; ++i) {
    sizes.push_back(PowerLawQuantile(
        (static_cast<double>(i) + 0.5) / static_cast<double>(shape.flows), 1,
        shape.max_cardinality, shape.exponent));
  }
  for (size_t i = 0; i < shape.tail_flows; ++i) {
    sizes.push_back(PowerLawQuantile(
        (static_cast<double>(i) + 0.5) / static_cast<double>(shape.tail_flows),
        shape.tail_min, shape.tail_max, shape.exponent));
  }
  // Deal the spreads, largest first, round-robin over the flow-hash
  // slices, and shuffle which flow of a slice gets which spread. A fan-in
  // that gives each child one slice then hands every child the same mix
  // of heavy and light flows whatever the seed.
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  std::vector<std::vector<uint64_t>> ids(kSlices);
  for (uint64_t f = 0; f < sizes.size(); ++f) ids[FlowSlice(f)].push_back(f);
  for (std::vector<uint64_t>& group : ids) {
    for (size_t i = group.size(); i > 1; --i) {
      std::swap(group[i - 1], group[static_cast<size_t>(rng.NextBounded(i))]);
    }
  }
  smb::Trace trace;
  trace.true_cardinality.assign(sizes.size(), 0);
  std::vector<size_t> dealt(kSlices, 0);
  size_t slice = 0;
  for (uint64_t size : sizes) {
    while (dealt[slice] == ids[slice].size()) slice = (slice + 1) % kSlices;
    trace.true_cardinality[ids[slice][dealt[slice]++]] = size;
    slice = (slice + 1) % kSlices;
  }
  uint64_t distinct = 0;
  for (uint64_t n : sizes) distinct += n;
  trace.packets.reserve(static_cast<size_t>(
      static_cast<double>(distinct) * shape.dup_factor * 1.05));
  const double p_repeat = 1.0 / shape.dup_factor;
  const std::vector<uint64_t>& spread = trace.true_cardinality;
  for (size_t f = 0; f < spread.size(); ++f) {
    for (uint64_t i = 0; i < spread[f]; ++i) {
      const uint64_t element = smb::Murmur3Fmix64(
          (static_cast<uint64_t>(f) << 32) ^ i ^ (seed * 0x9E3779B97F4A7C15ULL));
      const uint64_t copies = 1 + rng.NextGeometric(p_repeat);
      for (uint64_t c = 0; c < copies; ++c) {
        trace.packets.push_back(smb::Packet{static_cast<uint64_t>(f), element});
      }
    }
  }
  for (size_t i = trace.packets.size(); i > 1; --i) {
    std::swap(trace.packets[i - 1],
              trace.packets[static_cast<size_t>(rng.NextBounded(i))]);
  }
  return trace;
}

uint64_t StateHash(uint32_t round, uint32_t ones,
                   std::span<const uint64_t> words) {
  return smb::XxHash64(words.data(), words.size() * sizeof(uint64_t),
                       (static_cast<uint64_t>(round) << 32) | ones);
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Top-100 answer: every flow's estimate, partially sorted the way the
// CLI prints its top spreads (estimate descending, flow id ascending).
std::vector<uint64_t> TopFlows(const smb::ArenaSmbEngine& engine) {
  std::vector<std::pair<uint64_t, double>> spreads;
  spreads.reserve(engine.NumFlows());
  engine.ForEachFlow([&](uint64_t flow, double estimate) {
    spreads.emplace_back(flow, estimate);
  });
  const size_t k = std::min(kTopK, spreads.size());
  std::partial_sort(spreads.begin(),
                    spreads.begin() + static_cast<std::ptrdiff_t>(k),
                    spreads.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  std::vector<uint64_t> top;
  top.reserve(k);
  for (size_t i = 0; i < k; ++i) top.push_back(spreads[i].first);
  return top;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

std::string CheckpointFile(const std::string& dir, uint64_t generation) {
  char name[64];
  std::snprintf(name, sizeof(name), "/ckpt-%016llx.smbckpt",
                static_cast<unsigned long long>(generation));
  return dir + name;
}

std::string SpoolFile(const std::string& dir, uint64_t seq) {
  char name[64];
  std::snprintf(name, sizeof(name), "/delta-%016llx.smbspool",
                static_cast<unsigned long long>(seq));
  return dir + name;
}

// Time and bytes spent inside the SMBZ1 checkpoint hooks.
struct CodecCounters {
  uint64_t encode_ns = 0;
  uint64_t decode_ns = 0;
  uint64_t raw_bytes = 0;
  uint64_t coded_bytes = 0;
};

// The CLI's SMBZ1 checkpoint hooks, each call wrapped in a span.
smb::io::CheckpointStore::ContentCodec TimedSmbz1Codec(Ledger* ledger,
                                                      CodecCounters* counters) {
  smb::io::CheckpointStore::ContentCodec codec;
  codec.name = "SMBZ1";
  codec.encode = [ledger, counters](std::span<const uint8_t> payload) {
    Timed timed(ledger, "codec.encode", &counters->encode_ns);
    auto out = smb::codec::CompressFlw1Image(payload);
    counters->raw_bytes += payload.size();
    counters->coded_bytes += out.has_value() ? out->size() : payload.size();
    return out;
  };
  codec.recognize = smb::codec::IsSmbz1Image;
  codec.decode = [ledger, counters](std::span<const uint8_t> stored) {
    Timed timed(ledger, "codec.decode", &counters->decode_ns);
    return smb::codec::DecompressToFlw1Image(stored);
  };
  return codec;
}

// Collects failures without flooding the output.
void Fail(IterationSample* s, const std::string& what, uint64_t count = 1) {
  s->failed += count;
  if (s->failures.size() < 8) s->failures.push_back(what);
}

// The part every workload shares: the seeded trace on disk, the oracle's
// answers, and the closed-loop query plan.
class TraceWorkload : public Workload {
 public:
  TraceWorkload(Shape shape, size_t queries_per_pass, size_t topk_per_pass)
      : shape_(shape),
        queries_per_pass_(queries_per_pass),
        topk_per_pass_(topk_per_pass) {}

  void Prepare(uint64_t seed, const std::string& dir) override {
    dir_ = dir;
    seed_ = seed;
    smb::Trace trace = MakeTrace(shape_, seed);
    trace_path_ = dir + "/trace.smbt1";
    if (!smb::WriteTraceFile(trace, trace_path_)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path_.c_str());
      std::exit(1);
    }
    trace_bytes_ = FileBytes(trace_path_);
    num_flows_ = trace.num_flows();
    num_packets_ = trace.packets.size();
    truth_ = trace.true_cardinality;

    // The oracle: one engine, no budget, the whole trace in order.
    smb::ArenaSmbEngine oracle(CliEngineConfig());
    oracle.RecordBatch(trace.packets);
    oracle_estimate_.assign(num_flows_, 0.0);
    oracle_state_.assign(num_flows_, 0);
    oracle.ForEachFlowState([&](uint64_t flow, uint32_t round, uint32_t ones,
                                std::span<const uint64_t> words) {
      oracle_state_[flow] = StateHash(round, ones, words);
    });
    for (size_t f = 0; f < num_flows_; ++f) {
      oracle_estimate_[f] = oracle.Query(f);
    }
    oracle_top_ = TopFlows(oracle);
    oracle_live_bytes_ = oracle.LiveBytes();
    oracle_resident_bytes_ = oracle.ResidentBytes();

    // Closed-loop query mix: the flow of a uniformly drawn packet, so a
    // flow is asked for as often as it sends (the paper's Table IX
    // record-then-check pattern, bench/caida_query.cc, subsampled), plus
    // a share of never-seen flow ids.
    smb::Xoshiro256 rng(smb::Murmur3Fmix64(seed ^ 0x9E57ull));
    for (size_t q = 0; q < queries_per_pass_; ++q) {
      uint64_t flow = 0;
      if (rng.NextBernoulli(kAbsentShare)) {
        flow = num_flows_ + (rng.Next() >> 16);
        ++absent_per_pass_;
      } else {
        flow = trace.packets[static_cast<size_t>(
                                 rng.NextBounded(trace.packets.size()))]
                   .flow;
      }
      plan_.push_back(flow);
      plan_expected_.push_back(oracle.Query(flow));
    }
  }

  void StampInputs(smb::JsonWriter* json) const override {
    json->Key("seed");
    json->Uint(seed_);
    json->Key("flows");
    json->Uint(num_flows_);
    json->Key("packets");
    json->Uint(num_packets_);
    json->Key("trace_bytes");
    json->Uint(trace_bytes_);
    json->Key("trace_shape");
    json->BeginObject();
    json->Key("bulk_flows");
    json->Uint(shape_.flows);
    json->Key("bulk_max_spread");
    json->Uint(shape_.max_cardinality);
    json->Key("tail_flows");
    json->Uint(shape_.tail_flows);
    json->Key("tail_spread");
    json->String(std::to_string(shape_.tail_min) + "-" +
                 std::to_string(shape_.tail_max));
    json->Key("power_law_exponent");
    json->Double(shape_.exponent, 2);
    json->Key("dup_factor");
    json->Double(shape_.dup_factor, 2);
    json->EndObject();
    json->Key("geometry");
    json->String("--memory 10000 --design 1000000 --seed 0");
    json->Key("oracle_resident_bytes");
    json->Uint(oracle_resident_bytes_);
    json->Key("oracle_live_bytes");
    json->Uint(oracle_live_bytes_);
    json->Key("point_queries_per_pass");
    json->Uint(queries_per_pass_);
    json->Key("absent_queries_per_pass");
    json->Uint(absent_per_pass_);
    json->Key("topk_answers_per_pass");
    json->Uint(topk_per_pass_);
  }

 protected:
  // A fresh directory for one pass (relative to the run directory).
  std::string NextPassDir() {
    const std::string dir = dir_ + "/pass-" + std::to_string(pass_++);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  // Checks a query-ready engine against the oracle: every flow's estimate
  // bit-identical, every live flow's recorded state bit-identical; fills
  // the accuracy figures from the served estimates.
  void CheckAgainstOracle(const smb::ArenaSmbEngine& engine,
                          bool expect_all_live, IterationSample* s) const {
    size_t live = 0;
    size_t state_mismatches = 0;
    engine.ForEachFlowState([&](uint64_t flow, uint32_t round, uint32_t ones,
                                std::span<const uint64_t> words) {
      ++live;
      if (flow >= num_flows_ ||
          StateHash(round, ones, words) != oracle_state_[flow]) {
        ++state_mismatches;
      }
    });
    if (state_mismatches > 0) {
      Fail(s, std::to_string(state_mismatches) +
                  " flow states differ from the oracle");
    }
    if (expect_all_live && live != num_flows_) {
      Fail(s, "engine holds " + std::to_string(live) + " flows, trace has " +
                  std::to_string(num_flows_));
    }
    const std::vector<smb::CardinalityRange> ranges =
        smb::DefaultCardinalityRanges();
    std::vector<double> range_sum(ranges.size(), 0.0);
    std::vector<size_t> range_count(ranges.size(), 0);
    double error_sum = 0.0;
    size_t estimate_mismatches = 0;
    for (size_t f = 0; f < num_flows_; ++f) {
      const double estimate = engine.Query(f);
      if (!SameBits(estimate, oracle_estimate_[f])) ++estimate_mismatches;
      const double n = static_cast<double>(truth_[f]);
      const double rel = std::fabs(estimate - n) / n;
      error_sum += rel;
      for (size_t r = 0; r < ranges.size(); ++r) {
        if (truth_[f] >= ranges[r].lo && truth_[f] < ranges[r].hi) {
          range_sum[r] += rel;
          ++range_count[r];
        }
      }
    }
    if (estimate_mismatches > 0) {
      Fail(s, std::to_string(estimate_mismatches) +
                  " estimates differ from the oracle");
    }
    s->mean_rel_error = error_sum / static_cast<double>(num_flows_);
    for (size_t r = 0; r < ranges.size(); ++r) {
      s->layer["flow.rel_error." + std::to_string(ranges[r].lo) + "-" +
               std::to_string(ranges[r].hi)] =
          range_count[r] > 0
              ? range_sum[r] / static_cast<double>(range_count[r])
              : 0.0;
    }
  }

  // A recovered engine must answer every query exactly as the live one.
  void CheckRecovered(const smb::ArenaSmbEngine& live,
                      const smb::ArenaSmbEngine& recovered,
                      IterationSample* s) const {
    size_t mismatches = 0;
    for (size_t f = 0; f < num_flows_; ++f) {
      if (!SameBits(live.Query(f), recovered.Query(f))) ++mismatches;
    }
    for (uint64_t flow : plan_) {
      if (!SameBits(live.Query(flow), recovered.Query(flow))) ++mismatches;
    }
    if (TopFlows(live) != TopFlows(recovered)) ++mismatches;
    if (mismatches > 0) {
      Fail(s, "recovered state answers " + std::to_string(mismatches) +
                  " queries differently from the live state");
    }
  }

  // The closed-loop query phase against one serving object. Point
  // queries are timed on `query_clock`: NowNs for sub-microsecond
  // queries, CpuNs for ones that run long enough to lose a time slice.
  template <typename PointQuery, typename TopQuery>
  void RunQueries(Ledger* ledger, const char* point_span,
                  uint64_t (*query_clock)(), PointQuery point, TopQuery top,
                  IterationSample* s) {
    ledger->SetStage("query");
    uint64_t query_ns = 0;
    size_t wrong = 0;
    s->query_us.reserve(plan_.size());
    for (size_t q = 0; q < plan_.size(); ++q) {
      Ledger::Open open;
      if (ledger->enabled()) open = ledger->Begin(point_span);
      const uint64_t start = query_clock();
      const double answer = point(plan_[q]);
      const uint64_t ns = query_clock() - start;
      if (ledger->enabled()) ledger->End(open);
      query_ns += ns;
      s->query_us.push_back(static_cast<double>(ns) * 1e-3);
      if (!SameBits(answer, plan_expected_[q])) ++wrong;
    }
    s->attempted += plan_.size();
    if (wrong > 0) {
      Fail(s, std::to_string(wrong) + " point queries answered wrongly",
           wrong);
    }
    uint64_t topk_ns = 0;
    for (size_t r = 0; r < topk_per_pass_; ++r) {
      const uint64_t start = CpuNs();
      const std::vector<uint64_t> answer = top();
      const uint64_t ns = CpuNs() - start;
      topk_ns += ns;
      s->topk_ms.push_back(static_cast<double>(ns) * 1e-6);
      ++s->attempted;
      if (answer != oracle_top_) Fail(s, "top-100 differs from the oracle");
    }
    s->layer["flow.query_s"] = Seconds(query_ns);
    s->layer["flow.queries"] = static_cast<double>(plan_.size());
    s->layer["flow.absent_queries"] = static_cast<double>(absent_per_pass_);
    s->layer["flow.topk_s"] = Seconds(topk_ns);
  }

  Shape shape_;
  size_t queries_per_pass_;
  size_t topk_per_pass_;
  std::string dir_;
  uint64_t seed_ = 0;
  std::string trace_path_;
  uint64_t trace_bytes_ = 0;
  size_t num_flows_ = 0;
  size_t num_packets_ = 0;
  std::vector<uint64_t> truth_;
  std::vector<double> oracle_estimate_;
  std::vector<uint64_t> oracle_state_;
  std::vector<uint64_t> oracle_top_;
  size_t oracle_live_bytes_ = 0;
  size_t oracle_resident_bytes_ = 0;
  std::vector<uint64_t> plan_;
  std::vector<double> plan_expected_;
  size_t absent_per_pass_ = 0;
  size_t pass_ = 0;
};

// zipf_ingest and evict_cold: one recorder (PerFlowMonitor on the arena
// engine), one final SMBZ1 checkpoint, queries against the recorder,
// recovery through a fresh CheckpointStore + Deserialize.
class SingleRecorder : public TraceWorkload {
 public:
  // 100 top-100 answers per pass: 20 back-to-back answers (~0.2 s) fell
  // on one of the host's speeds (perfbench/README.md, "Clocks").
  SingleRecorder(Shape shape, double budget_fraction)
      : TraceWorkload(shape, /*queries_per_pass=*/100000, /*topk=*/100),
        budget_fraction_(budget_fraction) {}

  void Prepare(uint64_t seed, const std::string& dir) override {
    TraceWorkload::Prepare(seed, dir);
    if (budget_fraction_ > 0.0) {
      tuning_.memory_budget_bytes = static_cast<size_t>(
          static_cast<double>(oracle_live_bytes_) * budget_fraction_);
      tuning_.eviction = smb::ArenaEviction::kClock;
      tuning_.cold_tier = true;
    }
  }

  size_t MinIterations() const override { return 3; }

  std::optional<double> SetupOnce() override {
    const std::string dir = NextPassDir();
    CodecCounters counters;
    Ledger off(false);
    const uint64_t start = CpuNs();
    {
      smb::PerFlowMonitor monitor(CliSpec(),
                                  smb::PerFlowMonitor::Engine::kArena,
                                  tuning_);
      smb::io::CheckpointStore store(StoreOptions(dir, &off, &counters));
      smb::DoNotOptimize(monitor.NumFlows());
    }
    const double seconds = Seconds(CpuNs() - start);
    fs::remove_all(dir);
    return seconds;
  }

  IterationSample Iterate(Ledger* ledger) override {
    IterationSample s;
    const std::string dir = NextPassDir();
    CodecCounters codec;

    const uint64_t setup_start = CpuNs();
    auto monitor = std::make_unique<smb::PerFlowMonitor>(
        CliSpec(), smb::PerFlowMonitor::Engine::kArena, tuning_);
    auto store = std::make_unique<smb::io::CheckpointStore>(
        StoreOptions(dir, ledger, &codec));
    const smb::ArenaSmbEngine* engine = monitor->arena_engine();
    const uint64_t wall_start = NowNs();
    const uint64_t start = CpuNs();
    s.setup_s = Seconds(start - setup_start);

    ledger->Reset(start);
    ledger->SetStage("read");
    uint64_t read_ns = 0;
    std::optional<smb::Trace> trace;
    {
      Timed timed(ledger, "stream.read", &read_ns);
      trace = smb::ReadTraceFile(trace_path_);
    }
    ++s.attempted;
    if (!trace.has_value() || trace->packets.size() != num_packets_) {
      Fail(&s, "SMBT1 trace did not decode");
      return s;
    }
    s.packets = num_packets_;

    ledger->SetStage("ingest");
    uint64_t record_ns = 0;
    const smb::Packet* packets = trace->packets.data();
    for (size_t off = 0; off < num_packets_; off += kBlock) {
      const size_t len = std::min(kBlock, num_packets_ - off);
      Timed timed(ledger, "flow.record", &record_ns);
      monitor->RecordBatch(packets + off, len);
    }

    trace.reset();

    ledger->SetStage("checkpoint");
    const uint64_t cut = CpuNs();
    uint64_t serialize_ns = 0;
    uint64_t write_ns = 0;
    std::vector<uint8_t> payload;
    {
      Timed timed(ledger, "flow.serialize", &serialize_ns);
      payload = engine->Serialize();
    }
    smb::io::CheckpointStore::WriteResult written;
    {
      Timed timed(ledger, "io.checkpoint_write", &write_ns);
      written = store->Write(payload);
    }
    const uint64_t ready = CpuNs();
    s.pipeline_s = Seconds(ready - start);
    s.pipeline_wall_s = Seconds(NowNs() - wall_start);
    s.ingest_s = Seconds(record_ns);
    s.lag_ms.push_back(static_cast<double>(ready - cut) * 1e-6);
    ++s.attempted;
    if (!written.ok) Fail(&s, "checkpoint write failed: " + written.error);
    const uint64_t ckpt_bytes =
        FileBytes(CheckpointFile(dir, written.generation));
    payload = {};

    RunQueries(
        ledger, "flow.query", NowNs,
        [&](uint64_t flow) { return monitor->Query(flow); },
        [&]() {
          Timed timed(ledger, "flow.topk", nullptr);
          return TopFlows(*engine);
        },
        &s);

    ledger->SetStage("recover");
    uint64_t recover_ns = 0;
    uint64_t deserialize_ns = 0;
    const uint64_t recover_start = CpuNs();
    smb::io::CheckpointStore::RecoverResult recovered;
    {
      Timed timed(ledger, "io.recover", &recover_ns);
      smb::io::CheckpointStore fresh(StoreOptions(dir, ledger, &codec));
      recovered = fresh.RecoverLatest();
    }
    std::optional<smb::ArenaSmbEngine> restored;
    if (recovered.ok) {
      Timed timed(ledger, "flow.deserialize", &deserialize_ns);
      restored = smb::ArenaSmbEngine::Deserialize(recovered.payload, tuning_);
    }
    s.recover_s.push_back(Seconds(CpuNs() - recover_start));
    ledger->SetWindowEnd(CpuNs());
    recovered.payload = {};

    // Checks and accounting, outside every timed window.
    ++s.attempted;
    if (!restored.has_value()) {
      Fail(&s, "checkpoint did not recover: " + recovered.error);
    } else {
      CheckRecovered(*engine, *restored, &s);
    }
    CheckAgainstOracle(*engine, /*expect_all_live=*/budget_fraction_ == 0.0,
                       &s);
    const smb::ArenaSmbEngine::ArenaStats stats = engine->Stats();
    if (stats.recorded_flows != stats.live_flows + stats.evicted_flows) {
      Fail(&s, "recorded != live + evicted");
    }
    if (tuning_.memory_budget_bytes > 0 &&
        stats.live_bytes > tuning_.memory_budget_bytes) {
      Fail(&s, "live bytes exceed the memory budget");
    }

    const double packets_d = static_cast<double>(num_packets_);
    // ResidentBytes() already includes the cold tier's chunks.
    s.resident_bytes_per_flow = static_cast<double>(engine->ResidentBytes()) /
                                static_cast<double>(num_flows_);
    s.bytes_written_per_packet = static_cast<double>(ckpt_bytes) / packets_d;
    s.wire_bytes_per_packet =
        static_cast<double>(codec.coded_bytes) / packets_d;

    auto& l = s.layer;
    l["stream.read_s"] = Seconds(read_ns);
    l["stream.mb_per_s"] =
        static_cast<double>(trace_bytes_) / Seconds(read_ns) / 1e6;
    l["flow.record_s"] = Seconds(record_ns);
    l["flow.ns_per_packet"] = static_cast<double>(record_ns) / packets_d;
    l["flow.nursery_flows"] = static_cast<double>(stats.nursery_flows);
    l["flow.promoted_flows"] = static_cast<double>(stats.promoted_flows);
    l["flow.resident_bytes"] = static_cast<double>(engine->ResidentBytes());
    l["flow.evicted_flows"] = static_cast<double>(stats.evicted_flows);
    l["flow.thawed_flows"] = static_cast<double>(stats.thawed_flows);
    l["flow.thaw_ratio"] =
        stats.evicted_flows > 0
            ? static_cast<double>(stats.thawed_flows) /
                  static_cast<double>(stats.evicted_flows)
            : 0.0;
    l["flow.cold_encoded_bytes"] =
        static_cast<double>(stats.cold_encoded_bytes);
    l["flow.cold_compactions"] = static_cast<double>(stats.cold_compactions);
    l["flow.serialize_s"] = Seconds(serialize_ns);
    l["flow.deserialize_s"] = Seconds(deserialize_ns);
    l["codec.encode_s"] = Seconds(codec.encode_ns);
    l["codec.decode_s"] = Seconds(codec.decode_ns);
    l["codec.ratio"] = codec.coded_bytes > 0
                           ? static_cast<double>(codec.raw_bytes) /
                                 static_cast<double>(codec.coded_bytes)
                           : 0.0;
    l["io.checkpoint_write_s"] = Seconds(write_ns);
    l["io.checkpoint_bytes"] = static_cast<double>(ckpt_bytes);
    l["io.recover_s"] = Seconds(recover_ns);
    l["io.skipped_generations"] =
        static_cast<double>(recovered.skipped.size());

    monitor.reset();
    store.reset();
    fs::remove_all(dir);
    return s;
  }

  void StampInputs(smb::JsonWriter* json) const override {
    TraceWorkload::StampInputs(json);
    json->Key("memory_budget_bytes");
    json->Uint(tuning_.memory_budget_bytes);
    json->Key("budget_fraction_of_unbudgeted_live_bytes");
    json->Double(budget_fraction_, 2);
    json->Key("eviction");
    json->String(tuning_.memory_budget_bytes > 0 ? "clock" : "off");
    json->Key("cold_tier");
    json->Bool(tuning_.cold_tier);
    // Read back from the options the passes use, so the stamp cannot
    // drift from the code.
    const bool sync = StoreOptions(dir_, nullptr, nullptr).sync;
    json->Key("flush_policy");
    json->String(std::string("final checkpoint fsync ") +
                 (sync ? "on" : "off") +
                 " (the CLI's --checkpoint-dir fsyncs)");
  }

 private:
  static smb::io::CheckpointStore::Options StoreOptions(
      const std::string& dir, Ledger* ledger, CodecCounters* counters) {
    smb::io::CheckpointStore::Options options;
    options.directory = dir;
    options.codec = TimedSmbz1Codec(ledger, counters);
    return options;
  }

  double budget_fraction_;
  smb::ArenaTuning tuning_;
};

// repl_fanin: three child recorders on disjoint flow-hash slices feed one
// parent ReplicationSink over real UDS sockets, all pumped in lockstep by
// this thread on the real monotonic clock.
class ReplFanin : public TraceWorkload {
 public:
  static constexpr uint64_t kChildren = kSlices;
  static constexpr size_t kRecoveries = 10;

  ReplFanin(Shape shape, size_t delta_every)
      : TraceWorkload(shape, /*queries_per_pass=*/1000, /*topk=*/100),
        delta_every_(delta_every) {}

  size_t MinIterations() const override { return 4; }

  std::optional<double> SetupOnce() override {
    const std::string dir = NextPassDir();
    Fleet fleet;
    const uint64_t start = CpuNs();
    std::string error;
    const bool ok = BuildFleet(dir, &fleet, &error);
    const double seconds = Seconds(CpuNs() - start);
    TearDown(&fleet);
    fs::remove_all(dir);
    if (!ok) {
      std::fprintf(stderr, "repl_fanin set-up failed: %s\n", error.c_str());
      return std::nullopt;
    }
    return seconds;
  }

  IterationSample Iterate(Ledger* ledger) override {
    IterationSample s;
    const std::string dir = NextPassDir();
    Fleet fleet;
    std::string error;
    const uint64_t setup_start = CpuNs();
    if (!BuildFleet(dir, &fleet, &error)) {
      ++s.attempted;
      Fail(&s, "set-up failed: " + error);
      return s;
    }
    const uint64_t wall_start = NowNs();
    const uint64_t start = CpuNs();
    s.setup_s = Seconds(start - setup_start);

    ledger->Reset(start);
    ledger->SetStage("read");
    uint64_t read_ns = 0;
    std::optional<smb::Trace> trace;
    {
      Timed timed(ledger, "stream.read", &read_ns);
      trace = smb::ReadTraceFile(trace_path_);
    }
    ++s.attempted;
    if (!trace.has_value() || trace->packets.size() != num_packets_) {
      Fail(&s, "SMBT1 trace did not decode");
      TearDown(&fleet);
      return s;
    }
    s.packets = num_packets_;
    // Route each packet to the child owning its flow-hash slice. The
    // children advance together through the trace in rounds of
    // kChildren * kBlock arrivals (round_end[c][r] = end of child c's
    // share of round r), so each child records the traffic its slice
    // really receives in that window and the parent polls once per round.
    const size_t round_packets = kChildren * kBlock;
    std::vector<std::vector<smb::Packet>> slices(kChildren);
    std::vector<std::vector<size_t>> round_end(kChildren);
    for (size_t i = 0; i < num_packets_; ++i) {
      const smb::Packet& p = trace->packets[i];
      slices[FlowSlice(p.flow)].push_back(p);
      if ((i + 1) % round_packets == 0 || i + 1 == num_packets_) {
        for (size_t c = 0; c < kChildren; ++c) {
          round_end[c].push_back(slices[c].size());
        }
      }
    }
    trace.reset();

    ledger->SetStage("ingest");
    uint64_t record_ns = 0, note_ns = 0, cut_ns = 0, tick_ns = 0,
             poll_ns = 0, merge_ns = 0;
    uint64_t polls = 0, cuts = 0;
    uint64_t spool_bytes = 0, ckpt_bytes = 0, last_ckpts = 0;
    std::vector<size_t> offset(kChildren, 0), since_cut(kChildren, 0);
    // cut_at[c][seq] = when CutDelta returned kCut for seq.
    std::vector<std::vector<uint64_t>> cut_at(kChildren,
                                              std::vector<uint64_t>(1, 0));
    std::vector<uint64_t> lag_seen(kChildren, 0);

    auto observe_acks = [&](size_t c) {
      const uint64_t acked = fleet.replicators[c]->acked_seq();
      const uint64_t now = CpuNs();
      while (lag_seen[c] < acked && lag_seen[c] + 1 < cut_at[c].size()) {
        ++lag_seen[c];
        s.lag_ms.push_back(
            static_cast<double>(now - cut_at[c][lag_seen[c]]) * 1e-6);
        ledger->Mark("repl.acked", static_cast<uint32_t>(c + 1),
                     DeltaId(c, lag_seen[c]));
      }
    };
    auto cut = [&](size_t c) {
      const uint64_t seq = fleet.replicators[c]->next_seq();
      smb::repl::ChildReplicator::CutStatus status;
      {
        Timed timed(ledger, "repl.cut", &cut_ns, static_cast<uint32_t>(c + 1),
                    DeltaId(c, seq));
        status = fleet.replicators[c]->CutDelta(&error);
      }
      ++cuts;
      ++s.attempted;
      if (status == smb::repl::ChildReplicator::CutStatus::kCut) {
        cut_at[c].push_back(CpuNs());
        spool_bytes += FileBytes(SpoolFile(fleet.spool_dirs[c], seq));
      } else if (status != smb::repl::ChildReplicator::CutStatus::kEmpty) {
        Fail(&s, "CutDelta did not cut: " + error);
      }
      since_cut[c] = 0;
    };
    auto tick = [&](size_t c) {
      {
        Timed timed(ledger, "repl.tick", &tick_ns,
                    static_cast<uint32_t>(c + 1));
        fleet.replicators[c]->Tick(NowMs());
      }
      observe_acks(c);
    };
    auto poll = [&]() {
      {
        Timed timed(ledger, "repl.poll", &poll_ns);
        fleet.sink->PollOnce(NowMs(), 0);
      }
      ++polls;
      const uint64_t written = fleet.sink->stats().checkpoints_written;
      if (written != last_ckpts) {
        // Generations count up from 1 in a fresh directory; keep-last-K
        // rotation deletes old files, so each is sized as it appears.
        ckpt_bytes += FileBytes(CheckpointFile(fleet.ckpt_dir, written));
        last_ckpts = written;
      }
    };

    for (size_t round = 0; round < round_end[0].size(); ++round) {
      for (size_t c = 0; c < kChildren; ++c) {
        // Like the CLI's child mode: batches of up to kBlock packets, a
        // cut (followed by a Tick that ships it) every delta_every_.
        while (offset[c] < round_end[c][round]) {
          const size_t len =
              std::min({kBlock, delta_every_ - since_cut[c],
                        round_end[c][round] - offset[c]});
          const smb::Packet* block = slices[c].data() + offset[c];
          {
            Timed timed(ledger, "flow.record", &record_ns,
                        static_cast<uint32_t>(c + 1));
            fleet.monitors[c]->RecordBatch(block, len);
          }
          {
            Timed timed(ledger, "repl.note", &note_ns,
                        static_cast<uint32_t>(c + 1));
            fleet.replicators[c]->NoteRecordedBatch(block, len);
          }
          offset[c] += len;
          since_cut[c] += len;
          if (since_cut[c] == delta_every_) {
            cut(c);
            tick(c);
          }
        }
        tick(c);
      }
      poll();
    }

    ledger->SetStage("drain");
    for (size_t c = 0; c < kChildren; ++c) cut(c);
    const uint64_t drain_deadline = NowNs() + 30'000'000'000ull;
    while (true) {
      bool drained = true;
      for (size_t c = 0; c < kChildren; ++c) {
        tick(c);
        if (!fleet.replicators[c]->Drained() ||
            fleet.replicators[c]->dirty_flows() != 0) {
          drained = false;
        }
      }
      if (drained) break;
      if (NowNs() > drain_deadline) {
        Fail(&s, "children did not drain within 30 s");
        break;
      }
      poll();
    }
    std::optional<smb::ArenaSmbEngine> merged;
    {
      Timed timed(ledger, "repl.merge", &merge_ns);
      merged.emplace(fleet.sink->MergedEngine());
    }
    const uint64_t ready = CpuNs();
    s.pipeline_s = Seconds(ready - start);
    s.pipeline_wall_s = Seconds(NowNs() - wall_start);
    s.ingest_s = Seconds(record_ns + note_ns + cut_ns + tick_ns);

    uint64_t merged_query_ns = 0;
    // MergedQuery rebuilds the merged engine (~2-5 ms per call).
    RunQueries(
        ledger, "repl.merged_query", CpuNs,
        [&](uint64_t flow) { return fleet.sink->MergedQuery(flow); },
        [&]() {
          std::optional<smb::ArenaSmbEngine> fresh;
          {
            Timed timed(ledger, "repl.merge", &merged_query_ns);
            fresh.emplace(fleet.sink->MergedEngine());
          }
          Timed timed(ledger, "flow.topk", nullptr);
          return TopFlows(*fresh);
        },
        &s);

    // Recovery: the live sink goes away and a new one is built from the
    // same checkpoint directory, kRecoveries times, because one takes
    // ~10 ms: too short to average the host's speed changes.
    ledger->SetStage("recover");
    for (auto& replicator : fleet.replicators) replicator->Shutdown();
    fleet.sink->Close();
    uint64_t recover_ns = 0;
    std::optional<smb::repl::ReplicationSink> restored;
    for (size_t r = 0; r < kRecoveries; ++r) {
      restored.reset();
      uint64_t ns = 0;
      {
        Timed timed(ledger, "io.recover", &ns);
        restored.emplace(SinkOptions(fleet));
      }
      recover_ns += ns;
      s.recover_s.push_back(Seconds(ns));
    }
    ledger->SetWindowEnd(CpuNs());

    // Checks and accounting (the last recovered sink stands for all).
    s.attempted += kRecoveries;
    const smb::ArenaSmbEngine restored_merged = restored->MergedEngine();
    CheckRecovered(*merged, restored_merged, &s);
    CheckAgainstOracle(*merged, /*expect_all_live=*/true, &s);
    const smb::repl::ReplicationSink::Stats& sink_stats = fleet.sink->stats();
    s.attempted += sink_stats.checkpoints_written +
                   sink_stats.checkpoint_failures;
    if (sink_stats.checkpoint_failures > 0) {
      Fail(&s, std::to_string(sink_stats.checkpoint_failures) +
                   " parent checkpoints failed");
    }
    if (sink_stats.rejected_payloads + sink_stats.rejected_frames > 0) {
      Fail(&s, "parent rejected deliveries");
    }
    smb::repl::ChildReplicator::Stats total;
    size_t resident = 0;
    for (size_t c = 0; c < kChildren; ++c) {
      const auto st = fleet.replicators[c]->stats();
      if (st.deltas_cut !=
          st.deltas_delivered + st.spooled_deltas + st.deltas_shed) {
        Fail(&s, "child " + std::to_string(c + 1) +
                     ": deltas_cut != delivered + spooled + shed");
      }
      total.deltas_cut += st.deltas_cut;
      total.deltas_delivered += st.deltas_delivered;
      total.deltas_shed += st.deltas_shed;
      total.deltas_deferred += st.deltas_deferred;
      total.retransmits += st.retransmits;
      total.delta_raw_bytes += st.delta_raw_bytes;
      total.delta_stored_bytes += st.delta_stored_bytes;
      resident += fleet.monitors[c]->arena_engine()->ResidentBytes();
    }

    const double packets_d = static_cast<double>(num_packets_);
    s.resident_bytes_per_flow =
        static_cast<double>(resident) / static_cast<double>(num_flows_);
    s.bytes_written_per_packet =
        static_cast<double>(spool_bytes + ckpt_bytes) / packets_d;
    s.wire_bytes_per_packet =
        static_cast<double>(total.delta_stored_bytes) / packets_d;

    auto& l = s.layer;
    l["stream.read_s"] = Seconds(read_ns);
    l["stream.mb_per_s"] =
        static_cast<double>(trace_bytes_) / Seconds(read_ns) / 1e6;
    l["flow.record_s"] = Seconds(record_ns);
    l["flow.ns_per_packet"] = static_cast<double>(record_ns) / packets_d;
    size_t nursery = 0, promoted = 0;
    for (const auto& monitor : fleet.monitors) {
      const auto st = monitor->arena_engine()->Stats();
      nursery += st.nursery_flows;
      promoted += st.promoted_flows;
    }
    l["flow.nursery_flows"] = static_cast<double>(nursery);
    l["flow.promoted_flows"] = static_cast<double>(promoted);
    l["flow.resident_bytes"] = static_cast<double>(resident);
    l["repl.cut_s"] = Seconds(cut_ns);
    l["repl.cuts"] = static_cast<double>(cuts);
    l["repl.tick_s"] = Seconds(tick_ns);
    l["repl.note_s"] = Seconds(note_ns);
    l["repl.delta_raw_bytes"] = static_cast<double>(total.delta_raw_bytes);
    l["repl.delta_stored_bytes"] =
        static_cast<double>(total.delta_stored_bytes);
    l["repl.deltas_delivered"] = static_cast<double>(total.deltas_delivered);
    l["repl.deltas_shed"] = static_cast<double>(total.deltas_shed);
    l["repl.deltas_deferred"] = static_cast<double>(total.deltas_deferred);
    l["repl.retransmits"] = static_cast<double>(total.retransmits);
    l["repl.poll_s"] = Seconds(poll_ns);
    l["repl.polls"] = static_cast<double>(polls);
    l["repl.deltas_applied"] = static_cast<double>(sink_stats.deltas_applied);
    l["repl.rejected_payloads"] =
        static_cast<double>(sink_stats.rejected_payloads);
    l["repl.checkpoints_written"] =
        static_cast<double>(sink_stats.checkpoints_written);
    l["repl.checkpoints_per_delta"] =
        sink_stats.deltas_applied > 0
            ? static_cast<double>(sink_stats.checkpoints_written) /
                  static_cast<double>(sink_stats.deltas_applied)
            : 0.0;
    l["repl.ckpt_bytes_written"] = static_cast<double>(ckpt_bytes);
    l["repl.merge_s"] = Seconds(merge_ns + merged_query_ns);
    l["io.recover_s"] = Seconds(recover_ns);

    restored.reset();
    TearDown(&fleet);
    fs::remove_all(dir);
    return s;
  }

  void StampInputs(smb::JsonWriter* json) const override {
    TraceWorkload::StampInputs(json);
    json->Key("children");
    json->Uint(kChildren);
    json->Key("delta_every_packets_per_child");
    json->Uint(delta_every_);
    json->Key("codec");
    json->String("SMBZ1 negotiated (child codec_mask + parent defaults)");
    // Read back from the options the passes use, so the stamp cannot
    // drift from the code.
    const Fleet none;
    const bool spool_sync = ChildOptions(none, 0).spool.sync;
    const bool parent_sync = SinkOptions(none).checkpoint_sync;
    json->Key("flush_policy");
    json->String(std::string("child spool fsync ") +
                 (spool_sync ? "on" : "off") + ", parent checkpoint fsync " +
                 (parent_sync ? "on" : "off") +
                 " (the CLI's --replicate-to fsyncs the spool, its --listen "
                 "does not fsync checkpoints; see perfbench/README.md)");
    json->Key("clock");
    json->String("steady_clock milliseconds, one thread in lockstep");
  }

 private:
  struct Fleet {
    std::string ckpt_dir;
    std::string socket_path;
    std::vector<std::string> spool_dirs;
    std::unique_ptr<smb::repl::ReplicationSink> sink;
    std::vector<std::unique_ptr<smb::PerFlowMonitor>> monitors;
    std::vector<std::unique_ptr<smb::repl::ChildReplicator>> replicators;
  };

  static uint64_t NowMs() { return NowNs() / 1'000'000; }
  static uint64_t DeltaId(size_t child, uint64_t seq) {
    return (static_cast<uint64_t>(child + 1) << 32) | seq;
  }

  static smb::repl::ReplicationSink::Options SinkOptions(const Fleet& fleet) {
    smb::repl::ReplicationSink::Options options;
    options.socket_path = fleet.socket_path;
    options.engine_config = CliEngineConfig();
    options.checkpoint_dir = fleet.ckpt_dir;
    options.checkpoint_sync = false;
    return options;
  }

  // Child c's replicator options. The spool is not fsynced, unlike the
  // CLI's child mode: fsync latency on a shared host swamps the
  // replication figures (see perfbench/README.md).
  static smb::repl::ChildReplicator::Options ChildOptions(const Fleet& fleet,
                                                          size_t c) {
    smb::repl::ChildReplicator::Options options;
    options.socket_path = fleet.socket_path;
    options.child_id = c + 1;
    if (c < fleet.spool_dirs.size()) {
      options.spool.directory = fleet.spool_dirs[c];
    }
    options.spool.sync = false;
    options.codec_mask = smb::repl::kCodecSmbz1;
    return options;
  }

  // Sink + Listen + children, pumped until every child holds its
  // hello-ack.
  bool BuildFleet(const std::string& dir, Fleet* fleet, std::string* error) {
    fleet->ckpt_dir = dir + "/parent";
    fleet->socket_path = dir + "/p.sock";
    fleet->sink =
        std::make_unique<smb::repl::ReplicationSink>(SinkOptions(*fleet));
    if (!fleet->sink->Listen(error)) return false;
    for (uint64_t c = 0; c < kChildren; ++c) {
      fleet->spool_dirs.push_back(dir + "/spool-" + std::to_string(c + 1));
      fleet->monitors.push_back(std::make_unique<smb::PerFlowMonitor>(
          CliSpec(), smb::PerFlowMonitor::Engine::kArena));
      fleet->replicators.push_back(std::make_unique<smb::repl::ChildReplicator>(
          fleet->monitors.back()->arena_engine(), ChildOptions(*fleet, c)));
    }
    const uint64_t deadline = NowNs() + 10'000'000'000ull;
    while (NowNs() < deadline) {
      bool all = true;
      for (auto& replicator : fleet->replicators) {
        replicator->Tick(NowMs());
        if (!replicator->connected()) all = false;
      }
      if (all) return true;
      fleet->sink->PollOnce(NowMs(), 0);
    }
    *error = "children did not receive hello-acks within 10 s";
    return false;
  }

  static void TearDown(Fleet* fleet) {
    for (auto& replicator : fleet->replicators) replicator->Shutdown();
    if (fleet->sink != nullptr) fleet->sink->Close();
    fleet->replicators.clear();
    fleet->monitors.clear();
    fleet->sink.reset();
  }

  size_t delta_every_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "zipf_ingest") {
    // 100k bulk flows: recorder state ~36 MB, a third of the 105 MiB LLC.
    // At 400k flows (144 MB, beyond the LLC) the record path waits on
    // memory, whose speed this host varied 2x from run to run, and a
    // pass took ~10 s, so a 30 s run held three passes; ingest_mpps
    // spread 0.35 over ten runs (perfbench/README.md).
    Shape shape;
    shape.flows = 100000;
    shape.max_cardinality = 200;
    shape.tail_flows = 64;
    shape.tail_min = 1000;
    shape.tail_max = 80000;
    return std::make_unique<SingleRecorder>(shape, /*budget_fraction=*/0.0);
  }
  if (name == "repl_fanin") {
    Shape shape;
    shape.flows = 4000;
    shape.max_cardinality = 1000;
    shape.tail_flows = 16;
    shape.tail_min = 1000;
    shape.tail_max = 80000;
    return std::make_unique<ReplFanin>(shape, /*delta_every=*/4096);
  }
  if (name == "evict_cold") {
    Shape shape;
    shape.flows = 30000;
    shape.max_cardinality = 200;
    shape.tail_flows = 16;
    shape.tail_min = 1000;
    shape.tail_max = 80000;
    return std::make_unique<SingleRecorder>(shape, /*budget_fraction=*/0.5);
  }
  return nullptr;
}

}  // namespace perfbench
