// perfbench — the repository's end-to-end benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE]
//
// Generates the workload's inputs from the seed (untimed), then repeats
// the workload's full pipeline — SMBT1 bytes to answered queries, then
// recovery — until S seconds of passes have run, and prints the median
// of every metric. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it alternates untraced and traced passes and prints the
// per-layer ledger (from the traced passes) plus the tracing overhead.
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// Exit status is 0 only when every check passed.

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json_writer.h"
#include "common/stats.h"
#include "perfbench/ledger.h"
#include "perfbench/workloads.h"
#include "trace/chrome_trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Extra set-up-only repetitions before every pass, so setup_s is a median
// of many samples spread over the whole run rather than one moment of it.
// More do not steady it: its run-to-run spread follows the host's speed
// (see perfbench/README.md), and 256 back-to-back repl_fanin set-ups
// slowed the pass after them by 10-15%.
constexpr size_t kSetupRepetitions = 16;
// Hard stop for starting another pass, well inside a 180 s run limit.
constexpr double kMaxMeasureSeconds = 120.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string trace_out = ".bench_build/perfbench-trace.json";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

template <typename T>
T ParseNumber(const char* text, const char* flag) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseNumber<uint64_t>(value, "--seed");
    } else if (flag == "--seconds") {
      args.seconds = ParseNumber<double>(value, "--seconds");
    } else if (flag == "--trace") {
      const int trace = ParseNumber<int>(value, "--trace");
      if (trace != 0 && trace != 1) Usage("--trace takes 0 or 1");
      args.trace = trace == 1;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

// CPU time of a fixed chain of dependent floating-point operations, in
// ms. It reads ~80 ms on a quiet 4-vCPU Xeon VM and more while the host
// runs this CPU slower; CpuNs() cannot remove that, so the context line
// gives one reading before the passes and one after, as the host state
// the figures were measured in.
double HostProbeMs() {
  const uint64_t start = CpuNs();
  volatile double x = 1.0;
  for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
  return static_cast<double>(CpuNs() - start) * 1e-6;
}

double Median(std::vector<double> values) {
  return smb::Percentile(std::move(values), 0.5);
}

// Shortest text that reads back as the same double.
std::string Number(double value) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer metrics read from each pass's counters and call timings.
struct LayerKey {
  const char* name;
  const char* unit;
};
constexpr LayerKey kLayerKeys[] = {
    {"stream.read_s", "s"},
    {"stream.mb_per_s", "MB/s"},
    {"flow.record_s", "s"},
    {"flow.ns_per_packet", "ns"},
    {"flow.nursery_flows", "count"},
    {"flow.promoted_flows", "count"},
    {"flow.resident_bytes", "B"},
    {"flow.evicted_flows", "count"},
    {"flow.thawed_flows", "count"},
    {"flow.thaw_ratio", "ratio"},
    {"flow.cold_encoded_bytes", "B"},
    {"flow.cold_compactions", "count"},
    {"flow.query_s", "s"},
    {"flow.queries", "count"},
    {"flow.absent_queries", "count"},
    {"flow.topk_s", "s"},
    {"flow.serialize_s", "s"},
    {"flow.deserialize_s", "s"},
    {"flow.rel_error.1-10", "ratio"},
    {"flow.rel_error.10-100", "ratio"},
    {"flow.rel_error.100-1000", "ratio"},
    {"flow.rel_error.1000-10000", "ratio"},
    {"flow.rel_error.10000-100000", "ratio"},
    {"repl.cut_s", "s"},
    {"repl.cuts", "count"},
    {"repl.tick_s", "s"},
    {"repl.note_s", "s"},
    {"repl.delta_raw_bytes", "B"},
    {"repl.delta_stored_bytes", "B"},
    {"repl.deltas_delivered", "count"},
    {"repl.deltas_shed", "count"},
    {"repl.deltas_deferred", "count"},
    {"repl.retransmits", "count"},
    {"repl.poll_s", "s"},
    {"repl.polls", "count"},
    {"repl.deltas_applied", "count"},
    {"repl.rejected_payloads", "count"},
    {"repl.checkpoints_written", "count"},
    {"repl.checkpoints_per_delta", "ratio"},
    {"repl.ckpt_bytes_written", "B"},
    {"repl.merge_s", "s"},
    {"codec.encode_s", "s"},
    {"codec.decode_s", "s"},
    {"codec.ratio", "ratio"},
    {"io.checkpoint_write_s", "s"},
    {"io.checkpoint_bytes", "B"},
    {"io.recover_s", "s"},
    {"io.skipped_generations", "count"},
};
constexpr const char* kLayers[] = {"stream", "flow", "codec", "io", "repl"};

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) Usage("unknown workload");
  const fs::path trace_out = fs::absolute(args.trace_out);
  const fs::path home = fs::current_path();
  // Work inside the run directory so socket paths stay short.
  fs::remove_all(args.work_dir);
  fs::create_directories(args.work_dir);
  if (::chdir(args.work_dir.c_str()) != 0) {
    std::fprintf(stderr, "cannot enter %s\n", args.work_dir.c_str());
    return 1;
  }

  const uint64_t prepare_start = NowNs();
  workload->Prepare(args.seed, ".");
  const double prepare_s =
      static_cast<double>(NowNs() - prepare_start) * 1e-9;

  std::vector<double> setup_s;
  size_t setup_attempts = 0;
  size_t setup_failures = 0;
  auto sample_setups = [&]() {
    for (size_t i = 0; i < kSetupRepetitions; ++i) {
      ++setup_attempts;
      if (const std::optional<double> seconds = workload->SetupOnce()) {
        setup_s.push_back(*seconds);
      } else {
        ++setup_failures;
      }
    }
  };

  // Passes alternate untraced / traced in trace mode; end-to-end metrics
  // only ever come from untraced passes.
  std::vector<IterationSample> plain;
  std::vector<IterationSample> traced;
  std::vector<Ledger::Summary> summaries;
  std::string chrome_trace;
  const size_t min_passes =
      args.trace ? std::max<size_t>(4, workload->MinIterations())
                 : workload->MinIterations();
  const double probe_before_ms = HostProbeMs();
  const uint64_t measure_start = NowNs();
  double slowest_pass_s = 0.0;
  for (size_t pass = 0;; ++pass) {
    const double elapsed =
        static_cast<double>(NowNs() - measure_start) * 1e-9;
    if (pass >= min_passes && elapsed + slowest_pass_s > args.seconds) break;
    if (elapsed > kMaxMeasureSeconds) break;
    const bool traced_pass = args.trace && pass % 2 == 1;
    sample_setups();
    Ledger ledger(traced_pass);
    const uint64_t pass_start = NowNs();
    IterationSample sample = workload->Iterate(&ledger);
    slowest_pass_s = std::max(
        slowest_pass_s, static_cast<double>(NowNs() - pass_start) * 1e-9);
    setup_s.push_back(sample.setup_s);
    if (traced_pass) {
      summaries.push_back(ledger.Summarize());
      chrome_trace = ledger.ChromeTrace();
      traced.push_back(std::move(sample));
    } else {
      plain.push_back(std::move(sample));
    }
  }
  const double measured_s =
      static_cast<double>(NowNs() - measure_start) * 1e-9;
  const double probe_after_ms = HostProbeMs();

  uint64_t attempted = setup_attempts;
  uint64_t failed = setup_failures;
  std::vector<std::string> failures;
  if (setup_failures > 0) failures.push_back("set-up failed");
  for (const auto* samples : {&plain, &traced}) {
    for (const IterationSample& s : *samples) {
      attempted += s.attempted;
      failed += s.failed;
      failures.insert(failures.end(), s.failures.begin(), s.failures.end());
    }
  }

  auto per_pass = [&](const std::vector<IterationSample>& samples,
                      auto field) {
    std::vector<double> values;
    for (const IterationSample& s : samples) values.push_back(field(s));
    return values;
  };
  // A percentile of each pass's own samples, then the median over passes.
  // Used for delta lag, where the single recorders have one sample per
  // pass, and for the query p99, which a few slow calls set: pooled, one
  // bursty pass set repl_fanin's p99 (spread 0.22 over ten runs; 0.07 in
  // an earlier set taken this way).
  auto per_pass_percentile = [&](auto member, double q) {
    return Median(per_pass(plain, [&](const IterationSample& s) {
      return smb::Percentile(s.*member, q);
    }));
  };
  // Every other timing pools the whole run's samples. On a shared host the
  // CPU runs this thread at one of two speeds ~1.6x apart, switching
  // within a fraction of a second to minutes (perfbench/README.md); a
  // median of a few passes, or of 20 back-to-back top-100 answers, lands
  // in one speed or the other, while a pooled figure moves in proportion
  // to the share of the run spent at each.
  auto pooled = [&](auto member) {
    std::vector<double> all;
    for (const IterationSample& s : plain) {
      all.insert(all.end(), (s.*member).begin(), (s.*member).end());
    }
    return all;
  };
  auto mean = [](const std::vector<double>& values) {
    double sum = 0.0;
    for (const double v : values) sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  };
  auto samples = [&](auto member) { return pooled(member).size(); };
  // Packets of all the given passes over their summed busy time.
  auto pooled_mpps = [](const std::vector<IterationSample>& passes,
                        double IterationSample::*busy_s) {
    double packets = 0.0, seconds = 0.0;
    for (const IterationSample& s : passes) {
      packets += static_cast<double>(s.packets);
      seconds += s.*busy_s;
    }
    return seconds > 0.0 ? packets / seconds / 1e6 : 0.0;
  };
  auto mpps = [](double packets, double seconds) {
    return seconds > 0.0 ? packets / seconds / 1e6 : 0.0;
  };

  std::vector<Metric> metrics;
  size_t queries = 0, topk = 0, lags = 0;
  if (!args.trace) {
    queries = samples(&IterationSample::query_us);
    topk = samples(&IterationSample::topk_ms);
    lags = samples(&IterationSample::lag_ms);
    metrics = {
        {"pipeline_mpps", pooled_mpps(plain, &IterationSample::pipeline_s),
         "Mpkt/s"},
        {"ingest_mpps", pooled_mpps(plain, &IterationSample::ingest_s),
         "Mpkt/s"},
        {"query_p50_us",
         smb::Percentile(pooled(&IterationSample::query_us), 0.5), "us"},
        {"query_p99_us",
         per_pass_percentile(&IterationSample::query_us, 0.99), "us"},
        {"topk_ms", mean(pooled(&IterationSample::topk_ms)), "ms"},
        {"delta_lag_p50_ms",
         per_pass_percentile(&IterationSample::lag_ms, 0.5), "ms"},
        {"delta_lag_p90_ms",
         per_pass_percentile(&IterationSample::lag_ms, 0.9), "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"recover_s", mean(pooled(&IterationSample::recover_s)), "s"},
        {"resident_bytes_per_flow",
         Median(per_pass(plain,
                         [](const IterationSample& s) {
                           return s.resident_bytes_per_flow;
                         })),
         "B"},
        {"bytes_written_per_packet",
         Median(per_pass(plain,
                         [](const IterationSample& s) {
                           return s.bytes_written_per_packet;
                         })),
         "B"},
        {"wire_bytes_per_packet",
         Median(per_pass(plain,
                         [](const IterationSample& s) {
                           return s.wire_bytes_per_packet;
                         })),
         "B"},
        {"mean_rel_error",
         Median(per_pass(plain,
                         [](const IterationSample& s) {
                           return s.mean_rel_error;
                         })),
         "ratio"},
    };
  } else {
    for (const LayerKey& key : kLayerKeys) {
      metrics.push_back(
          {key.name,
           Median(per_pass(traced,
                           [&](const IterationSample& s) {
                             const auto it = s.layer.find(key.name);
                             return it == s.layer.end() ? 0.0 : it->second;
                           })),
           key.unit});
    }
    for (const char* layer : kLayers) {
      std::vector<double> busy, self;
      for (const Ledger::Summary& summary : summaries) {
        const auto it = summary.layers.find(layer);
        busy.push_back(it == summary.layers.end() ? 0.0 : it->second.busy_s);
        self.push_back(it == summary.layers.end() ? 0.0 : it->second.self_s);
      }
      metrics.push_back({std::string(layer) + ".busy_s", Median(busy), "s"});
      metrics.push_back({std::string(layer) + ".self_s", Median(self), "s"});
    }
    std::vector<double> unattributed, window;
    for (const Ledger::Summary& summary : summaries) {
      unattributed.push_back(summary.unattributed_s);
      window.push_back(summary.window_s);
      // The ledger must account for every nanosecond of the traced window.
      double sum = summary.unattributed_s;
      for (const auto& [name, time] : summary.layers) sum += time.self_s;
      if (std::fabs(sum - summary.window_s) > 1e-6) {
        ++failed;
        failures.push_back("layer self times + unattributed != window");
      }
      ++attempted;
    }
    metrics.push_back({"unattributed_s", Median(unattributed), "s"});
    metrics.push_back({"traced_cpu_s", Median(window), "s"});
    const double plain_mpps = pooled_mpps(plain, &IterationSample::pipeline_s);
    const double traced_mpps =
        pooled_mpps(traced, &IterationSample::pipeline_s);
    metrics.push_back({"tracing_overhead",
                       plain_mpps > 0.0 ? 1.0 - traced_mpps / plain_mpps : 0.0,
                       "ratio"});

    // The span file must pass the repository's own trace validator.
    ++attempted;
    std::string error;
    size_t events = 0;
    if (!smb::trace::ValidateChromeTrace(chrome_trace, &error, &events)) {
      ++failed;
      failures.push_back("span file invalid: " + error);
    } else {
      std::ofstream out(trace_out, std::ios::trunc);
      out << chrome_trace;
      if (!out) {
        ++failed;
        failures.push_back("cannot write " + trace_out.string());
      }
    }
  }

  // Context line: environment, inputs and sample counts.
  smb::JsonWriter context;
  context.BeginObject();
  context.Key("perfbench");
  context.BeginObject();
  context.Key("workload");
  context.String(args.workload);
  context.Key("trace");
  context.Bool(args.trace);
  context.Key("environment");
  smb::bench::WriteEnvironmentJson(&context);
  context.Key("llc_bytes");
  context.Int(::sysconf(_SC_LEVEL3_CACHE_SIZE));
  context.Key("inputs");
  context.BeginObject();
  workload->StampInputs(&context);
  context.EndObject();
  context.Key("samples");
  context.BeginObject();
  context.Key("untraced_passes");
  context.Uint(plain.size());
  context.Key("traced_passes");
  context.Uint(traced.size());
  context.Key("setup_samples");
  context.Uint(setup_s.size());
  context.Key("setup_s_p10_p50_p90");
  context.BeginArray();
  for (const double q : {0.1, 0.5, 0.9}) {
    context.Double(smb::Percentile(setup_s, q), 9);
  }
  context.EndArray();
  context.Key("point_queries");
  context.Uint(queries);
  context.Key("topk_answers");
  context.Uint(topk);
  context.Key("lag_samples");
  context.Uint(lags);
  context.Key("pipeline_mpps_per_pass");
  context.BeginArray();
  for (const IterationSample& s : plain) {
    context.Double(mpps(static_cast<double>(s.packets), s.pipeline_s), 4);
  }
  context.EndArray();
  // Pipeline CPU time over its wall time, per pass: below 1 by the time
  // the host ran something else on this thread's CPU (and, on the single
  // recorders, the checkpoint's fsync wait).
  context.Key("pipeline_cpu_over_wall_per_pass");
  context.BeginArray();
  for (const IterationSample& s : plain) {
    context.Double(s.pipeline_wall_s > 0.0 ? s.pipeline_s / s.pipeline_wall_s
                                           : 0.0,
                   4);
  }
  context.EndArray();
  context.Key("prepare_s");
  context.Double(prepare_s, 3);
  context.Key("measured_s");
  context.Double(measured_s, 3);
  context.Key("host_probe_cpu_ms_before_after");
  context.BeginArray();
  context.Double(probe_before_ms, 1);
  context.Double(probe_after_ms, 1);
  context.EndArray();
  context.EndObject();
  if (args.trace) {
    context.Key("span_file");
    context.String(trace_out.string());
  }
  context.Key("failures");
  context.BeginArray();
  for (const std::string& failure : failures) context.String(failure);
  context.EndArray();
  context.EndObject();
  context.EndObject();
  std::printf("%s\n", context.str().c_str());

  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);

  fs::current_path(home);
  fs::remove_all(args.work_dir);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
