// trace_gen — emits a synthetic CAIDA-shaped packet trace as
// `flow,element` CSV on stdout (the format `smbcard --per-flow` and
// stream/trace_io.h's importer read).
//
// Usage:
//   trace_gen [--flows N] [--max-cardinality N] [--min-cardinality N]
//             [--zipf S] [--dup F] [--seed S] [--no-shuffle] [--truth FILE]
//
//   --flows N            distinct flows (default 1000)
//   --max-cardinality N  per-flow spread cap (default 5000)
//   --min-cardinality N  per-flow spread floor (default 1)
//   --zipf S             Zipf exponent of the per-flow cardinality
//                        distribution (default 1.5; 1.0 matches the
//                        heavy-tailed traces the eviction benchmarks use)
//   --dup F              average repetitions per distinct element
//                        (default 2.0)
//   --seed S             generator seed (default 42)
//   --no-shuffle         keep packets grouped by flow instead of globally
//                        interleaved
//   --truth FILE         also write `flow,true_cardinality` CSV to FILE
//
// Example — top-10 spreads of a 10k-flow trace:
//   trace_gen --flows 10000 | smbcard --per-flow --top 10

#include <cstdio>
#include <cstdlib>
#include <string>

#include "numeric_flags.h"
#include "stream/trace_gen.h"

namespace {

void PrintUsageAndExit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--flows N] [--max-cardinality N] "
               "[--min-cardinality N] [--zipf S]\n"
               "                 [--dup F] [--seed S] [--no-shuffle] "
               "[--truth FILE]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  smb::TraceConfig config;
  config.num_flows = 1000;
  config.max_cardinality = 5000;
  std::string truth_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) PrintUsageAndExit(argv[0]);
      return argv[++i];
    };
    // Numeric values parse strictly (numeric_flags.h).
    auto next_number = [&](auto* out) {
      const char* text = next_value();
      if (!smb::tools::ParseNumberFlag(text, out)) {
        std::fprintf(stderr, "bad %s '%s'\n", arg.c_str(), text);
        PrintUsageAndExit(argv[0]);
      }
    };
    if (arg == "--flows") {
      next_number(&config.num_flows);
    } else if (arg == "--max-cardinality") {
      next_number(&config.max_cardinality);
    } else if (arg == "--min-cardinality") {
      next_number(&config.min_cardinality);
    } else if (arg == "--zipf") {
      next_number(&config.cardinality_exponent);
    } else if (arg == "--dup") {
      next_number(&config.dup_factor);
    } else if (arg == "--seed") {
      next_number(&config.seed);
    } else if (arg == "--no-shuffle") {
      config.shuffle = false;
    } else if (arg == "--truth") {
      truth_path = next_value();
    } else {
      if (arg != "--help" && arg != "-h") {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      }
      PrintUsageAndExit(argv[0]);
    }
  }
  if (config.num_flows == 0 ||
      config.min_cardinality > config.max_cardinality ||
      config.cardinality_exponent <= 0.0) {
    std::fprintf(stderr, "invalid trace configuration\n");
    return 2;
  }

  const smb::Trace trace = smb::GenerateTrace(config);
  for (const smb::Packet& p : trace.packets) {
    std::printf("%llu,%llu\n", static_cast<unsigned long long>(p.flow),
                static_cast<unsigned long long>(p.element));
  }
  if (!truth_path.empty()) {
    std::FILE* f = std::fopen(truth_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", truth_path.c_str());
      return 1;
    }
    for (size_t flow = 0; flow < trace.num_flows(); ++flow) {
      std::fprintf(f, "%zu,%llu\n", flow,
                   static_cast<unsigned long long>(
                       trace.true_cardinality[flow]));
    }
    std::fclose(f);
  }
  return 0;
}
