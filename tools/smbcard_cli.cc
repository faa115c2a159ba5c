// smbcard — command-line cardinality estimation over newline-delimited
// items (a sketch-backed `sort -u | wc -l`).
//
// Usage:
//   smbcard [--algo NAME] [--memory BITS] [--design N] [--seed S]
//           [--all] [--save FILE] [--load FILE]
//           [--threads N] [--shards K] [--overload-policy NAME]
//           [--checkpoint-dir DIR] [--checkpoint-interval SECONDS]
//           [--metrics-out FILE] [--metrics-interval SECONDS] [FILE...]
//
//   --algo NAME    estimator: SMB (default), MRB, FM, LogLog, SuperLogLog,
//                  HLL, HLL++, HLL-TailC, HLL-TailC+, KMV, Bitmap,
//                  AdaptiveBitmap
//   --memory BITS  memory budget per estimator in bits (default 10000)
//   --design N     largest cardinality the estimator is sized for
//                  (default 1000000)
//   --seed S       hash seed (default 0)
//   --all          run every algorithm and print a comparison table
//   --save FILE    (SMB only) serialize the estimator state after reading
//   --load FILE    (SMB only) resume from a previously saved state
//   --threads N    record through N producer threads (implies --shards 8
//                  unless given); the memory budget is split across shards
//   --shards K     partition the estimator into K shards (implies
//                  --threads 1 unless given)
//   --metrics-out FILE
//                  write a telemetry snapshot to FILE when done (and
//                  periodically with --metrics-interval). `.json` files
//                  get JSON, everything else Prometheus text. In
//                  SMB_TELEMETRY=OFF builds the snapshot is empty.
//   --metrics-interval SECONDS
//                  also rewrite --metrics-out every SECONDS seconds while
//                  recording (a poor man's scrape endpoint: point the
//                  scraper at the file)
//   --flight-recorder FILE
//                  write the black-box flight recorder (trace/) to FILE at
//                  exit, and install a crash handler that writes the same
//                  dump if the process dies on a fatal signal first
//   --overload-policy NAME
//                  (with --threads/--shards) what producers do when a
//                  shard ring stays full: block (default, lossless),
//                  drop (shed load, count every lost item), degrade
//                  (geometric pre-thinning — see DESIGN.md §11)
//   --checkpoint-dir DIR
//                  crash-safe checkpointing: resume from the newest valid
//                  checkpoint in DIR at startup, write a final checkpoint
//                  when done. Needs a serializable estimator (SMB, HLL++).
//   --checkpoint-interval SECONDS
//                  also checkpoint every SECONDS seconds while recording
//   --per-flow     input lines are `flow,element` pairs (decimal or
//                  0x-hex, `#` comments and blank lines skipped — the
//                  trace_gen tool emits this format); tracks one
//                  estimator per flow and prints the top spreads as
//                  `flow<TAB>estimate` lines. --memory/--design size each
//                  per-flow estimator. SMB specs run on the arena engine.
//   --top K        (with --per-flow) flows printed (default 10)
//   --memory-budget BYTES
//                  (with --per-flow, SMB/arena only) hard ceiling on live
//                  per-flow state; crossing it evicts cold flows. Accepts
//                  K/M/G suffixes (binary). 0 = unlimited (default).
//   --eviction off|clock|2q
//                  (with --memory-budget) reclamation policy: CLOCK
//                  second-chance over all flows (default), 2q drains the
//                  nursery first, off disables eviction (budget ignored)
//   --hugepages    (with --per-flow) back the flow slabs with hugepages
//                  when the kernel offers them (MAP_HUGETLB, else
//                  transparent hugepages); silently falls back
//   --numa         (with --per-flow) NUMA-aware placement: bind slab
//                  chunks and (in sharded runs) consumer threads to
//                  nodes; no-op on single-node machines
//   --listen SOCK  parent mode (DESIGN.md §16): bind a Unix-domain
//                  socket, accept child sessions, merge their deltas
//                  and print the merged top spreads when every expected
//                  child has drained and disconnected. --memory/
//                  --design/--seed fix the geometry every child must
//                  match; --checkpoint-dir makes acks durable (a parent
//                  restart loses nothing it ever acked).
//   --expect-children N
//                  (with --listen) children to wait for (default 1)
//   --listen-timeout SECONDS
//                  (with --listen) give up after SECONDS (0 = forever,
//                  the default); timing out exits 1
//   --replicate-to SOCK
//                  (with --per-flow, SMB/arena only) child mode: stream
//                  snapshot deltas of recorded flows to the parent at
//                  SOCK, spooling to --spool-dir while the parent is
//                  away. Exits 0 once every delta is acked, 3 when the
//                  drain timeout expires with deltas still spooled
//                  (they are on disk; a rerun with the same --spool-dir
//                  retransmits them).
//   --child-id N   (with --replicate-to) this child's stable identity
//   --spool-dir DIR
//                  (with --replicate-to) on-disk retransmit buffer
//   --spool-budget BYTES
//                  (with --replicate-to) spool ceiling (K/M/G suffixes;
//                  0 = unlimited). When full, --shed-policy decides.
//   --shed-policy retry|drop
//                  (with --spool-budget) retry (default) defers the cut
//                  and keeps dirty flows in memory; drop sheds the
//                  delta and counts the loss
//   --delta-every LINES
//                  (with --replicate-to) cut a delta every LINES input
//                  lines (default 4096; a final delta always flushes
//                  the remainder)
//   --drain-timeout SECONDS
//                  (with --replicate-to) how long to wait at EOF for
//                  the parent to ack everything (default 30, 0 = don't
//                  wait)
//   --codec smbz1|off
//                  SMBZ1 sketch compression (DESIGN.md §17; default
//                  smbz1): checkpoints store compressed when the
//                  payload is an FLW1 image, children spool and ship
//                  compressed deltas, parents accept and write
//                  compressed. `off` forces raw payloads and the
//                  legacy hello everywhere. Either setting reads both
//                  framings, so mixed fleets and old checkpoints keep
//                  working.
//   FILE...        input files; stdin when none given
//
// Examples:
//   cat access.log | awk '{print $1}' | smbcard
//   smbcard --algo HLL++ --memory 5000 urls.txt
//   smbcard --save day1.smb < day1.txt
//   smbcard --load day1.smb < day2.txt   # cardinality of day1 ∪ day2

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <utility>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "codec/smbz1.h"
#include "common/table_printer.h"
#include "core/self_morphing_bitmap.h"
#include "estimators/estimator_factory.h"
#include "hash/murmur3.h"
#include "io/checkpoint_store.h"
#include "numeric_flags.h"
#include "parallel/shard_pipeline.h"
#include "parallel/sharded_estimator.h"
#include "repl/child_replicator.h"
#include "repl/replication_sink.h"
#include "sketch/per_flow_monitor.h"
#include "stream/trace_gen.h"
#include "telemetry/exporter.h"
#include "telemetry/metrics_registry.h"
#include "trace/flight_recorder.h"
#include "trace/health_probe.h"

namespace {

struct CliOptions {
  std::string algo = "SMB";
  size_t memory_bits = 10000;
  uint64_t design_cardinality = 1000000;
  uint64_t seed = 0;
  bool all = false;
  std::string save_path;
  std::string load_path;
  size_t threads = 0;  // 0 = sequential mode
  size_t shards = 0;   // 0 = unsharded
  std::string metrics_out;
  uint64_t metrics_interval_s = 0;  // 0 = final snapshot only
  std::string flight_recorder_out;
  std::string checkpoint_dir;
  uint64_t checkpoint_interval_s = 0;  // 0 = final checkpoint only
  smb::OverloadPolicy overload_policy = smb::OverloadPolicy::kBlock;
  bool overload_policy_set = false;
  bool per_flow = false;
  size_t top_k = 10;
  bool top_k_set = false;
  size_t memory_budget_bytes = 0;
  smb::ArenaEviction eviction = smb::ArenaEviction::kClock;
  bool eviction_set = false;
  bool hugepages = false;
  bool numa = false;
  // Parent mode (--listen).
  std::string listen_path;
  size_t expect_children = 1;
  bool expect_children_set = false;
  uint64_t listen_timeout_s = 0;  // 0 = wait forever
  bool listen_timeout_set = false;
  // Child mode (--replicate-to, rides --per-flow).
  std::string replicate_to;
  uint64_t child_id = 0;
  bool child_id_set = false;
  std::string spool_dir;
  size_t spool_budget_bytes = 0;
  bool spool_budget_set = false;
  smb::repl::SpoolShedPolicy shed_policy =
      smb::repl::SpoolShedPolicy::kRetry;
  bool shed_policy_set = false;
  uint64_t delta_every_lines = 4096;
  bool delta_every_set = false;
  uint64_t drain_timeout_s = 30;
  bool drain_timeout_set = false;
  // SMBZ1 compression for checkpoints and replication (--codec).
  bool codec_smbz1 = true;
  std::vector<std::string> inputs;
};

void PrintUsageAndExit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--algo NAME] [--memory BITS] [--design N] "
               "[--seed S] [--all]\n               [--save FILE] "
               "[--load FILE] [--threads N] [--shards K]\n"
               "               [--overload-policy block|drop|degrade]\n"
               "               [--checkpoint-dir DIR] "
               "[--checkpoint-interval SECONDS]\n"
               "               [--metrics-out FILE] "
               "[--metrics-interval SECONDS]\n"
               "               [--flight-recorder FILE]\n"
               "               [--per-flow [--top K] [--memory-budget BYTES]"
               "\n               [--eviction off|clock|2q] [--hugepages] "
               "[--numa]]\n"
               "               [--listen SOCK [--expect-children N] "
               "[--listen-timeout SECONDS]]\n"
               "               [--replicate-to SOCK --child-id N "
               "--spool-dir DIR\n"
               "               [--spool-budget BYTES] "
               "[--shed-policy retry|drop]\n"
               "               [--delta-every LINES] "
               "[--drain-timeout SECONDS]]\n"
               "               [--codec smbz1|off] [FILE...]\n",
               argv0);
  std::exit(2);
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) PrintUsageAndExit(argv[0]);
      return argv[++i];
    };
    // Numeric values parse strictly (tools/numeric_flags.h); anything
    // else is a usage error.
    auto next_number = [&](auto* out) {
      const char* text = next_value();
      if (!smb::tools::ParseNumberFlag(text, out)) {
        std::fprintf(stderr, "bad %s '%s'\n", arg.c_str(), text);
        PrintUsageAndExit(argv[0]);
      }
    };
    auto next_byte_size = [&](size_t* out) {
      const char* text = next_value();
      if (!smb::tools::ParseByteSize(text, out)) {
        std::fprintf(stderr, "bad %s '%s'\n", arg.c_str(), text);
        PrintUsageAndExit(argv[0]);
      }
    };
    if (arg == "--algo") {
      options.algo = next_value();
    } else if (arg == "--memory") {
      next_number(&options.memory_bits);
    } else if (arg == "--design") {
      next_number(&options.design_cardinality);
    } else if (arg == "--seed") {
      next_number(&options.seed);
    } else if (arg == "--all") {
      options.all = true;
    } else if (arg == "--save") {
      options.save_path = next_value();
    } else if (arg == "--load") {
      options.load_path = next_value();
    } else if (arg == "--threads") {
      next_number(&options.threads);
    } else if (arg == "--shards") {
      next_number(&options.shards);
    } else if (arg == "--metrics-out") {
      options.metrics_out = next_value();
    } else if (arg == "--metrics-interval") {
      next_number(&options.metrics_interval_s);
    } else if (arg == "--flight-recorder") {
      options.flight_recorder_out = next_value();
    } else if (arg == "--checkpoint-dir") {
      options.checkpoint_dir = next_value();
    } else if (arg == "--checkpoint-interval") {
      next_number(&options.checkpoint_interval_s);
    } else if (arg == "--per-flow") {
      options.per_flow = true;
    } else if (arg == "--top") {
      next_number(&options.top_k);
      options.top_k_set = true;
    } else if (arg == "--memory-budget") {
      next_byte_size(&options.memory_budget_bytes);
    } else if (arg == "--eviction") {
      const std::string name = next_value();
      options.eviction_set = true;
      if (name == "off") {
        options.eviction = smb::ArenaEviction::kOff;
      } else if (name == "clock") {
        options.eviction = smb::ArenaEviction::kClock;
      } else if (name == "2q") {
        options.eviction = smb::ArenaEviction::k2Q;
      } else {
        std::fprintf(stderr, "unknown eviction policy '%s'\n", name.c_str());
        PrintUsageAndExit(argv[0]);
      }
    } else if (arg == "--hugepages") {
      options.hugepages = true;
    } else if (arg == "--numa") {
      options.numa = true;
    } else if (arg == "--listen") {
      options.listen_path = next_value();
    } else if (arg == "--expect-children") {
      next_number(&options.expect_children);
      options.expect_children_set = true;
    } else if (arg == "--listen-timeout") {
      next_number(&options.listen_timeout_s);
      options.listen_timeout_set = true;
    } else if (arg == "--replicate-to") {
      options.replicate_to = next_value();
    } else if (arg == "--child-id") {
      next_number(&options.child_id);
      options.child_id_set = true;
    } else if (arg == "--spool-dir") {
      options.spool_dir = next_value();
    } else if (arg == "--spool-budget") {
      options.spool_budget_set = true;
      next_byte_size(&options.spool_budget_bytes);
    } else if (arg == "--shed-policy") {
      const std::string name = next_value();
      options.shed_policy_set = true;
      if (name == "retry") {
        options.shed_policy = smb::repl::SpoolShedPolicy::kRetry;
      } else if (name == "drop") {
        options.shed_policy = smb::repl::SpoolShedPolicy::kDropNew;
      } else {
        std::fprintf(stderr, "unknown shed policy '%s'\n", name.c_str());
        PrintUsageAndExit(argv[0]);
      }
    } else if (arg == "--delta-every") {
      next_number(&options.delta_every_lines);
      options.delta_every_set = true;
      if (options.delta_every_lines == 0) {
        std::fprintf(stderr, "--delta-every wants a positive line count\n");
        PrintUsageAndExit(argv[0]);
      }
    } else if (arg == "--drain-timeout") {
      next_number(&options.drain_timeout_s);
      options.drain_timeout_set = true;
    } else if (arg == "--codec") {
      const std::string name = next_value();
      if (name == "smbz1") {
        options.codec_smbz1 = true;
      } else if (name == "off") {
        options.codec_smbz1 = false;
      } else {
        std::fprintf(stderr, "unknown codec '%s'\n", name.c_str());
        PrintUsageAndExit(argv[0]);
      }
    } else if (arg == "--overload-policy") {
      const std::string name = next_value();
      options.overload_policy_set = true;
      if (name == "block") {
        options.overload_policy = smb::OverloadPolicy::kBlock;
      } else if (name == "drop") {
        options.overload_policy = smb::OverloadPolicy::kDropWithCount;
      } else if (name == "degrade") {
        options.overload_policy = smb::OverloadPolicy::kDegradeToSample;
      } else {
        std::fprintf(stderr, "unknown overload policy '%s'\n", name.c_str());
        PrintUsageAndExit(argv[0]);
      }
    } else if (arg == "--help" || arg == "-h") {
      PrintUsageAndExit(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      PrintUsageAndExit(argv[0]);
    } else {
      options.inputs.push_back(arg);
    }
  }
  return options;
}

// Serializes the global registry into `path`; format picked by extension
// (`.json` => JSON, anything else => Prometheus text). Returns false when
// the file cannot be (fully) written.
bool WriteMetricsSnapshot(const std::string& path) {
  const smb::telemetry::MetricsSnapshot snapshot =
      smb::telemetry::MetricsRegistry::Global().Snapshot();
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string text = json ? smb::telemetry::ToJson(snapshot)
                                : smb::telemetry::ToPrometheusText(snapshot);
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  file << text;
  file.flush();
  return file.good();
}

// Rewrites --metrics-out every interval while recording runs. Final
// snapshots are main()'s job; this only covers the in-flight window.
class PeriodicMetricsWriter {
 public:
  PeriodicMetricsWriter(std::string path, uint64_t interval_s)
      : path_(std::move(path)) {
    if (interval_s == 0) return;
    thread_ = std::thread([this, interval_s] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_requested_) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(interval_s);
        if (cv_.wait_until(lock, deadline,
                           [this] { return stop_requested_; })) {
          break;
        }
        WriteMetricsSnapshot(path_);  // best effort; final write reports
      }
    });
  }

  ~PeriodicMetricsWriter() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_requested_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::string path_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

// The SMBZ1 hooks for a CheckpointStore. Non-FLW1 payloads (core SMB
// snapshots, sharded-estimator images) fall through encode to raw
// storage, so wiring the codec is safe for every estimator.
smb::io::CheckpointStore::ContentCodec Smbz1ContentCodec() {
  smb::io::CheckpointStore::ContentCodec codec;
  codec.name = "SMBZ1";
  codec.encode = [](std::span<const uint8_t> payload) {
    return smb::codec::CompressFlw1Image(payload);
  };
  codec.recognize = smb::codec::IsSmbz1Image;
  codec.decode = [](std::span<const uint8_t> stored) {
    return smb::codec::DecompressToFlw1Image(stored);
  };
  return codec;
}

// One checkpoint write. A periodic failure is a warning (the run keeps
// its in-memory state); the final write's result decides the exit code.
bool WriteCheckpoint(smb::io::CheckpointStore* store,
                     const std::vector<uint8_t>& payload) {
  const auto result = store->Write(payload);
  if (!result.ok) {
    std::fprintf(stderr, "checkpoint write failed: %s\n",
                 result.error.c_str());
  }
  return result.ok;
}

// Feeds every line of `in` to `feed`; returns line count.
template <typename Feed>
uint64_t FeedLines(std::istream& in, Feed feed) {
  uint64_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    feed(line);
    ++lines;
  }
  return lines;
}

template <typename Feed>
uint64_t FeedAllInputs(const CliOptions& options, Feed feed) {
  if (options.inputs.empty()) {
    return FeedLines(std::cin, feed);
  }
  uint64_t total = 0;
  for (const std::string& path : options.inputs) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      std::exit(1);
    }
    total += FeedLines(file, feed);
  }
  return total;
}

int RunAll(const CliOptions& options) {
  std::vector<std::unique_ptr<smb::CardinalityEstimator>> estimators;
  for (smb::EstimatorKind kind : smb::AllEstimatorKinds()) {
    smb::EstimatorSpec spec;
    spec.kind = kind;
    spec.memory_bits = options.memory_bits;
    spec.design_cardinality = options.design_cardinality;
    spec.hash_seed = options.seed;
    estimators.push_back(smb::CreateEstimator(spec));
  }
  const uint64_t lines = FeedAllInputs(options, [&](const std::string& s) {
    for (auto& estimator : estimators) estimator->AddBytes(s);
  });
  smb::TablePrinter table("distinct-item estimates over " +
                          std::to_string(lines) + " input lines");
  table.SetHeader({"algorithm", "estimate", "memory bits"});
  for (const auto& estimator : estimators) {
    table.AddRow({std::string(estimator->Name()),
                  smb::TablePrinter::Fmt(estimator->Estimate(), 0),
                  smb::TablePrinter::FmtInt(
                      static_cast<long long>(estimator->MemoryBits()))});
  }
  table.Print();
  return 0;
}

// --threads/--shards: partition the memory budget across K shard
// estimators and drive them through the concurrent recording pipeline.
// Lines are keyed by their 64-bit Murmur3 hash, so the stream's distinct
// line count is preserved; the estimate may differ slightly from the
// sequential byte-fed path, which hashes lines with a different function.
int RunParallel(const CliOptions& options) {
  const size_t shards = options.shards > 0 ? options.shards : 8;
  const size_t threads = options.threads > 0 ? options.threads : 1;
  const auto kind = smb::EstimatorKindFromName(options.algo);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", options.algo.c_str());
    return 2;
  }
  // The factory requires >= 128 bits per estimator; turn that contract
  // into a usage error instead of an SMB_CHECK abort.
  if (options.memory_bits / shards < 128) {
    std::fprintf(stderr,
                 "--memory %zu split across %zu shards leaves %zu bits per "
                 "shard; estimators need at least 128\n",
                 options.memory_bits, shards, options.memory_bits / shards);
    return 2;
  }
  smb::ShardedEstimator::Config config;
  config.shard_spec.kind = *kind;
  config.shard_spec.memory_bits = options.memory_bits / shards;
  config.shard_spec.design_cardinality =
      options.design_cardinality / shards > 0
          ? options.design_cardinality / shards
          : 1;
  config.shard_spec.hash_seed = options.seed;
  config.num_shards = shards;
  config.shard_seed = options.seed;
  std::optional<smb::ShardedEstimator> estimator;
  estimator.emplace(config);

  std::unique_ptr<smb::io::CheckpointStore> store;
  if (!options.checkpoint_dir.empty()) {
    if (!smb::KindSupportsSerialization(*kind)) {
      std::fprintf(stderr,
                   "--checkpoint-dir needs a serializable estimator "
                   "(SMB, HLL++); %s has no snapshot format\n",
                   options.algo.c_str());
      return 2;
    }
    smb::io::CheckpointStore::Options store_options;
    store_options.directory = options.checkpoint_dir;
    if (options.codec_smbz1) store_options.codec = Smbz1ContentCodec();
    store = std::make_unique<smb::io::CheckpointStore>(store_options);
    auto recovered = store->RecoverLatest();
    for (const std::string& skipped : recovered.skipped) {
      std::fprintf(stderr, "checkpoint skipped: %s\n", skipped.c_str());
    }
    if (recovered.ok) {
      auto resumed = smb::ShardedEstimator::Deserialize(recovered.payload);
      if (resumed.has_value() &&
          resumed->config().num_shards == config.num_shards &&
          resumed->config().shard_spec.kind == config.shard_spec.kind) {
        estimator.emplace(std::move(*resumed));
        std::fprintf(stderr, "resumed from checkpoint generation %llu\n",
                     static_cast<unsigned long long>(recovered.generation));
      } else {
        std::fprintf(stderr,
                     "checkpoint generation %llu does not match this "
                     "configuration; starting fresh\n",
                     static_cast<unsigned long long>(recovered.generation));
      }
    }
  }

  std::vector<uint64_t> keys;
  FeedAllInputs(options, [&](const std::string& s) {
    keys.push_back(smb::Murmur3_64(s));
  });
  smb::ShardPipelineOptions pipeline_options;
  pipeline_options.num_producers = threads;
  pipeline_options.overload_policy = options.overload_policy;
  smb::ShardPipeline<smb::ShardedEstimator> pipeline(&*estimator,
                                                     pipeline_options);

  // Periodic checkpoints happen between record slices — the pipeline owns
  // the estimator while a slice runs, so the slice size bounds how stale a
  // checkpoint can get.
  constexpr size_t kSliceItems = size_t{1} << 16;
  const bool sliced = store != nullptr && options.checkpoint_interval_s > 0;
  auto last_checkpoint = std::chrono::steady_clock::now();
  smb::ShardPipelineStats stats;
  size_t offset = 0;
  while (offset < keys.size()) {
    const size_t len =
        sliced ? std::min(kSliceItems, keys.size() - offset)
               : keys.size() - offset;
    stats += pipeline.Record(
        std::span<const uint64_t>(keys.data() + offset, len));
    offset += len;
    if (sliced) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_checkpoint >=
          std::chrono::seconds(options.checkpoint_interval_s)) {
        if (const auto payload = estimator->Serialize()) {
          WriteCheckpoint(store.get(), *payload);
        }
        last_checkpoint = now;
      }
    }
  }
  if (stats.items_dropped > 0) {
    std::fprintf(stderr,
                 "overload: dropped %llu of %zu items "
                 "(%llu degrade events); the estimate undercounts\n",
                 static_cast<unsigned long long>(stats.items_dropped),
                 keys.size(),
                 static_cast<unsigned long long>(stats.degrade_events));
  }

  bool checkpoint_ok = true;
  if (store != nullptr) {
    const auto payload = estimator->Serialize();
    checkpoint_ok =
        payload.has_value() && WriteCheckpoint(store.get(), *payload);
  }
  std::printf("%.0f\n", estimator->Estimate());
  return checkpoint_ok ? 0 : 1;
}

// Monotonic millisecond clock for the replication state machines (the
// epoch is arbitrary; only differences matter).
uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Prints the top-K spreads of `engine` as `flow<TAB>estimate` lines —
// the same output grammar as --per-flow, so parent-mode output pipes
// into the same downstream tooling.
void PrintTopSpreads(const smb::ArenaSmbEngine& engine, size_t top_k) {
  std::vector<std::pair<uint64_t, double>> spreads;
  engine.ForEachFlowState([&](uint64_t flow, uint32_t, uint32_t,
                              std::span<const uint64_t>) {
    spreads.emplace_back(flow, 0.0);
  });
  for (auto& [flow, estimate] : spreads) estimate = engine.Query(flow);
  const size_t k = std::min(top_k, spreads.size());
  std::partial_sort(spreads.begin(),
                    spreads.begin() + static_cast<std::ptrdiff_t>(k),
                    spreads.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  for (size_t i = 0; i < k; ++i) {
    std::printf("%llu\t%.0f\n",
                static_cast<unsigned long long>(spreads[i].first),
                spreads[i].second);
  }
}

// --listen: parent mode (DESIGN.md §16). Pumps the replication sink
// until every expected child has connected, drained (acked == applied)
// and said goodbye, then prints the merged top spreads. A child only
// sends its goodbye after its spool drained, so "all disconnected with
// nothing unacked" is the quiesced state.
int RunListen(const CliOptions& options) {
  if (options.algo != "SMB") {
    std::fprintf(stderr, "--listen merges SMB arena state only\n");
    return 2;
  }
  smb::EstimatorSpec spec;
  spec.kind = smb::EstimatorKind::kSmb;
  spec.memory_bits = options.memory_bits;
  spec.design_cardinality = options.design_cardinality;
  spec.hash_seed = options.seed;
  const auto config = smb::ArenaSmbEngine::ConfigForSpec(spec);
  if (!config.has_value()) {
    std::fprintf(stderr,
                 "--memory %zu --design %llu is not an arena-capable SMB "
                 "geometry\n",
                 options.memory_bits,
                 static_cast<unsigned long long>(
                     options.design_cardinality));
    return 2;
  }
  smb::repl::ReplicationSink::Options sink_options;
  sink_options.socket_path = options.listen_path;
  sink_options.engine_config = *config;
  sink_options.checkpoint_dir = options.checkpoint_dir;
  if (!options.codec_smbz1) {
    sink_options.codec_mask = 0;
    sink_options.compress_checkpoints = false;
  }
  smb::repl::ReplicationSink sink(sink_options);
  std::string error;
  if (!sink.Listen(&error)) {
    std::fprintf(stderr, "cannot listen on %s: %s\n",
                 options.listen_path.c_str(), error.c_str());
    return 1;
  }

  const uint64_t start_ms = NowMs();
  const uint64_t deadline_ms =
      options.listen_timeout_s > 0
          ? start_ms + options.listen_timeout_s * 1000
          : 0;
  bool timed_out = false;
  // Children that connected during THIS parent's lifetime. A restarted
  // parent recovers children from its checkpoint with nothing unacked —
  // it must still wait for them to come back (they may hold spooled
  // deltas), not mistake "recovered and quiet" for "drained".
  std::vector<uint64_t> greeted;
  while (true) {
    const uint64_t now_ms = NowMs();
    if (deadline_ms != 0 && now_ms >= deadline_ms) {
      timed_out = true;
      break;
    }
    sink.PollOnce(now_ms, /*timeout_ms=*/50);
    const auto children = sink.Children(NowMs());
    bool quiesced = true;
    for (const auto& child : children) {
      if (child.connected &&
          std::find(greeted.begin(), greeted.end(), child.child_id) ==
              greeted.end()) {
        greeted.push_back(child.child_id);
      }
      if (child.connected || child.acked_seq != child.applied_seq ||
          std::find(greeted.begin(), greeted.end(), child.child_id) ==
              greeted.end()) {
        quiesced = false;
      }
    }
    if (quiesced && greeted.size() >= options.expect_children) break;
  }

  PrintTopSpreads(sink.MergedEngine(), options.top_k);
  const auto& stats = sink.stats();
  std::fprintf(stderr,
               "%zu child(ren), %llu deltas applied, %llu duplicates "
               "dropped, %llu frames + %llu payloads + %llu hellos "
               "rejected, %llu checkpoints (%llu failed)%s\n",
               sink.NumChildren(),
               static_cast<unsigned long long>(stats.deltas_applied),
               static_cast<unsigned long long>(stats.dup_dropped),
               static_cast<unsigned long long>(stats.rejected_frames),
               static_cast<unsigned long long>(stats.rejected_payloads),
               static_cast<unsigned long long>(stats.rejected_hellos),
               static_cast<unsigned long long>(stats.checkpoints_written),
               static_cast<unsigned long long>(stats.checkpoint_failures),
               timed_out ? "; timed out waiting for children" : "");
  sink.Close();
  return timed_out ? 1 : 0;
}

// --per-flow: one estimator per flow over `flow,element` input lines,
// top spreads printed as `flow<TAB>estimate`. The same line grammar as
// stream/trace_io.h's CSV import, parsed here so the *original* flow
// keys survive to the output (the trace importer densifies them).
bool ParseU64Field(const std::string& text, uint64_t* out) {
  const size_t first = text.find_first_not_of(" \t\r");
  if (first == std::string::npos) return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtoull(text.c_str() + first, &end, 0);
  if (errno != 0 || end == text.c_str() + first) return false;
  while (*end == ' ' || *end == '\t' || *end == '\r') ++end;
  return *end == '\0';
}

int RunPerFlow(const CliOptions& options) {
  const auto kind = smb::EstimatorKindFromName(options.algo);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", options.algo.c_str());
    return 2;
  }
  smb::EstimatorSpec spec;
  spec.kind = *kind;
  spec.memory_bits = options.memory_bits;
  spec.design_cardinality = options.design_cardinality;
  spec.hash_seed = options.seed;
  smb::ArenaTuning tuning;
  tuning.memory_budget_bytes = options.memory_budget_bytes;
  tuning.eviction = options.eviction;
  tuning.try_hugepages = options.hugepages;
  tuning.numa_shards = options.numa;
  smb::PerFlowMonitor monitor(spec, smb::PerFlowMonitor::Engine::kAuto,
                              tuning);
  if ((options.memory_budget_bytes > 0 || options.hugepages ||
       options.numa) &&
      monitor.engine() != smb::PerFlowMonitor::Engine::kArena) {
    std::fprintf(stderr,
                 "--memory-budget/--hugepages/--numa need the arena engine "
                 "(an SMB spec with packed-metadata geometry)\n");
    return 2;
  }

  // Child mode: stream snapshot deltas of recorded flows to the parent
  // at --replicate-to, spooling to --spool-dir across parent outages.
  std::optional<smb::repl::ChildReplicator> replicator;
  if (!options.replicate_to.empty()) {
    if (monitor.arena_engine() == nullptr) {
      std::fprintf(stderr,
                   "--replicate-to needs the arena engine (an SMB spec "
                   "with packed-metadata geometry)\n");
      return 2;
    }
    smb::repl::ChildReplicator::Options repl_options;
    repl_options.socket_path = options.replicate_to;
    repl_options.child_id = options.child_id;
    repl_options.spool.directory = options.spool_dir;
    repl_options.spool.budget_bytes = options.spool_budget_bytes;
    repl_options.spool.sync = true;
    repl_options.shed_policy = options.shed_policy;
    repl_options.codec_mask =
        options.codec_smbz1 ? smb::repl::kCodecSmbz1 : 0;
    replicator.emplace(monitor.arena_engine(), repl_options);
  }
  bool repl_io_error = false;
  auto cut_delta = [&]() {
    std::string error;
    const auto status = replicator->CutDelta(&error);
    if (status == smb::repl::ChildReplicator::CutStatus::kError &&
        !repl_io_error) {
      repl_io_error = true;
      std::fprintf(stderr, "delta spool failed: %s\n", error.c_str());
    }
    return status;
  };

  // Batch packets so SMB specs go down the arena engine's keyed SIMD
  // pipeline instead of packet-at-a-time.
  std::vector<smb::Packet> pending;
  pending.reserve(4096);
  auto flush_pending = [&]() {
    if (pending.empty()) return;
    if (replicator.has_value()) {
      replicator->NoteRecordedBatch(pending.data(), pending.size());
    }
    monitor.RecordBatch(pending);
    pending.clear();
  };
  uint64_t line_number = 0;
  uint64_t lines_since_cut = 0;
  bool parse_failed = false;
  uint64_t failed_line = 0;
  FeedAllInputs(options, [&](const std::string& line) {
    ++line_number;
    if (parse_failed) return;
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') return;
    const size_t comma = line.find(',');
    uint64_t flow = 0;
    uint64_t element = 0;
    if (comma == std::string::npos ||
        !ParseU64Field(line.substr(0, comma), &flow) ||
        !ParseU64Field(line.substr(comma + 1), &element)) {
      parse_failed = true;
      failed_line = line_number;
      return;
    }
    pending.push_back(smb::Packet{flow, element});
    if (pending.size() == pending.capacity()) flush_pending();
    if (replicator.has_value() &&
        ++lines_since_cut >= options.delta_every_lines) {
      lines_since_cut = 0;
      flush_pending();
      cut_delta();  // kDeferred keeps the dirty set for a later cut
      replicator->Tick(NowMs());
    }
  });
  if (parse_failed) {
    std::fprintf(stderr,
                 "input line %llu is not a flow,element pair\n",
                 static_cast<unsigned long long>(failed_line));
    return 1;
  }
  flush_pending();

  // Cut the final delta and drive the replicator until the parent acked
  // everything (or the drain timeout expires — spooled deltas stay on
  // disk and a rerun over the same --spool-dir retransmits them).
  int repl_rc = 0;
  if (replicator.has_value()) {
    auto status = cut_delta();
    const uint64_t drain_deadline_ms =
        NowMs() + options.drain_timeout_s * 1000;
    while (NowMs() < drain_deadline_ms) {
      replicator->Tick(NowMs());
      if (status == smb::repl::ChildReplicator::CutStatus::kDeferred) {
        // kRetry shed policy: acks free spool budget, so keep retrying
        // the refused cut while draining.
        status = cut_delta();
      }
      if (replicator->Drained() && replicator->dirty_flows() == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    replicator->Shutdown();
    const bool drained =
        replicator->Drained() && replicator->dirty_flows() == 0;
    const auto repl_stats = replicator->stats();
    std::fprintf(
        stderr,
        "repl: %llu deltas cut, %llu delivered, %zu spooled, %llu shed, "
        "%llu deferred, %llu retransmits, acked through seq %llu%s\n",
        static_cast<unsigned long long>(repl_stats.deltas_cut),
        static_cast<unsigned long long>(repl_stats.deltas_delivered),
        repl_stats.spooled_deltas,
        static_cast<unsigned long long>(repl_stats.deltas_shed),
        static_cast<unsigned long long>(repl_stats.deltas_deferred),
        static_cast<unsigned long long>(repl_stats.retransmits),
        static_cast<unsigned long long>(replicator->acked_seq()),
        drained ? "" : "; undelivered deltas remain spooled");
    repl_rc = repl_io_error ? 1 : (drained ? 0 : 3);
  }

  // Per-flow health (saturation counts, top-K expected error) rides the
  // metrics snapshot when the arena engine is in use.
  if (const smb::ArenaSmbEngine* engine = monitor.arena_engine()) {
    smb::health::PublishArenaHealth(
        smb::health::ProbeArena(*engine, options.top_k));
  }

  std::vector<std::pair<uint64_t, double>> spreads;
  spreads.reserve(monitor.NumFlows());
  monitor.ForEachFlow([&](uint64_t flow, double estimate) {
    spreads.emplace_back(flow, estimate);
  });
  const size_t k = std::min(options.top_k, spreads.size());
  std::partial_sort(spreads.begin(),
                    spreads.begin() + static_cast<std::ptrdiff_t>(k),
                    spreads.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  for (size_t i = 0; i < k; ++i) {
    std::printf("%llu\t%.0f\n",
                static_cast<unsigned long long>(spreads[i].first),
                spreads[i].second);
  }
  if (const smb::ArenaSmbEngine* engine = monitor.arena_engine()) {
    const smb::ArenaSmbEngine::ArenaStats stats = engine->Stats();
    std::fprintf(stderr,
                 "%zu flows live (%zu nursery), %zu recorded, %zu evicted, "
                 "%zu promoted, %zu live bytes over %llu input lines\n",
                 stats.live_flows, stats.nursery_flows, stats.recorded_flows,
                 stats.evicted_flows, stats.promoted_flows, stats.live_bytes,
                 static_cast<unsigned long long>(line_number));
  } else {
    std::fprintf(stderr, "%zu flows over %llu input lines\n",
                 monitor.NumFlows(),
                 static_cast<unsigned long long>(line_number));
  }
  return repl_rc;
}

int RunSingle(const CliOptions& options) {
  const bool wants_state =
      !options.save_path.empty() || !options.load_path.empty();
  if (wants_state && options.algo != "SMB") {
    std::fprintf(stderr, "--save/--load support SMB only\n");
    return 2;
  }

  if (wants_state) {
    std::optional<smb::SelfMorphingBitmap> estimator;
    if (!options.load_path.empty()) {
      std::ifstream file(options.load_path, std::ios::binary);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n",
                     options.load_path.c_str());
        return 1;
      }
      std::vector<uint8_t> bytes(
          (std::istreambuf_iterator<char>(file)),
          std::istreambuf_iterator<char>());
      estimator = smb::SelfMorphingBitmap::Deserialize(bytes);
      if (!estimator.has_value()) {
        std::fprintf(stderr, "%s is not a valid SMB snapshot\n",
                     options.load_path.c_str());
        return 1;
      }
    } else {
      estimator = smb::SelfMorphingBitmap::WithOptimalThreshold(
          options.memory_bits, options.design_cardinality, options.seed);
    }
    FeedAllInputs(options, [&](const std::string& s) {
      estimator->AddBytes(s);
    });
    smb::health::PublishHealth(smb::health::ProbeSmb(*estimator));
    std::printf("%.0f\n", estimator->Estimate());
    if (!options.save_path.empty()) {
      const auto bytes = estimator->Serialize();
      std::ofstream file(options.save_path, std::ios::binary);
      if (!file) {
        std::fprintf(stderr, "cannot write %s\n",
                     options.save_path.c_str());
        return 1;
      }
      file.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    }
    return 0;
  }

  const auto kind = smb::EstimatorKindFromName(options.algo);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", options.algo.c_str());
    return 2;
  }
  smb::EstimatorSpec spec;
  spec.kind = *kind;
  spec.memory_bits = options.memory_bits;
  spec.design_cardinality = options.design_cardinality;
  spec.hash_seed = options.seed;
  auto estimator = smb::CreateEstimator(spec);

  std::unique_ptr<smb::io::CheckpointStore> store;
  if (!options.checkpoint_dir.empty()) {
    if (!smb::KindSupportsSerialization(*kind)) {
      std::fprintf(stderr,
                   "--checkpoint-dir needs a serializable estimator "
                   "(SMB, HLL++); %s has no snapshot format\n",
                   options.algo.c_str());
      return 2;
    }
    smb::io::CheckpointStore::Options store_options;
    store_options.directory = options.checkpoint_dir;
    if (options.codec_smbz1) store_options.codec = Smbz1ContentCodec();
    store = std::make_unique<smb::io::CheckpointStore>(store_options);
    auto recovered = store->RecoverLatest();
    for (const std::string& skipped : recovered.skipped) {
      std::fprintf(stderr, "checkpoint skipped: %s\n", skipped.c_str());
    }
    if (recovered.ok) {
      auto resumed = smb::DeserializeEstimator(*kind, recovered.payload);
      if (resumed != nullptr) {
        estimator = std::move(resumed);
        std::fprintf(stderr, "resumed from checkpoint generation %llu\n",
                     static_cast<unsigned long long>(recovered.generation));
      } else {
        std::fprintf(stderr,
                     "checkpoint generation %llu does not deserialize as "
                     "%s; starting fresh\n",
                     static_cast<unsigned long long>(recovered.generation),
                     options.algo.c_str());
      }
    }
  }

  // The interval check piggybacks on the feed loop: look at the clock
  // every 4096 lines so checkpointing costs nothing on the line path.
  auto last_checkpoint = std::chrono::steady_clock::now();
  uint64_t lines_since_check = 0;
  FeedAllInputs(options, [&](const std::string& s) {
    estimator->AddBytes(s);
    if (store != nullptr && options.checkpoint_interval_s > 0 &&
        (++lines_since_check & 0xFFF) == 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_checkpoint >=
          std::chrono::seconds(options.checkpoint_interval_s)) {
        if (const auto payload = smb::SerializeEstimator(*estimator)) {
          WriteCheckpoint(store.get(), *payload);
        }
        last_checkpoint = now;
      }
    }
  });

  bool checkpoint_ok = true;
  if (store != nullptr) {
    const auto payload = smb::SerializeEstimator(*estimator);
    checkpoint_ok =
        payload.has_value() && WriteCheckpoint(store.get(), *payload);
  }
  if (const auto* as_smb =
          dynamic_cast<const smb::SelfMorphingBitmap*>(estimator.get())) {
    smb::health::PublishHealth(smb::health::ProbeSmb(*as_smb));
  }
  std::printf("%.0f\n", estimator->Estimate());
  return checkpoint_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = ParseArgs(argc, argv);
  const bool parallel = options.threads > 0 || options.shards > 0;
  if (parallel &&
      (options.all || !options.save_path.empty() ||
       !options.load_path.empty())) {
    std::fprintf(stderr,
                 "--threads/--shards cannot be combined with --all, "
                 "--save, or --load\n");
    return 2;
  }
  if (options.metrics_interval_s > 0 && options.metrics_out.empty()) {
    std::fprintf(stderr, "--metrics-interval requires --metrics-out\n");
    return 2;
  }
  const bool listen = !options.listen_path.empty();
  const bool replicate = !options.replicate_to.empty();
  if (options.top_k_set && !options.per_flow && !listen) {
    std::fprintf(stderr, "--top requires --per-flow or --listen\n");
    return 2;
  }
  if (listen &&
      (options.per_flow || parallel || options.all || replicate ||
       !options.save_path.empty() || !options.load_path.empty())) {
    std::fprintf(stderr,
                 "--listen cannot be combined with --per-flow, --threads, "
                 "--shards, --all, --save, --load, or --replicate-to\n");
    return 2;
  }
  if ((options.expect_children_set || options.listen_timeout_set) &&
      !listen) {
    std::fprintf(stderr,
                 "--expect-children/--listen-timeout require --listen\n");
    return 2;
  }
  if (listen && options.expect_children == 0) {
    std::fprintf(stderr, "--expect-children wants at least 1\n");
    return 2;
  }
  if (replicate && !options.per_flow) {
    std::fprintf(stderr, "--replicate-to requires --per-flow\n");
    return 2;
  }
  if (replicate && (!options.child_id_set || options.spool_dir.empty())) {
    std::fprintf(stderr,
                 "--replicate-to needs --child-id and --spool-dir\n");
    return 2;
  }
  if (replicate && options.memory_budget_bytes > 0) {
    // SerializeFlows skips evicted flows, so an evicting child would
    // silently replicate partial state.
    std::fprintf(stderr,
                 "--replicate-to cannot be combined with --memory-budget "
                 "(evicted flows would be missing from deltas)\n");
    return 2;
  }
  if (!replicate &&
      (options.child_id_set || !options.spool_dir.empty() ||
       options.spool_budget_set || options.shed_policy_set ||
       options.delta_every_set || options.drain_timeout_set)) {
    std::fprintf(stderr,
                 "--child-id/--spool-dir/--spool-budget/--shed-policy/"
                 "--delta-every/--drain-timeout require --replicate-to\n");
    return 2;
  }
  if (options.shed_policy_set && !options.spool_budget_set) {
    std::fprintf(stderr, "--shed-policy requires --spool-budget\n");
    return 2;
  }
  if (!options.per_flow &&
      (options.memory_budget_bytes > 0 || options.eviction_set ||
       options.hugepages || options.numa)) {
    std::fprintf(stderr,
                 "--memory-budget/--eviction/--hugepages/--numa require "
                 "--per-flow\n");
    return 2;
  }
  if (options.eviction_set && options.memory_budget_bytes == 0 &&
      options.eviction != smb::ArenaEviction::kOff) {
    std::fprintf(stderr, "--eviction clock|2q requires --memory-budget\n");
    return 2;
  }
  if (options.per_flow &&
      (options.all || parallel || !options.save_path.empty() ||
       !options.load_path.empty() || !options.checkpoint_dir.empty())) {
    std::fprintf(stderr,
                 "--per-flow cannot be combined with --all, --threads, "
                 "--shards, --save, --load, or --checkpoint-dir\n");
    return 2;
  }
  if (options.overload_policy_set && !parallel) {
    std::fprintf(stderr,
                 "--overload-policy requires --threads/--shards\n");
    return 2;
  }
  if (options.checkpoint_interval_s > 0 && options.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "--checkpoint-interval requires --checkpoint-dir\n");
    return 2;
  }
  if (!options.checkpoint_dir.empty() &&
      (options.all || !options.save_path.empty() ||
       !options.load_path.empty())) {
    std::fprintf(stderr,
                 "--checkpoint-dir cannot be combined with --all, --save, "
                 "or --load\n");
    return 2;
  }
  if (!options.checkpoint_dir.empty()) {
    // Fail before reading any input: create the directory and prove it is
    // writable with a throwaway probe file.
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(options.checkpoint_dir, ec);
    const fs::path probe_path =
        fs::path(options.checkpoint_dir) / ".smbcard-probe";
    bool writable = false;
    {
      std::ofstream probe(probe_path);
      writable = static_cast<bool>(probe);
    }
    if (writable) {
      fs::remove(probe_path, ec);
    } else {
      std::fprintf(stderr, "cannot write checkpoints to %s\n",
                   options.checkpoint_dir.c_str());
      return 2;
    }
  }
  if (!options.metrics_out.empty()) {
    // Fail before reading any input, like the --shards budget check. Probe
    // in append mode so an existing capture is not clobbered by a run that
    // then dies on bad input.
    std::ofstream probe(options.metrics_out, std::ios::app);
    if (!probe) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   options.metrics_out.c_str());
      return 2;
    }
  }
  if (!options.flight_recorder_out.empty()) {
    std::ofstream probe(options.flight_recorder_out, std::ios::app);
    if (!probe) {
      std::fprintf(stderr, "cannot write flight recorder to %s\n",
                   options.flight_recorder_out.c_str());
      return 2;
    }
    // Arm the crash path first so a mid-run fatal signal still leaves a
    // black box; the on-success dump below overwrites it with the full
    // end-of-run history.
    smb::trace::InstallCrashHandler(options.flight_recorder_out.c_str());
  }

  int rc;
  {
    PeriodicMetricsWriter periodic(
        options.metrics_out,
        options.metrics_out.empty() ? 0 : options.metrics_interval_s);
    rc = listen ? RunListen(options)
                : options.per_flow
                      ? RunPerFlow(options)
                      : (parallel ? RunParallel(options)
                                  : (options.all ? RunAll(options)
                                                 : RunSingle(options)));
  }
  if (!options.metrics_out.empty()) {
    if (!WriteMetricsSnapshot(options.metrics_out)) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   options.metrics_out.c_str());
      return rc == 0 ? 1 : rc;
    }
  }
  if (!options.flight_recorder_out.empty()) {
    std::string error;
    if (!smb::trace::FlightRecorder::Global().DumpTo(
            options.flight_recorder_out, &error)) {
      std::fprintf(stderr, "cannot write flight recorder: %s\n",
                   error.c_str());
      return rc == 0 ? 1 : rc;
    }
  }
  return rc;
}
