// Per-flow mode (--per-flow) and child mode (--per-flow --replicate-to):
// one estimator per flow over `flow,element` input lines, top spreads
// printed as `flow<TAB>estimate`. The line grammar is stream/trace_io.h's
// CSV import, and its fields go through the same ParseCsvField; the lines
// are split here so the *original* flow keys survive to the output (the
// trace importer densifies them).

#include <string_view>
#include <thread>

#include "repl/child_replicator.h"
#include "sketch/per_flow_monitor.h"
#include "smbcard_cli/runners.h"
#include "stream/trace_io.h"
#include "trace/health_probe.h"

namespace smb::cli {

int RunPerFlow(const CliOptions& options) {
  const auto kind = EstimatorKindFromName(options.algo);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", options.algo.c_str());
    return 2;
  }
  EstimatorSpec spec;
  spec.kind = *kind;
  spec.memory_bits = options.memory_bits;
  spec.design_cardinality = options.design_cardinality;
  spec.hash_seed = options.seed;
  ArenaTuning tuning;
  tuning.memory_budget_bytes = options.memory_budget_bytes;
  tuning.eviction = options.eviction;
  tuning.try_hugepages = options.hugepages;
  PerFlowMonitor monitor(spec, PerFlowMonitor::Engine::kAuto, tuning);
  if ((options.memory_budget_bytes > 0 || options.hugepages) &&
      monitor.engine() != PerFlowMonitor::Engine::kArena) {
    std::fprintf(stderr,
                 "--memory-budget/--hugepages need the arena engine (an "
                 "SMB spec with packed-metadata geometry)\n");
    return 2;
  }

  // Child mode: stream snapshot deltas of recorded flows to the parent
  // at --replicate-to, spooling to --spool-dir across parent outages.
  std::optional<repl::ChildReplicator> replicator;
  if (options.mode == Mode::kChild) {
    if (monitor.arena_engine() == nullptr) {
      std::fprintf(stderr,
                   "--replicate-to needs the arena engine (an SMB spec "
                   "with packed-metadata geometry)\n");
      return 2;
    }
    repl::ChildReplicator::Options repl_options;
    repl_options.socket_path = options.replicate_to;
    repl_options.child_id = options.child_id;
    repl_options.spool.directory = options.spool_dir;
    repl_options.spool.budget_bytes = options.spool_budget_bytes;
    repl_options.spool.sync = true;
    repl_options.shed_policy = options.shed_policy;
    replicator.emplace(monitor.arena_engine(), repl_options);
  }
  bool repl_io_error = false;
  auto cut_delta = [&]() {
    std::string error;
    const auto status = replicator->CutDelta(&error);
    if (status == repl::ChildReplicator::CutStatus::kError &&
        !repl_io_error) {
      repl_io_error = true;
      std::fprintf(stderr, "delta spool failed: %s\n", error.c_str());
    }
    return status;
  };

  // Batch packets so SMB specs go down the arena engine's keyed SIMD
  // pipeline instead of packet-at-a-time; a batch still partial at a
  // stdin deadline (FeedAllInputs) is recorded then. Per-flow health
  // rides the metrics snapshot: it is published here, between batches —
  // after the first, then once per --metrics-interval — so the periodic
  // writer never reads the engine.
  const ArenaSmbEngine* arena = monitor.arena_engine();
  Interval health_interval(arena != nullptr ? options.metrics_interval_s : 0,
                           /*due_now=*/true);
  std::vector<Packet> pending;
  pending.reserve(4096);
  auto flush_pending = [&]() {
    if (pending.empty()) return;
    if (replicator.has_value()) {
      replicator->NoteRecordedBatch(pending.data(), pending.size());
    }
    monitor.RecordBatch(pending);
    pending.clear();
    if (health_interval.Due()) {
      health::PublishArenaHealth(health::ProbeArena(*arena, options.top_k));
    }
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
        !ParseCsvField(std::string_view(line).substr(0, comma), &flow) ||
        !ParseCsvField(std::string_view(line).substr(comma + 1),
                       &element)) {
      parse_failed = true;
      failed_line = line_number;
      return;
    }
    pending.push_back(Packet{flow, element});
    if (pending.size() == pending.capacity()) flush_pending();
    if (replicator.has_value() &&
        ++lines_since_cut >= options.delta_every_lines) {
      lines_since_cut = 0;
      flush_pending();
      cut_delta();  // kDeferred keeps the dirty set for a later cut
      replicator->Tick(NowMs());
    }
  }, [&] {
    if (!parse_failed) flush_pending();
  });
  if (parse_failed) {
    std::fprintf(stderr, "input line %llu is not a flow,element pair\n",
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
      if (status == repl::ChildReplicator::CutStatus::kDeferred) {
        // kRetry shed policy: acks free spool budget, so keep retrying
        // the refused cut while draining.
        status = cut_delta();
      }
      // A failed spool write keeps its dirty set, and nothing here cuts
      // again: wait for the spooled deltas only (exit 1 follows).
      if (replicator->Drained() &&
          (replicator->dirty_flows() == 0 ||
           status == repl::ChildReplicator::CutStatus::kError)) {
        break;
      }
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

  // Final health (saturation counts, top-K expected error).
  if (arena != nullptr) {
    health::PublishArenaHealth(health::ProbeArena(*arena, options.top_k));
  }

  std::vector<std::pair<uint64_t, double>> spreads;
  spreads.reserve(monitor.NumFlows());
  monitor.ForEachFlow([&](uint64_t flow, double estimate) {
    spreads.emplace_back(flow, estimate);
  });
  PrintTopSpreads(std::move(spreads), options.top_k);
  if (arena != nullptr) {
    const ArenaSmbEngine::ArenaStats stats = arena->Stats();
    std::fprintf(stderr,
                 "%zu flows live (%zu on position lists), %zu recorded, "
                 "%zu evicted, %zu promoted, %zu live bytes over %llu "
                 "input lines\n",
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

}  // namespace smb::cli
