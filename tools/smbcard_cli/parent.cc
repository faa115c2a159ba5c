// Parent mode (--listen, DESIGN.md §16): pump the replication sink until
// every expected child has connected, drained (acked == applied) and said
// goodbye, then print the merged top spreads. A child only sends its
// goodbye after its spool drained, so "all disconnected with nothing
// unacked" is the quiesced state.

#include <algorithm>

#include "repl/replication_sink.h"
#include "smbcard_cli/runners.h"

namespace smb::cli {

int RunParent(const CliOptions& options) {
  if (options.algo != "SMB") {
    std::fprintf(stderr, "--listen merges SMB arena state only\n");
    return 2;
  }
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kSmb;
  spec.memory_bits = options.memory_bits;
  spec.design_cardinality = options.design_cardinality;
  spec.hash_seed = options.seed;
  const auto config = ArenaSmbEngine::ConfigForSpec(spec);
  if (!config.has_value()) {
    std::fprintf(stderr,
                 "--memory %llu --design %llu is not an arena-capable SMB "
                 "geometry\n",
                 static_cast<unsigned long long>(options.memory_bits),
                 static_cast<unsigned long long>(options.design_cardinality));
    return 2;
  }
  repl::ReplicationSink::Options sink_options;
  sink_options.socket_path = options.listen_path;
  sink_options.engine_config = *config;
  sink_options.checkpoint_dir = options.checkpoint_dir;
  repl::ReplicationSink sink(sink_options);
  std::string error;
  if (!sink.Listen(&error)) {
    std::fprintf(stderr, "cannot listen on %s: %s\n",
                 options.listen_path.c_str(), error.c_str());
    return 1;
  }

  const uint64_t deadline_ms =
      options.listen_timeout_s > 0
          ? NowMs() + options.listen_timeout_s * 1000
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
    bool quiesced = true;
    for (const auto& child : sink.Children(NowMs())) {
      const bool was_greeted =
          std::find(greeted.begin(), greeted.end(), child.child_id) !=
          greeted.end();
      if (child.connected && !was_greeted) greeted.push_back(child.child_id);
      if (child.connected || child.acked_seq != child.applied_seq ||
          !was_greeted) {
        quiesced = false;
      }
    }
    if (quiesced && greeted.size() >= options.expect_children) break;
  }

  std::vector<std::pair<uint64_t, double>> spreads;
  sink.MergedEngine().ForEachFlow([&](uint64_t flow, double estimate) {
    spreads.emplace_back(flow, estimate);
  });
  PrintTopSpreads(std::move(spreads), options.top_k);
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

}  // namespace smb::cli
