// Replication chaos suite — the ISSUE's acceptance bar: 4 children and
// 1 parent over real Unix-domain sockets, with torn frames, silent
// bit flips, duplicate deliveries, reorderings, delivery delays,
// connection resets, dropped acks and (on a third of the cycles) a
// mid-run parent kill + restart injected across 100+ seeded cycles —
// and EVERY cycle must end with the parent's merged state bit-identical
// to a single-process oracle merge of the child engines, with each
// child's accounting identity
//
//   deltas_cut == deltas_delivered + spooled + deltas_shed
//
// intact. Each cycle is a chaos phase (faults armed, deterministic
// per-point PRNGs) followed by a quiesce phase (faults cleared, streams
// drain) — convergence AFTER faults is the claim, not liveness DURING
// them.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "fault/failpoints.h"
#include "flow/arena_smb_engine.h"
#include "repl/child_replicator.h"
#include "repl/replication_sink.h"
#include "repl_test_util.h"

namespace smb::repl {
namespace {

namespace fs = std::filesystem;

constexpr size_t kChildren = 4;
constexpr size_t kBursts = 4;  // deltas cut per child per cycle

ArenaSmbEngine::Config SmallConfig() {
  ArenaSmbEngine::Config config;
  config.num_bits = 256;
  config.threshold = 32;
  config.base_seed = 0xC4A0;
  return config;
}

using FlowFingerprint =
    std::map<uint64_t, std::tuple<uint32_t, uint32_t, std::vector<uint64_t>>>;

FlowFingerprint Fingerprint(const ArenaSmbEngine& engine) {
  FlowFingerprint fp;
  engine.ForEachFlowState([&](uint64_t flow, uint32_t round, uint32_t ones,
                              std::span<const uint64_t> words) {
    fp.emplace(flow, std::make_tuple(
                         round, ones,
                         std::vector<uint64_t>(words.begin(), words.end())));
  });
  return fp;
}

struct Child {
  uint64_t id = 0;
  std::unique_ptr<ArenaSmbEngine> engine;
  std::unique_ptr<ChildReplicator> replicator;
};

// Every injected fault, armed probabilistically. The sum of the fire
// probabilities is high enough that a typical cycle sees several faults,
// and the per-point PRNGs make each cycle's fault pattern a pure
// function of the cycle seed.
void ArmChaosFailpoints(uint64_t cycle) {
  using fault::FailpointAction;
  using fault::FailpointSpec;
  auto& registry = fault::FailpointRegistry::Global();
  registry.ClearAll();
  registry.Reseed(0xC4A05 * 2654435761u + cycle);
  // Silent bit flip somewhere in the encoded frame (bit varies by cycle).
  registry.Set("repl.send.corrupt",
               FailpointSpec{FailpointAction::kCorrupt, 13 + cycle * 7, 0.08});
  // Torn frame: a prefix hits the wire, then the connection drops.
  registry.Set("repl.send.short",
               FailpointSpec{FailpointAction::kPartialIo, 11 + cycle, 0.08});
  // Same frame delivered twice.
  registry.Set("repl.send.dup",
               FailpointSpec{FailpointAction::kReturnError, 0, 0.15});
  // Adjacent pending deltas swapped before framing.
  registry.Set("repl.send.reorder",
               FailpointSpec{FailpointAction::kReturnError, 0, 0.15});
  // Transport dies under a healthy streaming session.
  registry.Set("repl.conn.reset",
               FailpointSpec{FailpointAction::kReturnError, 0, 0.01});
  // The child stops transmitting for 25 (virtual) milliseconds.
  registry.Set("repl.frame.delay",
               FailpointSpec{FailpointAction::kReturnError, 25, 0.10});
  // A parent ack evaporates; heartbeat re-acks must repair it.
  registry.Set("repl.ack.drop",
               FailpointSpec{FailpointAction::kReturnError, 0, 0.15});
}

struct CycleTallies {
  uint64_t rejected_frames = 0;
  uint64_t rejected_payloads = 0;
  uint64_t dup_dropped = 0;
  uint64_t out_of_order = 0;
  uint64_t acks_dropped = 0;
  uint64_t conns_dropped = 0;
  uint64_t child_retransmits = 0;
  uint64_t child_conn_resets = 0;
  uint64_t parent_restarts = 0;
};

void Accumulate(const ReplicationSink& sink, CycleTallies* tallies) {
  const auto& stats = sink.stats();
  tallies->rejected_frames += stats.rejected_frames;
  tallies->rejected_payloads += stats.rejected_payloads;
  tallies->dup_dropped += stats.dup_dropped;
  tallies->out_of_order += stats.out_of_order;
  tallies->acks_dropped += stats.acks_dropped;
  tallies->conns_dropped += stats.conns_dropped;
}

// One full chaos cycle; asserts convergence + accounting at the end and
// folds the fault-path counters into `tallies` so the suite can prove
// every injected fault class actually happened.
void RunChaosCycle(uint64_t cycle, CycleTallies* tallies) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("repl_chaos_" + std::to_string(cycle));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path = (dir / "parent.sock").string();

  ReplicationSink::Options sink_options;
  sink_options.socket_path = socket_path;
  sink_options.engine_config = SmallConfig();
  sink_options.checkpoint_dir = (dir / "ckpt").string();
  sink_options.checkpoint_sync = false;

  ArmChaosFailpoints(cycle);

  auto sink = std::make_unique<ReplicationSink>(sink_options);
  std::string error;
  ASSERT_TRUE(sink->Listen(&error)) << error;

  std::vector<Child> children;
  for (uint64_t id = 1; id <= kChildren; ++id) {
    Child child;
    child.id = id;
    child.engine = std::make_unique<ArenaSmbEngine>(SmallConfig());
    ChildReplicator::Options options;
    options.socket_path = socket_path;
    options.child_id = id;
    options.spool.directory = (dir / ("spool-" + std::to_string(id))).string();
    options.spool.sync = false;
    options.backoff_initial_ms = 5;
    options.backoff_max_ms = 40;
    options.heartbeat_interval_ms = 20;
    options.jitter_seed = cycle * 31 + id;
    child.replicator =
        std::make_unique<ChildReplicator>(child.engine.get(), options);
    children.push_back(std::move(child));
  }

  uint64_t now_ms = 1000;
  const auto step = [&] {
    for (Child& child : children) child.replicator->Tick(now_ms);
    if (sink) sink->PollOnce(now_ms, 0);
    now_ms += 5;
  };

  // Chaos phase: traffic + cuts interleaved with pumping, faults armed,
  // and on every third cycle a parent kill + restart in the middle.
  Xoshiro256 traffic(cycle * 7919 + 1);
  const bool kill_parent = cycle % 3 == 0;
  for (size_t burst = 0; burst < kBursts; ++burst) {
    for (Child& child : children) {
      const size_t flows = 1 + traffic.NextBounded(3);
      for (size_t f = 0; f < flows; ++f) {
        const uint64_t flow = 1 + traffic.NextBounded(8);
        const size_t packets = 1 + traffic.NextBounded(120);
        for (size_t p = 0; p < packets; ++p) {
          child.engine->Record(flow, traffic.Next());
        }
        child.replicator->NoteRecorded(flow);
      }
      ASSERT_EQ(child.replicator->CutDelta(&error),
                ChildReplicator::CutStatus::kCut)
          << error;
    }
    for (int i = 0; i < 12; ++i) step();
    if (kill_parent && burst == kBursts / 2) {
      // Parent dies mid-stream (no goodbye) and restarts from its
      // checkpoint directory. Everything it ever acked must survive;
      // children reconnect and retransmit the rest from their spools.
      Accumulate(*sink, tallies);
      sink.reset();
      for (int i = 0; i < 6; ++i) step();  // children notice + back off
      sink = std::make_unique<ReplicationSink>(sink_options);
      ASSERT_TRUE(sink->Listen(&error)) << error;
      ++tallies->parent_restarts;
    }
  }

  // Quiesce phase: faults cleared, streams drain to empty.
  fault::FailpointRegistry::Global().ClearAll();
  bool all_drained = false;
  for (size_t i = 0; i < 4000 && !all_drained; ++i) {
    step();
    all_drained = true;
    for (Child& child : children) {
      if (!child.replicator->Drained()) all_drained = false;
    }
  }
  ASSERT_TRUE(all_drained) << "cycle " << cycle << " failed to drain";

  // THE acceptance invariant: merged parent state is bit-identical to
  // the oracle merge of the child engines, in child-id order.
  ArenaSmbEngine oracle(SmallConfig());
  for (const Child& child : children) oracle.MergeFrom(*child.engine);
  ASSERT_EQ(Fingerprint(sink->MergedEngine()), Fingerprint(oracle))
      << "cycle " << cycle << " diverged from the oracle merge";

  // Accounting identity per child — nothing lost, nothing silently
  // duplicated, everything delivered once the dust settles.
  for (const Child& child : children) {
    const auto stats = child.replicator->stats();
    ASSERT_EQ(stats.deltas_cut,
              stats.deltas_delivered + stats.spooled_deltas +
                  stats.deltas_shed)
        << "cycle " << cycle << " child " << child.id;
    ASSERT_EQ(stats.deltas_cut, kBursts);
    ASSERT_EQ(stats.deltas_delivered, kBursts);
    ASSERT_EQ(stats.deltas_shed, 0u);
    tallies->child_retransmits += stats.retransmits;
    tallies->child_conn_resets += stats.conn_resets;
  }
  Accumulate(*sink, tallies);

  sink.reset();
  children.clear();
  fs::remove_all(dir);
}

TEST(ReplicationChaosTest, HundredSeededCyclesConvergeBitIdentically) {
  CycleTallies tallies;
  for (uint64_t cycle = 0; cycle < 100; ++cycle) {
    RunChaosCycle(cycle, &tallies);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "aborting after cycle " << cycle;
    }
  }
  fault::FailpointRegistry::Global().ClearAll();

  // Convergence proved nothing if the faults never fired: every injected
  // fault class must have actually been absorbed somewhere in the run.
  EXPECT_GT(tallies.rejected_frames, 0u)
      << "no torn/corrupt frame ever reached the parent decoder";
  EXPECT_GT(tallies.dup_dropped, 0u) << "no duplicate delivery was dropped";
  EXPECT_GT(tallies.out_of_order, 0u)
      << "no out-of-order delta was refused";
  EXPECT_GT(tallies.acks_dropped, 0u) << "no ack was ever dropped";
  EXPECT_GT(tallies.conns_dropped, 0u) << "no connection was ever recycled";
  EXPECT_GT(tallies.child_retransmits, 0u) << "no delta was retransmitted";
  EXPECT_GT(tallies.child_conn_resets, 0u) << "no connection reset fired";
  EXPECT_GT(tallies.parent_restarts, 0u) << "no parent kill was staged";
  // The identity held after every cut and every ack, not only at the
  // end of each cycle.
  EXPECT_EQ(ReplInvariantViolations(), 0u);
}

// A focused lens on the durability claim, separate from the big loop so
// a regression points straight at the ack/checkpoint coupling: acks must
// NEVER outrun the checkpoint. With checkpoint writes failing, applied
// state advances but acked state must not.
TEST(ReplicationChaosTest, AcksHoldBackWhileCheckpointsFail) {
  const fs::path dir = fs::path(::testing::TempDir()) / "repl_chaos_ackhold";
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto& registry = fault::FailpointRegistry::Global();
  registry.ClearAll();
  registry.Reseed(1);

  ReplicationSink::Options sink_options;
  sink_options.socket_path = (dir / "parent.sock").string();
  sink_options.engine_config = SmallConfig();
  sink_options.checkpoint_dir = (dir / "ckpt").string();
  ReplicationSink sink(sink_options);
  std::string error;
  ASSERT_TRUE(sink.Listen(&error)) << error;

  Child child;
  child.id = 1;
  child.engine = std::make_unique<ArenaSmbEngine>(SmallConfig());
  ChildReplicator::Options options;
  options.socket_path = sink_options.socket_path;
  options.child_id = 1;
  options.spool.directory = (dir / "spool").string();
  options.spool.sync = false;
  options.backoff_initial_ms = 5;
  options.heartbeat_interval_ms = 20;
  child.replicator =
      std::make_unique<ChildReplicator>(child.engine.get(), options);

  uint64_t now_ms = 1000;
  const auto pump = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      child.replicator->Tick(now_ms);
      sink.PollOnce(now_ms, 0);
      now_ms += 5;
    }
  };

  // Every checkpoint write fails from here on.
  registry.Set("checkpoint.write.error",
               fault::FailpointSpec{fault::FailpointAction::kReturnError});

  Xoshiro256 traffic(2);
  for (uint64_t flow = 1; flow <= 3; ++flow) {
    for (int p = 0; p < 60; ++p) child.engine->Record(flow, traffic.Next());
    child.replicator->NoteRecorded(flow);
    ASSERT_EQ(child.replicator->CutDelta(&error),
              ChildReplicator::CutStatus::kCut);
  }
  pump(120);

  // Applied in memory, but NOT acked — the child keeps its spool.
  {
    const auto infos = sink.Children(now_ms);
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].applied_seq, 3u);
    EXPECT_EQ(infos[0].acked_seq, 0u);
  }
  EXPECT_GT(sink.stats().checkpoint_failures, 0u);
  EXPECT_EQ(child.replicator->stats().spooled_deltas, 3u);
  EXPECT_EQ(child.replicator->stats().deltas_delivered, 0u);

  // Disk heals; the held-back checkpoint retries on the next poll and
  // the acks catch up (heartbeats keep polls coming).
  registry.ClearAll();
  pump(200);
  {
    const auto infos = sink.Children(now_ms);
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].acked_seq, 3u);
  }
  EXPECT_TRUE(child.replicator->Drained());
  EXPECT_EQ(child.replicator->stats().deltas_delivered, 3u);
  EXPECT_EQ(ReplInvariantViolations(), 0u);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace smb::repl
