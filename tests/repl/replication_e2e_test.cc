// End-to-end parent/child replication over real Unix-domain sockets,
// fault-free paths (the failpoint-driven chaos suite lives in
// replication_chaos_test.cc): clean convergence to the oracle merge,
// parent kill + restart without losing acked data, children surviving a
// parent outage via spool + backoff, explicit shedding at the spool
// budget, and a child restart resuming from its spool.
//
// Everything is single-threaded lockstep: children Tick() and the sink
// PollOnce()s against one fake millisecond clock, so every run is
// deterministic.

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "codec/smbz1.h"
#include "common/le_bytes.h"
#include "common/random.h"
#include "flow/arena_smb_engine.h"
#include "io/checkpoint_store.h"
#include "repl/child_replicator.h"
#include "repl/replication_sink.h"
#include "telemetry/metrics_registry.h"

namespace smb::repl {
namespace {

namespace fs = std::filesystem;

ArenaSmbEngine::Config SmallConfig() {
  ArenaSmbEngine::Config config;
  config.num_bits = 256;
  config.threshold = 32;
  config.base_seed = 0x5EED;
  return config;
}

// Per-flow state fingerprint: row order is residency history, not
// recorded state, so engines compare per flow.
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

// MergedQuery folds one flow across the replicas; it must answer every
// held flow and absent ids exactly as the merged engine does, and it must
// not build one: a rebuild creates a row per flow, so the process-wide
// created-rows counter stays put across many point queries.
void ExpectMergedQueryMatchesMergedEngine(const ReplicationSink& sink) {
  const ArenaSmbEngine merged = sink.MergedEngine();
  std::vector<uint64_t> flows;
  merged.ForEachFlow([&](uint64_t flow, double) { flows.push_back(flow); });
  ASSERT_FALSE(flows.empty());
  for (const uint64_t absent : {uint64_t{0}, uint64_t{1} << 40,
                                ~uint64_t{0}}) {
    flows.push_back(absent);
  }
  for (const uint64_t flow : flows) {
    EXPECT_EQ(std::bit_cast<uint64_t>(sink.MergedQuery(flow)),
              std::bit_cast<uint64_t>(merged.Query(flow)))
        << "flow " << flow;
  }
  if constexpr (telemetry::kEnabled) {
    const telemetry::Counter* created =
        telemetry::MetricsRegistry::Global().GetCounter(
            "flow_flows_created_total");
    const uint64_t before = created->Value();
    for (size_t q = 0; q < 1000; ++q) {
      (void)sink.MergedQuery(flows[q % flows.size()]);
    }
    EXPECT_EQ(created->Value(), before);
    // The counter is live: a rebuild moves it by one row per flow.
    const ArenaSmbEngine rebuilt = sink.MergedEngine();
    EXPECT_EQ(created->Value(), before + rebuilt.NumFlows());
  }
}

struct Child {
  uint64_t id = 0;
  std::unique_ptr<ArenaSmbEngine> engine;
  std::unique_ptr<ChildReplicator> replicator;
};

class ReplicationE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("repl_e2e_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    now_ms_ = 1000;
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string SocketPath() const { return (dir_ / "parent.sock").string(); }

  ReplicationSink::Options SinkOptions(bool durable = false) {
    ReplicationSink::Options options;
    options.socket_path = SocketPath();
    options.engine_config = SmallConfig();
    if (durable) options.checkpoint_dir = (dir_ / "ckpt").string();
    options.checkpoint_sync = false;
    return options;
  }

  Child MakeChild(uint64_t id, size_t spool_budget = 0,
                  SpoolShedPolicy shed = SpoolShedPolicy::kRetry) {
    Child child;
    child.id = id;
    child.engine = std::make_unique<ArenaSmbEngine>(SmallConfig());
    ChildReplicator::Options options;
    options.socket_path = SocketPath();
    options.child_id = id;
    options.spool.directory = (dir_ / ("spool-" + std::to_string(id))).string();
    options.spool.budget_bytes = spool_budget;
    options.spool.sync = false;
    options.shed_policy = shed;
    options.backoff_initial_ms = 5;
    options.backoff_max_ms = 40;
    options.heartbeat_interval_ms = 20;
    child.replicator =
        std::make_unique<ChildReplicator>(child.engine.get(), options);
    return child;
  }

  // Records a burst of packets for `flow` and marks it dirty.
  void RecordBurst(Child& child, uint64_t flow, size_t packets,
                   Xoshiro256& rng) {
    for (size_t p = 0; p < packets; ++p) child.engine->Record(flow, rng.Next());
    child.replicator->NoteRecorded(flow);
  }

  // One lockstep pump cycle for every child plus the sink.
  void Step(ReplicationSink* sink, std::vector<Child>& children) {
    for (Child& child : children) child.replicator->Tick(now_ms_);
    if (sink) sink->PollOnce(now_ms_, 0);
    now_ms_ += 5;
  }

  // Pumps until every child is drained (or the step cap trips).
  void DrainAll(ReplicationSink* sink, std::vector<Child>& children,
                size_t max_steps = 3000) {
    for (size_t step = 0; step < max_steps; ++step) {
      bool all_drained = true;
      for (Child& child : children) {
        if (!child.replicator->Drained()) all_drained = false;
      }
      if (all_drained && step > 0) return;
      Step(sink, children);
    }
    for (Child& child : children) {
      EXPECT_TRUE(child.replicator->Drained())
          << "child " << child.id << " still undrained: spool="
          << child.replicator->stats().spooled_deltas;
    }
  }

  // The oracle: a single-process merge of the child engines, ascending
  // child id — what the distributed path must be bit-identical to.
  FlowFingerprint OracleFingerprint(const std::vector<Child>& children) {
    ArenaSmbEngine merged(SmallConfig());
    for (const Child& child : children) {  // children built in id order
      merged.MergeFrom(*child.engine);
    }
    return Fingerprint(merged);
  }

  void ExpectAccountingIdentity(const Child& child) {
    const auto stats = child.replicator->stats();
    EXPECT_EQ(stats.deltas_cut, stats.deltas_delivered +
                                    stats.spooled_deltas + stats.deltas_shed)
        << "child " << child.id << ": cut=" << stats.deltas_cut
        << " delivered=" << stats.deltas_delivered
        << " spooled=" << stats.spooled_deltas
        << " shed=" << stats.deltas_shed;
  }

  fs::path dir_;
  uint64_t now_ms_ = 1000;
};

TEST_F(ReplicationE2eTest, FourChildrenConvergeToOracleMerge) {
  ReplicationSink sink(SinkOptions());
  std::string error;
  ASSERT_TRUE(sink.Listen(&error)) << error;

  std::vector<Child> children;
  for (uint64_t id = 1; id <= 4; ++id) children.push_back(MakeChild(id));

  Xoshiro256 rng(99);
  for (size_t burst = 0; burst < 5; ++burst) {
    for (Child& child : children) {
      // Overlapping flow ids across children so the merge path (not just
      // adoption) is exercised.
      RecordBurst(child, 1 + rng.NextBounded(6), 1 + rng.NextBounded(150),
                  rng);
      RecordBurst(child, 1 + rng.NextBounded(6), 1 + rng.NextBounded(150),
                  rng);
      ASSERT_EQ(child.replicator->CutDelta(&error),
                ChildReplicator::CutStatus::kCut)
          << error;
    }
    for (int i = 0; i < 4; ++i) Step(&sink, children);
  }
  DrainAll(&sink, children);

  EXPECT_EQ(Fingerprint(sink.MergedEngine()), OracleFingerprint(children));
  ExpectMergedQueryMatchesMergedEngine(sink);
  for (const Child& child : children) {
    ExpectAccountingIdentity(child);
    const auto stats = child.replicator->stats();
    EXPECT_EQ(stats.deltas_cut, 5u);
    EXPECT_EQ(stats.deltas_delivered, 5u);
    EXPECT_EQ(stats.deltas_shed, 0u);
  }
  // Liveness: everyone was heard from recently...
  for (const auto& info : sink.Children(now_ms_)) {
    EXPECT_TRUE(info.connected);
    EXPECT_TRUE(info.alive);
    EXPECT_EQ(info.applied_seq, 5u);
  }
  // ...and goes not-alive once the clock outruns the timeout with no
  // frames (the smbtop liveness pane contract).
  now_ms_ += sink.options().child_timeout_ms + 1;
  for (const auto& info : sink.Children(now_ms_)) {
    EXPECT_FALSE(info.alive);
  }
}

TEST_F(ReplicationE2eTest, ParentRestartLosesNoAckedData) {
  auto sink = std::make_unique<ReplicationSink>(SinkOptions(/*durable=*/true));
  std::string error;
  ASSERT_TRUE(sink->Listen(&error)) << error;

  std::vector<Child> children;
  for (uint64_t id = 1; id <= 4; ++id) children.push_back(MakeChild(id));

  Xoshiro256 rng(7);
  for (size_t burst = 0; burst < 2; ++burst) {
    for (Child& child : children) {
      RecordBurst(child, 1 + rng.NextBounded(5), 1 + rng.NextBounded(100),
                  rng);
      ASSERT_EQ(child.replicator->CutDelta(&error),
                ChildReplicator::CutStatus::kCut);
    }
    for (int i = 0; i < 4; ++i) Step(sink.get(), children);
  }
  DrainAll(sink.get(), children);
  ASSERT_GT(sink->stats().checkpoints_written, 0u);
  const FlowFingerprint acked = Fingerprint(sink->MergedEngine());

  // Kill the parent (destructor = no orderly goodbye to anyone).
  sink.reset();

  // Restart from the same checkpoint directory: everything ever acked
  // must already be there BEFORE any child reconnects.
  sink = std::make_unique<ReplicationSink>(SinkOptions(/*durable=*/true));
  EXPECT_EQ(Fingerprint(sink->MergedEngine()), acked);
  ExpectMergedQueryMatchesMergedEngine(*sink);
  for (const auto& info : sink->Children(now_ms_)) {
    EXPECT_EQ(info.acked_seq, 2u);
    EXPECT_EQ(info.applied_seq, 2u);
  }

  // Children reconnect (their connections died mid-run) and the stream
  // continues where the acks left off.
  ASSERT_TRUE(sink->Listen(&error)) << error;
  for (Child& child : children) {
    RecordBurst(child, 1 + rng.NextBounded(5), 1 + rng.NextBounded(100), rng);
    ASSERT_EQ(child.replicator->CutDelta(&error),
              ChildReplicator::CutStatus::kCut);
  }
  DrainAll(sink.get(), children);
  EXPECT_EQ(Fingerprint(sink->MergedEngine()), OracleFingerprint(children));
  ExpectMergedQueryMatchesMergedEngine(*sink);
  for (const Child& child : children) ExpectAccountingIdentity(child);
}

TEST_F(ReplicationE2eTest, ChildrenSurviveParentOutageViaSpool) {
  std::vector<Child> children;
  for (uint64_t id = 1; id <= 2; ++id) children.push_back(MakeChild(id));

  // No parent at all: children keep recording and spooling, connect
  // attempts land in jittered backoff.
  std::string error;
  Xoshiro256 rng(11);
  for (size_t burst = 0; burst < 3; ++burst) {
    for (Child& child : children) {
      RecordBurst(child, 1 + rng.NextBounded(4), 1 + rng.NextBounded(80),
                  rng);
      ASSERT_EQ(child.replicator->CutDelta(&error),
                ChildReplicator::CutStatus::kCut);
    }
    for (int i = 0; i < 10; ++i) Step(nullptr, children);
  }
  for (const Child& child : children) {
    const auto stats = child.replicator->stats();
    EXPECT_EQ(stats.spooled_deltas, 3u);  // everything buffered locally
    EXPECT_EQ(stats.deltas_delivered, 0u);
    EXPECT_GT(stats.connect_attempts, 1u);  // kept retrying
    EXPECT_GT(stats.backoff_ms_total, 0u);
    ExpectAccountingIdentity(child);
  }

  // The parent appears late: spools drain, state converges.
  ReplicationSink sink(SinkOptions());
  ASSERT_TRUE(sink.Listen(&error)) << error;
  DrainAll(&sink, children);
  EXPECT_EQ(Fingerprint(sink.MergedEngine()), OracleFingerprint(children));
  for (const Child& child : children) {
    ExpectAccountingIdentity(child);
    EXPECT_EQ(child.replicator->stats().deltas_delivered, 3u);
  }
}

TEST_F(ReplicationE2eTest, SpoolBudgetShedsExplicitlyWithoutSeqGaps) {
  // Tiny budget, no parent, kDropNew: early deltas spool, later ones are
  // shed — explicitly counted, never silent, and never leaving a gap in
  // the sequence space.
  std::vector<Child> children;
  children.push_back(
      MakeChild(1, /*spool_budget=*/400, SpoolShedPolicy::kDropNew));
  Child& child = children[0];

  std::string error;
  Xoshiro256 rng(5);
  size_t cut = 0, shed = 0;
  for (size_t burst = 0; burst < 6; ++burst) {
    RecordBurst(child, 1 + burst, 20, rng);
    const auto status = child.replicator->CutDelta(&error);
    if (status == ChildReplicator::CutStatus::kCut) {
      ++cut;
    } else {
      ASSERT_EQ(status, ChildReplicator::CutStatus::kShed);
      ++shed;
    }
  }
  ASSERT_GT(cut, 0u);
  ASSERT_GT(shed, 0u);
  const auto stats = child.replicator->stats();
  EXPECT_EQ(stats.deltas_cut, cut + shed);
  EXPECT_EQ(stats.deltas_shed, shed);
  EXPECT_EQ(stats.spooled_deltas, cut);
  ExpectAccountingIdentity(child);
  // Shedding consumed no sequence numbers: the spool holds 1..cut and
  // the next assignment continues the run.
  std::vector<uint64_t> want_seqs;
  for (uint64_t s = 1; s <= cut; ++s) want_seqs.push_back(s);
  EXPECT_EQ(child.replicator->next_seq(), cut + 1);
  EXPECT_EQ(stats.spooled_deltas, want_seqs.size());
}

TEST_F(ReplicationE2eTest, RetryPolicyDefersInsteadOfShedding) {
  std::vector<Child> children;
  children.push_back(
      MakeChild(1, /*spool_budget=*/1200, SpoolShedPolicy::kRetry));
  Child& child = children[0];

  std::string error;
  Xoshiro256 rng(6);
  // Fill the budget...
  size_t cut = 0;
  ChildReplicator::CutStatus status;
  do {
    RecordBurst(child, 1 + cut, 20, rng);
    status = child.replicator->CutDelta(&error);
    if (status == ChildReplicator::CutStatus::kCut) ++cut;
  } while (status == ChildReplicator::CutStatus::kCut);
  // ...the refused cut deferred: dirty set retained, nothing shed.
  ASSERT_EQ(status, ChildReplicator::CutStatus::kDeferred);
  EXPECT_GT(child.replicator->dirty_flows(), 0u);
  EXPECT_EQ(child.replicator->stats().deltas_shed, 0u);
  EXPECT_EQ(child.replicator->stats().deltas_deferred, 1u);

  // Once a parent drains the spool, the deferred dirty set cuts cleanly
  // and carries the flows' newest state.
  ReplicationSink sink(SinkOptions());
  ASSERT_TRUE(sink.Listen(&error)) << error;
  DrainAll(&sink, children);
  ASSERT_EQ(child.replicator->CutDelta(&error),
            ChildReplicator::CutStatus::kCut);
  EXPECT_EQ(child.replicator->dirty_flows(), 0u);
  DrainAll(&sink, children);
  EXPECT_EQ(Fingerprint(sink.MergedEngine()), OracleFingerprint(children));
  ExpectAccountingIdentity(child);
}

TEST_F(ReplicationE2eTest, ChildRestartResumesFromSpool) {
  ReplicationSink sink(SinkOptions());
  std::string error;
  ASSERT_TRUE(sink.Listen(&error)) << error;

  std::vector<Child> children;
  children.push_back(MakeChild(1));
  Xoshiro256 rng(13);

  // Phase 1: three deltas delivered and acked.
  for (size_t burst = 0; burst < 3; ++burst) {
    RecordBurst(children[0], 1 + burst, 30, rng);
    ASSERT_EQ(children[0].replicator->CutDelta(&error),
              ChildReplicator::CutStatus::kCut);
  }
  DrainAll(&sink, children);
  ASSERT_EQ(children[0].replicator->acked_seq(), 3u);

  // Phase 2: parent goes away; three more deltas only reach the spool.
  sink.Close();
  for (size_t burst = 3; burst < 6; ++burst) {
    RecordBurst(children[0], 1 + burst, 30, rng);
    ASSERT_EQ(children[0].replicator->CutDelta(&error),
              ChildReplicator::CutStatus::kCut);
  }
  for (int i = 0; i < 5; ++i) Step(nullptr, children);

  // The child process "restarts": a fresh replicator over the same spool
  // directory and the same engine.
  Child reborn;
  reborn.id = 1;
  reborn.engine = std::move(children[0].engine);
  {
    ChildReplicator::Options options = children[0].replicator->options();
    children[0].replicator.reset();
    reborn.replicator =
        std::make_unique<ChildReplicator>(reborn.engine.get(), options);
  }
  children.clear();
  children.push_back(std::move(reborn));

  // Recovery: the pending deltas are back, the acked ones are not, and
  // the next sequence number cannot collide with anything spooled.
  EXPECT_EQ(children[0].replicator->stats().deltas_cut, 3u);
  EXPECT_EQ(children[0].replicator->stats().spooled_deltas, 3u);
  EXPECT_EQ(children[0].replicator->next_seq(), 7u);
  EXPECT_EQ(children[0].replicator->acked_seq(), 3u);

  // Parent returns; the spooled tail replays and the merged state equals
  // the oracle.
  ASSERT_TRUE(sink.Listen(&error)) << error;
  DrainAll(&sink, children);
  EXPECT_EQ(Fingerprint(sink.MergedEngine()), OracleFingerprint(children));
  ExpectAccountingIdentity(children[0]);
  const auto infos = sink.Children(now_ms_);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].applied_seq, 6u);
}

TEST_F(ReplicationE2eTest, GeometryMismatchIsRefusedAtHello) {
  ReplicationSink sink(SinkOptions());
  std::string error;
  ASSERT_TRUE(sink.Listen(&error)) << error;

  // A child recording with a different base seed cannot be merged; the
  // parent must refuse the session rather than poison the merged state.
  std::vector<Child> children;
  children.push_back(MakeChild(1));
  ArenaSmbEngine::Config other = SmallConfig();
  other.base_seed = 0xD1FF;
  children[0].engine = std::make_unique<ArenaSmbEngine>(other);
  {
    ChildReplicator::Options options = children[0].replicator->options();
    children[0].replicator =
        std::make_unique<ChildReplicator>(children[0].engine.get(), options);
  }
  Xoshiro256 rng(3);
  RecordBurst(children[0], 1, 50, rng);
  ASSERT_EQ(children[0].replicator->CutDelta(&error),
            ChildReplicator::CutStatus::kCut);
  for (int i = 0; i < 60; ++i) Step(&sink, children);

  EXPECT_GT(sink.stats().rejected_hellos, 0u);
  EXPECT_EQ(sink.stats().deltas_applied, 0u);
  EXPECT_TRUE(Fingerprint(sink.MergedEngine()).empty());
  // The child never drains (nothing acks it) but keeps its data safe.
  EXPECT_EQ(children[0].replicator->stats().spooled_deltas, 1u);
}

// A parent checkpoint whose child record claims a snapshot length near
// 2^64 (so `pos + length` wraps below the payload size) is a torn inner
// layout: the restarted parent starts clean instead of copying a range
// that ends before it begins.
TEST_F(ReplicationE2eTest, RecoveryRejectsWrappingSnapshotLength) {
  const ReplicationSink::Options options = SinkOptions(/*durable=*/true);
  {
    io::CheckpointStore::Options store_options;
    store_options.directory = options.checkpoint_dir;
    store_options.sync = false;
    io::CheckpointStore store(store_options);
    std::vector<uint8_t> payload = {'S', 'M', 'B', 'R', 'P', 'A', 'R', '1'};
    AppendU64(&payload, 1);                 // num_children
    AppendU64(&payload, 7);                 // child_id
    AppendU64(&payload, 3);                 // high_water
    AppendU64(&payload, ~uint64_t{0} - 8);  // snapshot_len
    payload.resize(payload.size() + 16, 0);
    ASSERT_TRUE(store.Write(payload).ok);
  }
  ReplicationSink sink(options);
  EXPECT_EQ(sink.NumChildren(), 0u);
}

// A parent restarted under a different geometry cannot use replicas it
// checkpointed under the old one: they would abort MergedEngine() and
// refuse every correctly configured child's delta. It starts clean.
TEST_F(ReplicationE2eTest, RecoveryStartsCleanOnGeometryMismatch) {
  const ReplicationSink::Options options = SinkOptions(/*durable=*/true);
  {
    ArenaSmbEngine replica(SmallConfig());
    for (uint64_t e = 0; e < 500; ++e) replica.Record(e % 5, e);
    const std::vector<uint8_t> snapshot =
        *codec::CompressFlw1Image(replica.Serialize());
    io::CheckpointStore::Options store_options;
    store_options.directory = options.checkpoint_dir;
    store_options.sync = false;
    io::CheckpointStore store(store_options);
    std::vector<uint8_t> payload = {'S', 'M', 'B', 'R', 'P', 'A', 'R', '1'};
    AppendU64(&payload, 1);  // num_children
    AppendU64(&payload, 7);  // child_id
    AppendU64(&payload, 3);  // high_water
    AppendU64(&payload, snapshot.size());
    payload.insert(payload.end(), snapshot.begin(), snapshot.end());
    ASSERT_TRUE(store.Write(payload).ok);
  }
  using Mutation = void (*)(ArenaSmbEngine::Config*);
  const Mutation mutations[] = {
      [](ArenaSmbEngine::Config* c) { c->num_bits *= 2; },
      [](ArenaSmbEngine::Config* c) { ++c->threshold; },
      [](ArenaSmbEngine::Config* c) { ++c->base_seed; }};
  for (const Mutation mutate : mutations) {
    ReplicationSink::Options other = options;
    mutate(&other.engine_config);
    ReplicationSink sink(other);
    EXPECT_EQ(sink.NumChildren(), 0u);
    EXPECT_EQ(sink.MergedEngine().NumFlows(), 0u);
    EXPECT_EQ(sink.MergedQuery(0), 0.0);
  }
  // Control: the checkpoint is intact and recovers under its own geometry.
  ReplicationSink sink(options);
  ASSERT_EQ(sink.NumChildren(), 1u);
  EXPECT_GT(sink.MergedQuery(0), 0.0);
}

}  // namespace
}  // namespace smb::repl
