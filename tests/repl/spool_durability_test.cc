// Spool durability failures seen through ChildReplicator: a failed spool
// fsync fails the cut without consuming a sequence number or the dirty
// set; a trim marker that cannot be written trims nothing, and one that
// rotted is repaired at the first hello-ack, so a restarted child never
// reuses a sequence number the parent applied; a spooled delta that
// cannot be read back is resent in order, never skipped. All keep
// deltas_cut == delivered + spooled + shed.

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
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

ArenaSmbEngine::Config SmallConfig() {
  ArenaSmbEngine::Config config;
  config.num_bits = 256;
  config.threshold = 32;
  config.base_seed = 0x5EED;
  return config;
}

class SpoolDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("spool_durability_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(SpoolDir());
    fault::FailpointRegistry::Global().ClearAll();
  }
  void TearDown() override {
    fault::FailpointRegistry::Global().ClearAll();
    fs::remove_all(dir_);
    EXPECT_EQ(ReplInvariantViolations(), 0u);
  }

  std::string SpoolDir() const { return (dir_ / "spool").string(); }

  std::unique_ptr<ChildReplicator> MakeReplicator(bool spool_sync) {
    ChildReplicator::Options options;
    options.socket_path = (dir_ / "parent.sock").string();
    options.child_id = 1;
    options.spool.directory = SpoolDir();
    options.spool.sync = spool_sync;
    options.backoff_initial_ms = 5;
    options.backoff_max_ms = 40;
    options.heartbeat_interval_ms = 20;
    return std::make_unique<ChildReplicator>(&engine_, options);
  }

  std::unique_ptr<ReplicationSink> MakeSink() {
    ReplicationSink::Options options;
    options.socket_path = (dir_ / "parent.sock").string();
    options.engine_config = SmallConfig();
    auto sink = std::make_unique<ReplicationSink>(options);
    std::string error;
    EXPECT_TRUE(sink->Listen(&error)) << error;
    return sink;
  }

  void RecordBurst(ChildReplicator& replicator, uint64_t flow) {
    for (int p = 0; p < 50; ++p) engine_.Record(flow, rng_.Next());
    replicator.NoteRecorded(flow);
  }

  void Pump(ChildReplicator& replicator, ReplicationSink& sink,
            size_t steps) {
    for (size_t step = 0; step < steps; ++step) {
      replicator.Tick(now_ms_);
      sink.PollOnce(now_ms_, 0);
      now_ms_ += 5;
    }
  }

  size_t SpoolFiles(const std::string& extension) const {
    size_t files = 0;
    for (const auto& entry : fs::directory_iterator(SpoolDir())) {
      if (entry.path().extension() == extension) ++files;
    }
    return files;
  }

  static void ExpectIdentity(const ChildReplicator& replicator) {
    const auto stats = replicator.stats();
    EXPECT_EQ(stats.deltas_cut, stats.deltas_delivered +
                                    stats.spooled_deltas + stats.deltas_shed);
  }

  // Every flow the child recorded answers the same at the parent.
  void ExpectParentHoldsChildState(const ReplicationSink& sink) {
    engine_.ForEachFlow([&](uint64_t flow, double estimate) {
      EXPECT_EQ(std::bit_cast<uint64_t>(sink.MergedQuery(flow)),
                std::bit_cast<uint64_t>(estimate))
          << "flow " << flow;
    });
  }

  // Cuts three deltas, makes the spool fail to read back delta
  // `unreadable_seq` once, and expects the child to drain anyway with the
  // parent bit-identical to the child (the oracle merge of one child).
  void ExpectUnreadableDeltaResent(uint64_t unreadable_seq) {
    auto sink = MakeSink();
    auto replicator = MakeReplicator(/*spool_sync=*/false);
    std::string error;
    for (uint64_t flow = 1; flow <= 3; ++flow) {
      RecordBurst(*replicator, flow);
      RecordBurst(*replicator, 9);  // one flow in every delta
      ASSERT_EQ(replicator->CutDelta(&error),
                ChildReplicator::CutStatus::kCut);
    }
    fault::FailpointSpec spec;
    spec.action = fault::FailpointAction::kReturnError;
    spec.skip = unreadable_seq - 1;  // spool reads go 1, 2, 3 in order
    spec.limit = 1;
    fault::FailpointRegistry::Global().Set("spool.read.error", spec);
    Pump(*replicator, *sink, 400);
    EXPECT_EQ(fault::FailpointRegistry::Global().FireCount("spool.read.error"),
              1u);
    ASSERT_TRUE(replicator->Drained());
    EXPECT_EQ(replicator->acked_seq(), 3u);
    EXPECT_EQ(replicator->stats().deltas_delivered, 3u);
    ExpectIdentity(*replicator);
    ArenaSmbEngine oracle(SmallConfig());
    oracle.MergeFrom(engine_);
    EXPECT_EQ(sink->MergedEngine().Serialize(), oracle.Serialize());
    ExpectParentHoldsChildState(*sink);
  }

  fs::path dir_;
  ArenaSmbEngine engine_{SmallConfig()};
  Xoshiro256 rng_{17};
  uint64_t now_ms_ = 1000;
};

TEST_F(SpoolDurabilityTest, FsyncFailureFailsTheCutAndKeepsTheDirtySet) {
  auto replicator = MakeReplicator(/*spool_sync=*/true);
  RecordBurst(*replicator, 1);
  RecordBurst(*replicator, 2);

  fault::FailpointSpec spec;
  spec.action = fault::FailpointAction::kReturnError;
  fault::FailpointRegistry::Global().Set("spool.fsync.error", spec);
  std::string error;
  EXPECT_EQ(replicator->CutDelta(&error), ChildReplicator::CutStatus::kError);
  EXPECT_NE(error.find("injected fsync error"), std::string::npos) << error;
  EXPECT_EQ(replicator->next_seq(), 1u);  // no sequence number consumed
  EXPECT_EQ(replicator->dirty_flows(), 2u);
  EXPECT_EQ(SpoolFiles(".smbspool"), 0u);
  EXPECT_EQ(SpoolFiles(".tmp"), 0u);
  EXPECT_EQ(replicator->stats().deltas_cut, 0u);
  ExpectIdentity(*replicator);

  fault::FailpointRegistry::Global().Clear("spool.fsync.error");
  ASSERT_EQ(replicator->CutDelta(&error), ChildReplicator::CutStatus::kCut)
      << error;
  EXPECT_EQ(replicator->next_seq(), 2u);
  EXPECT_EQ(replicator->dirty_flows(), 0u);
  ExpectIdentity(*replicator);

  // The retried cut carries both flows to the parent.
  auto sink = MakeSink();
  Pump(*replicator, *sink, 200);
  ASSERT_TRUE(replicator->Drained());
  EXPECT_EQ(replicator->stats().deltas_delivered, 1u);
  ExpectIdentity(*replicator);
  ExpectParentHoldsChildState(*sink);
}

TEST_F(SpoolDurabilityTest, MarkerFailureTrimsNothingAndRestartSkipsAcked) {
  // A directory where the trim marker goes: no marker write can land.
  fs::create_directories(fs::path(SpoolDir()) / "acked.smbspoolmark");
  auto sink = MakeSink();
  auto replicator = MakeReplicator(/*spool_sync=*/false);
  std::string error;
  for (uint64_t flow = 1; flow <= 3; ++flow) {
    RecordBurst(*replicator, flow);
    ASSERT_EQ(replicator->CutDelta(&error), ChildReplicator::CutStatus::kCut);
  }
  Pump(*replicator, *sink, 200);
  ASSERT_EQ(sink->Children(now_ms_).at(0).acked_seq, 3u);
  // Acked, but the marker is not durable: nothing was trimmed.
  EXPECT_EQ(replicator->stats().spooled_deltas, 3u);
  EXPECT_EQ(replicator->stats().deltas_delivered, 0u);
  EXPECT_EQ(replicator->acked_seq(), 0u);
  ExpectIdentity(*replicator);

  // Child restart: the next sequence must be past everything acked, even
  // for a delta cut before the parent's hello-ack arrives.
  replicator.reset();
  replicator = MakeReplicator(/*spool_sync=*/false);
  EXPECT_GT(replicator->next_seq(), 3u);
  ExpectIdentity(*replicator);
  RecordBurst(*replicator, 4);
  ASSERT_EQ(replicator->CutDelta(&error), ChildReplicator::CutStatus::kCut);

  // With the marker writable again, the hello-ack trims and the new
  // delta lands instead of being dropped as a duplicate.
  fs::remove(fs::path(SpoolDir()) / "acked.smbspoolmark");
  Pump(*replicator, *sink, 200);
  ASSERT_TRUE(replicator->Drained());
  EXPECT_EQ(replicator->acked_seq(), 4u);
  ExpectIdentity(*replicator);
  ExpectParentHoldsChildState(*sink);
}

TEST_F(SpoolDurabilityTest, UnreadableMiddleDeltaIsResentInOrder) {
  ExpectUnreadableDeltaResent(2);
}

TEST_F(SpoolDurabilityTest, UnreadableLastDeltaIsResentInOrder) {
  ExpectUnreadableDeltaResent(3);
}

TEST_F(SpoolDurabilityTest, CorruptMarkerRestartRenumbersPastTheParentMark) {
  auto sink = MakeSink();
  auto replicator = MakeReplicator(/*spool_sync=*/false);
  std::string error;
  for (uint64_t flow = 1; flow <= 3; ++flow) {
    RecordBurst(*replicator, flow);
    ASSERT_EQ(replicator->CutDelta(&error), ChildReplicator::CutStatus::kCut);
  }
  Pump(*replicator, *sink, 200);
  ASSERT_TRUE(replicator->Drained());
  ASSERT_EQ(replicator->acked_seq(), 3u);

  // Bit rot in the trim marker, with every acked delta trimmed: the
  // restarted spool drops the marker and its floor falls back to 1.
  replicator.reset();
  const fs::path marker = fs::path(SpoolDir()) / "acked.smbspoolmark";
  {
    std::fstream file(marker, std::ios::in | std::ios::out |
                                  std::ios::binary);
    file.seekp(-1, std::ios::end);
    file.put('\x5a');
  }
  replicator = MakeReplicator(/*spool_sync=*/false);
  ASSERT_EQ(replicator->next_seq(), 1u);

  // Two deltas cut before the hello-ack, both touching flow 1, so the
  // parent ends right only if they keep their order.
  RecordBurst(*replicator, 4);
  RecordBurst(*replicator, 1);
  ASSERT_EQ(replicator->CutDelta(&error), ChildReplicator::CutStatus::kCut);
  RecordBurst(*replicator, 1);
  ASSERT_EQ(replicator->CutDelta(&error), ChildReplicator::CutStatus::kCut);
  Pump(*replicator, *sink, 200);
  ASSERT_TRUE(replicator->Drained());
  EXPECT_EQ(replicator->acked_seq(), 5u);
  EXPECT_EQ(replicator->next_seq(), 6u);
  EXPECT_EQ(replicator->stats().deltas_delivered, 2u);
  ExpectIdentity(*replicator);
  ExpectParentHoldsChildState(*sink);
}

}  // namespace
}  // namespace smb::repl
