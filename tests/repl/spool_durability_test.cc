// Spool durability failures seen through ChildReplicator: a failed spool
// fsync fails the cut without consuming a sequence number or the dirty
// set, and a trim marker that cannot be written trims nothing, so a
// restarted child never reuses a sequence number the parent applied.
// Both keep deltas_cut == delivered + spooled + shed.

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
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

}  // namespace
}  // namespace smb::repl
