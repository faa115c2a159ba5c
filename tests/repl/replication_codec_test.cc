// SMBZ1 over the replication path (DESIGN.md §17): compressed delta
// convergence to the oracle merge, compressed parent checkpoints across
// restarts, and the parent refusing per-flow state in any other encoding
// (a raw FLW1 delta on the wire, a raw FLW1 replica in its checkpoint).

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "codec/smbz1.h"
#include "common/le_bytes.h"
#include "common/random.h"
#include "hash/murmur3.h"
#include "flow/arena_smb_engine.h"
#include "io/checkpoint_store.h"
#include "io/crc32c.h"
#include "repl/child_replicator.h"
#include "repl/replication_sink.h"
#include "repl/uds_socket.h"
#include "repl/wire_format.h"
#include "telemetry/metrics_registry.h"

namespace smb::repl {
namespace {

namespace fs = std::filesystem;

// --------------------------------------------------------------------------
// End-to-end over real sockets, lockstep fake clock (the harness mirrors
// replication_e2e_test.cc).

ArenaSmbEngine::Config SmallConfig() {
  ArenaSmbEngine::Config config;
  config.num_bits = 256;
  config.threshold = 32;
  config.base_seed = 0x5EED;
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

class ReplicationCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("repl_codec_" + std::string(::testing::UnitTest::GetInstance()
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

  Child MakeChild(uint64_t id) {
    Child child;
    child.id = id;
    child.engine = std::make_unique<ArenaSmbEngine>(SmallConfig());
    ChildReplicator::Options options;
    options.socket_path = SocketPath();
    options.child_id = id;
    options.spool.directory = (dir_ / ("spool-" + std::to_string(id))).string();
    options.spool.sync = false;
    options.backoff_initial_ms = 5;
    options.backoff_max_ms = 40;
    options.heartbeat_interval_ms = 20;
    child.replicator =
        std::make_unique<ChildReplicator>(child.engine.get(), options);
    return child;
  }

  // Sparse bursts (single-digit packets) so compressed deltas beat raw
  // by a wide margin, not a rounding error.
  void RecordBurst(Child& child, uint64_t flow, size_t packets,
                   Xoshiro256& rng) {
    for (size_t p = 0; p < packets; ++p) child.engine->Record(flow, rng.Next());
    child.replicator->NoteRecorded(flow);
  }

  void Step(ReplicationSink* sink, std::vector<Child>& children) {
    for (Child& child : children) child.replicator->Tick(now_ms_);
    if (sink) sink->PollOnce(now_ms_, 0);
    now_ms_ += 5;
  }

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
          << "child " << child.id << " still undrained";
    }
  }

  FlowFingerprint OracleFingerprint(const std::vector<Child>& children) {
    ArenaSmbEngine merged(SmallConfig());
    for (const Child& child : children) merged.MergeFrom(*child.engine);
    return Fingerprint(merged);
  }

  // Cuts `bursts` sparse deltas per child and drains them.
  void RunSparseLoad(ReplicationSink* sink, std::vector<Child>& children,
                     size_t bursts, uint64_t seed) {
    std::string error;
    Xoshiro256 rng(seed);
    for (size_t burst = 0; burst < bursts; ++burst) {
      for (Child& child : children) {
        RecordBurst(child, 1 + rng.NextBounded(50), 1 + rng.NextBounded(6),
                    rng);
        RecordBurst(child, 1 + rng.NextBounded(50), 1 + rng.NextBounded(6),
                    rng);
        ASSERT_EQ(child.replicator->CutDelta(&error),
                  ChildReplicator::CutStatus::kCut)
            << error;
      }
      for (int i = 0; i < 4; ++i) Step(sink, children);
    }
    DrainAll(sink, children);
  }

  fs::path dir_;
  uint64_t now_ms_ = 1000;
};

TEST_F(ReplicationCodecTest, CodecChildrenConvergeWithCompressedDeltas) {
  ReplicationSink sink(SinkOptions());
  std::string error;
  ASSERT_TRUE(sink.Listen(&error)) << error;

  std::vector<Child> children;
  for (uint64_t id = 1; id <= 3; ++id) {
    children.push_back(MakeChild(id));
  }
  RunSparseLoad(&sink, children, 4, 0xC0DE);

  EXPECT_EQ(Fingerprint(sink.MergedEngine()), OracleFingerprint(children));
  EXPECT_EQ(sink.stats().rejected_payloads, 0u);
  for (const Child& child : children) {
    const auto stats = child.replicator->stats();
    EXPECT_GT(stats.delta_raw_bytes, stats.delta_stored_bytes)
        << "sparse deltas should spool compressed";
  }
}

TEST_F(ReplicationCodecTest, CompressedCheckpointSurvivesRestart) {
  auto sink = std::make_unique<ReplicationSink>(SinkOptions(/*durable=*/true));
  std::string error;
  ASSERT_TRUE(sink->Listen(&error)) << error;

  std::vector<Child> children;
  for (uint64_t id = 1; id <= 2; ++id) {
    children.push_back(MakeChild(id));
  }
  RunSparseLoad(sink.get(), children, 2, 0xCDEF);
  ASSERT_GT(sink->stats().checkpoints_written, 0u);
  const FlowFingerprint acked = Fingerprint(sink->MergedEngine());

  // Kill and restart: the compressed per-child snapshots recover, and
  // the children keep streaming into the recovered replicas.
  sink.reset();
  sink = std::make_unique<ReplicationSink>(SinkOptions(/*durable=*/true));
  EXPECT_EQ(Fingerprint(sink->MergedEngine()), acked);
  ASSERT_TRUE(sink->Listen(&error)) << error;
  RunSparseLoad(sink.get(), children, 2, 0xFEED);
  EXPECT_EQ(Fingerprint(sink->MergedEngine()), OracleFingerprint(children));
}

// The child's codec setting has one legal value; 0 (the raw-FLW1 child
// of older builds) or an unknown bit fails construction.
TEST_F(ReplicationCodecTest, ChildRefusesAnyCodecButSmbz1) {
  ArenaSmbEngine engine(SmallConfig());
  ChildReplicator::Options options;
  options.socket_path = SocketPath();
  options.spool.directory = (dir_ / "spool").string();
  options.spool.sync = false;
  for (const uint64_t mask : {uint64_t{0}, kCodecSmbz1 << 1}) {
    options.codec_mask = mask;
    EXPECT_DEATH(ChildReplicator(&engine, options), "codec_mask")
        << "mask " << mask;
  }
}

// A delta is SMBZ1 or nothing: the same flow states as a raw FLW1
// image, framed and CRC-checked like any delta, are a rejected payload
// and leave the replica as the last SMBZ1 delta left it. The frames come
// from a hand-driven connection, because ChildReplicator only sends
// SMBZ1.
TEST_F(ReplicationCodecTest, RawFlw1DeltaIsARejectedPayload) {
  ReplicationSink sink(SinkOptions());
  std::string error;
  ASSERT_TRUE(sink.Listen(&error)) << error;
  UdsFd conn;
  ASSERT_EQ(StartConnect(SocketPath(), &conn, &error),
            ConnectStart::kConnected)
      << error;
  const auto send = [&](FrameType type, uint64_t seq,
                        std::vector<uint8_t> payload) {
    Frame frame;
    frame.type = type;
    frame.child_id = 1;
    frame.seq = seq;
    frame.payload = std::move(payload);
    const std::vector<uint8_t> bytes = EncodeFrame(frame);
    size_t taken = 0;
    ASSERT_EQ(SendSome(conn.fd(), bytes, &taken, &error), IoStatus::kOk)
        << error;
    ASSERT_EQ(taken, bytes.size());
  };
  const auto poll_until = [&](const auto& done) {
    for (int i = 0; i < 100 && !done(); ++i) sink.PollOnce(now_ms_, 10);
  };

  const ArenaSmbEngine::Config config = SmallConfig();
  send(FrameType::kHello, 1,
       EncodeFingerprint(
           {config.num_bits, config.threshold, config.base_seed}));
  ArenaSmbEngine child(config);
  for (uint64_t e = 0; e < 40; ++e) child.Record(1 + e % 4, e);
  const auto smbz1 = codec::CompressFlw1Image(child.Serialize());
  ASSERT_TRUE(smbz1.has_value());
  send(FrameType::kDelta, 1, *smbz1);
  poll_until([&] { return sink.stats().deltas_applied == 1; });
  ASSERT_EQ(sink.stats().deltas_applied, 1u);
  const FlowFingerprint applied = Fingerprint(sink.MergedEngine());
  EXPECT_EQ(applied, Fingerprint(child));

  for (uint64_t e = 40; e < 80; ++e) child.Record(1 + e % 4, e);
  send(FrameType::kDelta, 2, child.Serialize());
  poll_until([&] { return sink.stats().rejected_payloads == 1; });
  EXPECT_EQ(sink.stats().rejected_payloads, 1u);
  EXPECT_EQ(sink.stats().deltas_applied, 1u);
  EXPECT_EQ(Fingerprint(sink.MergedEngine()), applied);
  const auto infos = sink.Children(now_ms_);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].applied_seq, 1u);
  EXPECT_EQ(infos[0].rejected, 1u);
}

// Recomputes an SMBZ1 container's trailing CRC-32C after an edit, so the
// edit reaches the record decoder instead of dying at the CRC.
std::vector<uint8_t> Reseal(std::vector<uint8_t> bytes) {
  const uint32_t crc = io::Crc32c(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
  return bytes;
}

// An FLW1 image of `engine` with `edit` applied to its bytes and the
// checksum recomputed, compressed: SMBZ1 that clears the CRC but carries
// whatever defect the edit planted in the records.
template <typename Edit>
std::vector<uint8_t> EditedDelta(const ArenaSmbEngine& engine, Edit edit) {
  std::vector<uint8_t> image = engine.Serialize();
  edit(&image);
  image.resize(image.size() - 8);
  AppendU64(&image, Murmur3_128(image.data(), image.size(), 0x464C5731u).lo);
  auto packed = codec::CompressFlw1Image(image);
  EXPECT_TRUE(packed.has_value());
  return packed.value_or(std::vector<uint8_t>{});
}

// A delta is applied whole or not at all: each defect below — in the
// LAST record where a record defect is planted, so a record-by-record
// apply would already have touched the replica — is a rejected payload
// that leaves the replica FLW1-identical to what the last good delta
// left. Each bad delta recycles the connection, so each gets its own.
TEST_F(ReplicationCodecTest, DefectiveDeltasAreRejectedWhole) {
  ReplicationSink sink(SinkOptions());
  std::string error;
  ASSERT_TRUE(sink.Listen(&error)) << error;
  const ArenaSmbEngine::Config config = SmallConfig();
  const auto connect = [&] {
    UdsFd conn;
    EXPECT_EQ(StartConnect(SocketPath(), &conn, &error),
              ConnectStart::kConnected)
        << error;
    return conn;
  };
  const auto send = [&](const UdsFd& conn, FrameType type, uint64_t seq,
                        std::vector<uint8_t> payload) {
    Frame frame;
    frame.type = type;
    frame.child_id = 1;
    frame.seq = seq;
    frame.payload = std::move(payload);
    const std::vector<uint8_t> bytes = EncodeFrame(frame);
    size_t taken = 0;
    ASSERT_EQ(SendSome(conn.fd(), bytes, &taken, &error), IoStatus::kOk)
        << error;
    ASSERT_EQ(taken, bytes.size());
  };
  const auto hello = [&](const UdsFd& conn) {
    send(conn, FrameType::kHello, 1,
         EncodeFingerprint(
             {config.num_bits, config.threshold, config.base_seed}));
  };
  const auto poll_until = [&](const auto& done) {
    for (int i = 0; i < 100 && !done(); ++i) sink.PollOnce(now_ms_, 10);
  };

  ArenaSmbEngine child(config);
  for (uint64_t e = 0; e < 60; ++e) child.Record(1 + e % 4, e);
  {
    const UdsFd conn = connect();
    hello(conn);
    send(conn, FrameType::kDelta, 1, child.SerializeSmbz1());
    poll_until([&] { return sink.stats().deltas_applied == 1; });
  }
  ASSERT_EQ(sink.stats().deltas_applied, 1u);
  const std::vector<uint8_t> applied = sink.MergedEngine().Serialize();

  // The next delta changes every flow, so a partial apply would show.
  for (uint64_t e = 60; e < 200; ++e) child.Record(1 + e % 4, e);
  const size_t words = (config.num_bits + 63) / 64;
  const size_t record_bytes = (2 + words) * 8;
  const size_t last_record = 44 + (child.NumFlows() - 1) * record_bytes;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> bad;
  {
    std::vector<uint8_t> crc = child.SerializeSmbz1();
    crc[crc.size() / 2] ^= 0x10;
    bad.emplace_back("bad CRC", crc);
  }
  bad.emplace_back("unreachable state",
                   EditedDelta(child, [&](std::vector<uint8_t>* image) {
                     (*image)[last_record + 8] ^= 1;  // ones off by one
                   }));
  bad.emplace_back("duplicate key",
                   EditedDelta(child, [&](std::vector<uint8_t>* image) {
                     std::copy_n(image->begin() + 44, 8,
                                 image->begin() +
                                     static_cast<std::ptrdiff_t>(last_record));
                   }));
  {
    ArenaSmbEngine::Config other = config;
    other.base_seed ^= 1;
    ArenaSmbEngine stranger(other);
    for (uint64_t e = 0; e < 200; ++e) stranger.Record(1 + e % 4, e);
    bad.emplace_back("geometry mismatch", stranger.SerializeSmbz1());
  }
  {
    std::vector<uint8_t> trailing = child.SerializeSmbz1();
    trailing.insert(trailing.end() - 4, uint8_t{0});
    bad.emplace_back("trailing bytes", Reseal(trailing));
  }
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(bad[i].first);
    const UdsFd conn = connect();
    hello(conn);
    send(conn, FrameType::kDelta, 2, bad[i].second);
    poll_until([&] { return sink.stats().rejected_payloads == i + 1; });
    EXPECT_EQ(sink.stats().rejected_payloads, i + 1);
    EXPECT_EQ(sink.stats().deltas_applied, 1u);
    EXPECT_EQ(sink.MergedEngine().Serialize(), applied);
  }

  // The same delta, undamaged, applies.
  const UdsFd conn = connect();
  hello(conn);
  send(conn, FrameType::kDelta, 2, child.SerializeSmbz1());
  poll_until([&] { return sink.stats().deltas_applied == 2; });
  EXPECT_EQ(sink.stats().deltas_applied, 2u);
  EXPECT_EQ(Fingerprint(sink.MergedEngine()), Fingerprint(child));
}

// The raw-byte figures keep the meaning they had when every delta and
// replica snapshot was an FLW1 image first: the child's delta_raw_bytes
// is the size SerializeFlows gives the cut flows, and the parent's
// snapshot gauge the size Serialize gives its replicas.
TEST_F(ReplicationCodecTest, RawByteFiguresAreFlw1ImageSizes) {
  ReplicationSink sink(SinkOptions(/*durable=*/true));
  std::string error;
  ASSERT_TRUE(sink.Listen(&error)) << error;
  std::vector<Child> children;
  children.push_back(MakeChild(1));
  Child& child = children[0];
  Xoshiro256 rng(0xB17E);
  uint64_t flw1_bytes = 0;
  for (size_t cut = 0; cut < 3; ++cut) {
    std::vector<uint64_t> dirty;
    for (uint64_t flow = 1 + cut; flow <= 9; flow += 2) {
      RecordBurst(child, flow, 1 + rng.NextBounded(80), rng);
      dirty.push_back(flow);
    }
    flw1_bytes += child.engine->SerializeFlows(dirty).size();
    ASSERT_EQ(child.replicator->CutDelta(&error),
              ChildReplicator::CutStatus::kCut)
        << error;
    EXPECT_EQ(child.replicator->stats().delta_raw_bytes, flw1_bytes);
  }
  DrainAll(&sink, children);
  ASSERT_GT(sink.stats().checkpoints_written, 0u);
  EXPECT_EQ(telemetry::MetricsRegistry::Global()
                .GetGauge("repl_parent_snapshot_raw_bytes")
                ->Value(),
            static_cast<int64_t>(child.engine->Serialize().size()));
}

// The sink stores replicas SMBZ1 only, so a checkpoint holding a raw FLW1
// replica is not one it wrote: it recovers as a clean start, as for a
// geometry mismatch. The same replica stored SMBZ1 recovers.
TEST_F(ReplicationCodecTest, RawFlw1CheckpointRecoversAsCleanStart) {
  ArenaSmbEngine replica(SmallConfig());
  for (uint64_t e = 0; e < 500; ++e) replica.Record(e % 5, e);
  const auto options_over = [&](const std::string& name,
                                const std::vector<uint8_t>& snapshot) {
    ReplicationSink::Options options = SinkOptions(/*durable=*/true);
    options.checkpoint_dir = (dir_ / name).string();
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
    EXPECT_TRUE(store.Write(payload).ok);
    return options;
  };

  const auto smbz1 = codec::CompressFlw1Image(replica.Serialize());
  ASSERT_TRUE(smbz1.has_value());
  const ReplicationSink recovered(options_over("smbz1", *smbz1));
  ASSERT_EQ(recovered.NumChildren(), 1u);
  EXPECT_EQ(Fingerprint(recovered.MergedEngine()), Fingerprint(replica));

  const ReplicationSink clean(options_over("raw", replica.Serialize()));
  EXPECT_EQ(clean.NumChildren(), 0u);
  EXPECT_EQ(clean.MergedEngine().NumFlows(), 0u);
}

}  // namespace
}  // namespace smb::repl
