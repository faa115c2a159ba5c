// The parent's apply rule (DESIGN.md §16), driven by a hand-scripted
// child over a real socket: a child's deltas apply strictly in sequence
// order, a duplicate is dropped and re-acked with the persisted mark, and
// a delta past a gap applies nothing and recycles the connection. Seeded
// schedules of permutations and duplicates, retransmitted on a fresh
// connection after every recycle (as a child does), leave the replica
// bit-identical to the in-order apply.
//
// The frames come from a raw client, because ChildReplicator only ever
// sends its spool in order.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "fault/failpoints.h"
#include "flow/arena_smb_engine.h"
#include "repl/replication_sink.h"
#include "repl/uds_socket.h"
#include "repl/wire_format.h"
#include "telemetry/metrics_registry.h"

namespace smb::repl {
namespace {

namespace fs = std::filesystem;

ArenaSmbEngine::Config SmallConfig() {
  ArenaSmbEngine::Config config;
  config.num_bits = 256;
  config.threshold = 32;
  config.base_seed = 0x0DE5;
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

// Child 1's side of one connection: a hello on construction, then
// whatever frames the test sends.
class ScriptedChild {
 public:
  explicit ScriptedChild(const std::string& socket_path) {
    std::string error;
    EXPECT_EQ(StartConnect(socket_path, &fd_, &error),
              ConnectStart::kConnected)
        << error;
    const ArenaSmbEngine::Config config = SmallConfig();
    Send(FrameType::kHello, 1,
         EncodeFingerprint(
             {config.num_bits, config.threshold, config.base_seed}));
  }

  void Send(FrameType type, uint64_t seq, std::vector<uint8_t> payload) {
    Frame frame;
    frame.type = type;
    frame.child_id = 1;
    frame.seq = seq;
    frame.payload = std::move(payload);
    const std::vector<uint8_t> bytes = EncodeFrame(frame);
    size_t taken = 0;
    std::string error;
    ASSERT_EQ(SendSome(fd_.fd(), bytes, &taken, &error), IoStatus::kOk)
        << error;
    ASSERT_EQ(taken, bytes.size());
  }

  // Appends every frame the parent sent so far; notes its close.
  void Receive(std::vector<Frame>* frames) {
    std::vector<uint8_t> bytes;
    std::string error;
    const IoStatus status = RecvSome(fd_.fd(), &bytes, &error);
    if (status == IoStatus::kClosed || status == IoStatus::kError) {
      closed_ = true;
    }
    decoder_.Feed(bytes);
    Frame frame;
    while (decoder_.Next(&frame, &error) == FrameDecoder::Result::kFrame) {
      frames->push_back(frame);
    }
  }

  bool closed() const { return closed_; }

 private:
  UdsFd fd_;
  FrameDecoder decoder_;
  bool closed_ = false;
};

class ParentApplyOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("parent_order_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fault::FailpointRegistry::Global().ClearAll();
    // Deltas over overlapping flows, so applying one out of order would
    // leave an older state behind.
    Xoshiro256 traffic(42);
    for (size_t d = 0; d < kDeltas; ++d) {
      std::vector<uint64_t> dirty;
      const size_t flows = 1 + traffic.NextBounded(4);
      for (size_t f = 0; f < flows; ++f) {
        const uint64_t flow = 1 + traffic.NextBounded(10);
        const size_t packets = 1 + traffic.NextBounded(200);
        for (size_t p = 0; p < packets; ++p) {
          child_.Record(flow, traffic.Next());
        }
        dirty.push_back(flow);
      }
      std::sort(dirty.begin(), dirty.end());
      dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
      payloads_.push_back(child_.SerializeSmbz1(dirty));
    }
  }
  void TearDown() override {
    fault::FailpointRegistry::Global().ClearAll();
    fs::remove_all(dir_);
  }

  std::string SocketPath(uint64_t n = 0) const {
    return (dir_ / ("parent-" + std::to_string(n) + ".sock")).string();
  }

  ReplicationSink::Options SinkOptions(bool durable, uint64_t n = 0) const {
    ReplicationSink::Options options;
    options.socket_path = SocketPath(n);
    options.engine_config = SmallConfig();
    if (durable) options.checkpoint_dir = (dir_ / "ckpt").string();
    return options;
  }

  std::unique_ptr<ReplicationSink> Listening(bool durable, uint64_t n = 0) {
    auto sink = std::make_unique<ReplicationSink>(SinkOptions(durable, n));
    std::string error;
    EXPECT_TRUE(sink->Listen(&error)) << error;
    return sink;
  }

  template <typename Done>
  void PollUntil(ReplicationSink& sink, const Done& done) {
    for (int i = 0; i < 100 && !done(); ++i) sink.PollOnce(now_ms_, 10);
  }

  // Pumps until the client holds one more frame than `frames` does now.
  Frame NextFrame(ReplicationSink& sink, ScriptedChild& client,
                  std::vector<Frame>* frames) {
    const size_t had = frames->size();
    PollUntil(sink, [&] {
      client.Receive(frames);
      return frames->size() > had;
    });
    EXPECT_GT(frames->size(), had) << "no frame from the parent";
    return frames->size() > had ? frames->back() : Frame{};
  }

  void SendDelta(ScriptedChild& client, uint64_t seq) {
    client.Send(FrameType::kDelta, seq, payloads_[seq - 1]);
  }

  // The replica deltas 1..n build when applied in order.
  FlowFingerprint InOrder(size_t n) const {
    ArenaSmbEngine replica(SmallConfig());
    for (size_t d = 0; d < n; ++d) {
      EXPECT_TRUE(replica.ApplySmbz1(payloads_[d]));
    }
    return Fingerprint(replica);
  }

  // Child 1's view (all zero before its first hello).
  static ReplicationSink::ChildInfo Info(const ReplicationSink& sink) {
    const auto infos = sink.Children(0);
    return infos.empty() ? ReplicationSink::ChildInfo{} : infos[0];
  }

  static constexpr size_t kDeltas = 24;
  fs::path dir_;
  ArenaSmbEngine child_{SmallConfig()};
  std::vector<std::vector<uint8_t>> payloads_;
  uint64_t now_ms_ = 1000;
};

TEST_F(ParentApplyOrderTest, InOrderDeltasApplyAndAreAcked) {
  auto sink = Listening(/*durable=*/false);
  ScriptedChild client(SocketPath());
  std::vector<Frame> frames;
  const Frame hello_ack = NextFrame(*sink, client, &frames);
  EXPECT_EQ(hello_ack.type, FrameType::kHelloAck);
  EXPECT_EQ(hello_ack.seq, 0u);

  for (uint64_t seq = 1; seq <= 5; ++seq) SendDelta(client, seq);
  PollUntil(*sink, [&] {
    client.Receive(&frames);
    return frames.back().seq == 5;
  });
  EXPECT_EQ(frames.back().type, FrameType::kAck);
  EXPECT_EQ(frames.back().seq, 5u);
  EXPECT_EQ(sink->stats().deltas_applied, 5u);
  EXPECT_EQ(sink->stats().dup_dropped, 0u);
  EXPECT_EQ(sink->stats().out_of_order, 0u);
  EXPECT_EQ(sink->stats().conns_dropped, 0u);
  EXPECT_EQ(Info(*sink).applied_seq, 5u);
  EXPECT_EQ(Info(*sink).acked_seq, 5u);
  EXPECT_EQ(Fingerprint(*sink->Replica(1)), InOrder(5));
}

TEST_F(ParentApplyOrderTest, DuplicateIsReackedWithThePersistedMark) {
  auto sink = Listening(/*durable=*/true);
  ScriptedChild client(SocketPath());
  std::vector<Frame> frames;
  NextFrame(*sink, client, &frames);  // hello-ack
  SendDelta(client, 1);
  EXPECT_EQ(NextFrame(*sink, client, &frames).seq, 1u);

  // Delta 2 applies, but its checkpoint fails: applied 2, persisted 1.
  fault::FailpointRegistry::Global().Set(
      "checkpoint.write.error",
      fault::FailpointSpec{fault::FailpointAction::kReturnError});
  SendDelta(client, 2);
  PollUntil(*sink, [&] { return sink->stats().deltas_applied == 2; });
  EXPECT_GT(sink->stats().checkpoint_failures, 0u);
  EXPECT_EQ(Info(*sink).applied_seq, 2u);
  EXPECT_EQ(Info(*sink).acked_seq, 1u);

  // A copy of the applied-but-unpersisted delta, then one of the
  // persisted one: each is dropped and re-acked with the persisted mark.
  for (const uint64_t seq : {2u, 1u}) {
    SendDelta(client, seq);
    const Frame ack = NextFrame(*sink, client, &frames);
    EXPECT_EQ(ack.type, FrameType::kAck);
    EXPECT_EQ(ack.seq, 1u) << "re-ack of " << seq;
  }
  EXPECT_EQ(sink->stats().dup_dropped, 2u);
  EXPECT_EQ(Info(*sink).dup_dropped, 2u);
  EXPECT_EQ(sink->stats().deltas_applied, 2u);
  EXPECT_EQ(sink->stats().conns_dropped, 0u);
  EXPECT_EQ(Fingerprint(*sink->Replica(1)), InOrder(2));
}

TEST_F(ParentApplyOrderTest, GapRecyclesTheConnectionAndAppliesNothing) {
  auto sink = Listening(/*durable=*/false);
  auto* out_of_order = telemetry::MetricsRegistry::Global().GetCounter(
      "repl_parent_out_of_order_total");
  const uint64_t counted_before = out_of_order->Value();
  {
    ScriptedChild client(SocketPath());
    std::vector<Frame> frames;
    NextFrame(*sink, client, &frames);  // hello-ack
    SendDelta(client, 1);
    EXPECT_EQ(NextFrame(*sink, client, &frames).seq, 1u);

    SendDelta(client, 3);  // 2 never sent
    PollUntil(*sink, [&] {
      client.Receive(&frames);
      return client.closed();
    });
    EXPECT_TRUE(client.closed());
  }
  EXPECT_EQ(sink->stats().out_of_order, 1u);
  EXPECT_EQ(out_of_order->Value() - counted_before, 1u);
  EXPECT_EQ(sink->stats().conns_dropped, 1u);
  EXPECT_EQ(sink->stats().deltas_applied, 1u);
  EXPECT_EQ(sink->stats().rejected_payloads, 0u);
  EXPECT_EQ(Info(*sink).applied_seq, 1u);
  EXPECT_EQ(Fingerprint(*sink->Replica(1)), InOrder(1));

  // The retransmission in order from the ack applies both.
  ScriptedChild client(SocketPath());
  std::vector<Frame> frames;
  EXPECT_EQ(NextFrame(*sink, client, &frames).seq, 1u);
  SendDelta(client, 2);
  SendDelta(client, 3);
  PollUntil(*sink, [&] { return sink->stats().deltas_applied == 3; });
  EXPECT_EQ(Info(*sink).applied_seq, 3u);
  EXPECT_EQ(Fingerprint(*sink->Replica(1)), InOrder(3));
}

TEST_F(ParentApplyOrderTest, RejectedPayloadDoesNotAdvanceTheAppliedMark) {
  auto sink = Listening(/*durable=*/false);
  {
    ScriptedChild client(SocketPath());
    std::vector<uint8_t> bad = payloads_[0];
    bad[bad.size() / 2] ^= 0x10;  // SMBZ1 CRC mismatch
    client.Send(FrameType::kDelta, 1, bad);
    PollUntil(*sink, [&] { return sink->stats().rejected_payloads == 1; });
  }
  EXPECT_EQ(sink->stats().rejected_payloads, 1u);
  EXPECT_EQ(sink->stats().conns_dropped, 1u);
  EXPECT_EQ(Info(*sink).applied_seq, 0u);

  // The retransmitted delta 1 is not a duplicate: it applies.
  ScriptedChild client(SocketPath());
  SendDelta(client, 1);
  PollUntil(*sink, [&] { return sink->stats().deltas_applied == 1; });
  EXPECT_EQ(sink->stats().deltas_applied, 1u);
  EXPECT_EQ(sink->stats().dup_dropped, 0u);
  EXPECT_EQ(Info(*sink).applied_seq, 1u);
  EXPECT_EQ(Fingerprint(*sink->Replica(1)), InOrder(1));
}

TEST_F(ParentApplyOrderTest, RecoveredMarkDropsDuplicatesAndAppliesTheNext) {
  {
    auto sink = Listening(/*durable=*/true);
    ScriptedChild client(SocketPath());
    for (uint64_t seq = 1; seq <= 3; ++seq) SendDelta(client, seq);
    PollUntil(*sink, [&] { return Info(*sink).acked_seq == 3; });
    ASSERT_EQ(Info(*sink).acked_seq, 3u);
  }
  // A restarted parent resumes both marks from its checkpoint.
  auto sink = Listening(/*durable=*/true);
  EXPECT_EQ(Info(*sink).applied_seq, 3u);
  EXPECT_EQ(Info(*sink).acked_seq, 3u);
  ScriptedChild client(SocketPath());
  std::vector<Frame> frames;
  EXPECT_EQ(NextFrame(*sink, client, &frames).seq, 3u);  // hello-ack
  for (const uint64_t seq : {2u, 3u}) {
    SendDelta(client, seq);
    EXPECT_EQ(NextFrame(*sink, client, &frames).seq, 3u) << seq;
  }
  EXPECT_EQ(sink->stats().dup_dropped, 2u);
  SendDelta(client, 4);
  EXPECT_EQ(NextFrame(*sink, client, &frames).seq, 4u);
  EXPECT_EQ(sink->stats().deltas_applied, 1u);
  EXPECT_EQ(Fingerprint(*sink->Replica(1)), InOrder(4));
}

// Every delta goes out one to three times, in a seeded order shuffled
// within a window of 6. A delta the parent refuses past a gap is sent
// again later on a new connection, the way a child retransmits after a
// recycle. Whatever the schedule, the replica ends equal to the in-order
// apply and to the child's own flow states.
TEST_F(ParentApplyOrderTest, ScrambledDeliveryMatchesInOrder) {
  const FlowFingerprint want = InOrder(kDeltas);
  ASSERT_FALSE(want.empty());
  uint64_t refused = 0;
  for (uint64_t scramble_seed = 1; scramble_seed <= 8; ++scramble_seed) {
    SCOPED_TRACE("scramble seed " + std::to_string(scramble_seed));
    auto sink = Listening(/*durable=*/false, scramble_seed);
    Xoshiro256 rng(scramble_seed);
    std::vector<uint64_t> schedule;
    for (uint64_t seq = 1; seq <= kDeltas; ++seq) {
      const size_t copies = 1 + rng.NextBounded(3);
      for (size_t c = 0; c < copies; ++c) schedule.push_back(seq);
    }
    constexpr size_t kWindow = 6;
    for (size_t i = 0; i < schedule.size(); ++i) {
      const size_t span = std::min(kWindow, schedule.size() - 1 - i);
      if (span > 0) {
        std::swap(schedule[i], schedule[i + 1 + rng.NextBounded(span)]);
      }
    }

    auto client = std::make_unique<ScriptedChild>(SocketPath(scramble_seed));
    uint64_t frames_sent = 1;  // the hello
    for (size_t i = 0; i < schedule.size(); ++i) {
      ASSERT_LT(schedule.size(), 10000u) << "retransmit loop diverged";
      const uint64_t seq = schedule[i];
      const uint64_t drops = sink->stats().conns_dropped;
      SendDelta(*client, seq);
      ++frames_sent;
      PollUntil(*sink,
                [&] { return sink->stats().frames_received == frames_sent; });
      ASSERT_EQ(sink->stats().frames_received, frames_sent);
      if (sink->stats().conns_dropped != drops) {
        schedule.push_back(seq);
        client = std::make_unique<ScriptedChild>(SocketPath(scramble_seed));
        ++frames_sent;
      }
    }
    EXPECT_EQ(sink->stats().deltas_applied, kDeltas);
    EXPECT_EQ(sink->stats().rejected_payloads, 0u);
    EXPECT_EQ(Info(*sink).applied_seq, kDeltas);
    EXPECT_EQ(Fingerprint(*sink->Replica(1)), want);
    for (const auto& [flow, state] : want) {
      EXPECT_EQ(sink->Replica(1)->Query(flow), child_.Query(flow))
          << "flow " << flow;
    }
    refused += sink->stats().out_of_order;
  }
  // The schedules did reach past gaps, so the retransmit path ran.
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace smb::repl
