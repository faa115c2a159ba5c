// Golden byte fixtures for every sketch-state byte surface: the FLW1
// snapshot (Serialize, SerializeFlows), its SMBZ1 compression and
// decompression, and a parent's SMBRPAR1 checkpoint with compressed
// replica snapshots. The hashes pin the formats byte for byte, so a
// faster writer, reader or slot encoder must reproduce them exactly —
// a round-trip test alone would accept an encoder that picks a
// different (still valid) slot mode.
//
// The engine uses the CLI geometry (num_bits 10000: the last bitmap
// word holds 16 bits) and holds nursery rows, main rows, cold-frozen
// flows, and slots in every encoder mode: sparse over set bits, sparse
// over zero bits (late-round dense), rle (clustered) and raw (high
// entropy).

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "codec/smbz1.h"
#include "common/bit_util.h"
#include "common/random.h"
#include "estimators/estimator_factory.h"
#include "flow/arena_smb_engine.h"
#include "hash/xxhash64.h"
#include "io/checkpoint_store.h"
#include "repl/child_replicator.h"
#include "repl/replication_sink.h"
#include "repl/wire_format.h"

namespace smb::codec {
namespace {

namespace fs = std::filesystem;

// Pinned at the commit that introduced these fixtures; every later
// change to the byte writers must leave them unchanged.
constexpr uint64_t kSerializeHash = 0x6b4dcd3b54095cbb;
constexpr uint64_t kSerializeFlowsHash = 0x3417501ee8742a51;
constexpr uint64_t kCompressedHash = 0x4387beebc89a281d;
constexpr uint64_t kCheckpointHash = 0x859b9c32ea2bee44;

uint64_t HashBytes(const std::vector<uint8_t>& bytes) {
  return XxHash64(bytes.data(), bytes.size(), 0);
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

// The CLI's per-flow geometry: --memory 10000 --design 1000000.
ArenaSmbEngine::Config CliGeometry() {
  EstimatorSpec spec;
  spec.hash_seed = 0x601D;
  return *ArenaSmbEngine::ConfigForSpec(spec);
}

// Sets `count` distinct random positions below num_bits.
std::vector<uint64_t> RandomBits(Xoshiro256& rng, size_t num_bits,
                                 size_t count) {
  std::vector<uint64_t> words((num_bits + 63) / 64, 0);
  size_t set = 0;
  while (set < count) {
    const uint64_t pos = rng.NextBounded(num_bits);
    const uint64_t bit = uint64_t{1} << (pos & 63);
    if ((words[pos >> 6] & bit) != 0) continue;
    words[pos >> 6] |= bit;
    ++set;
  }
  return words;
}

// Plants `words` as a reachable (round, ones) state: round is the
// popcount's whole thresholds, capped at the final round.
void Plant(ArenaSmbEngine& engine, uint64_t flow,
           const std::vector<uint64_t>& words) {
  uint64_t popcount = 0;
  for (const uint64_t w : words) {
    popcount += static_cast<uint64_t>(Popcount64(w));
  }
  const uint64_t threshold = engine.config().threshold;
  const uint64_t round =
      std::min<uint64_t>(popcount / threshold, engine.max_round());
  ASSERT_TRUE(engine.UpsertFlowState(
      flow, static_cast<uint32_t>(round),
      static_cast<uint32_t>(popcount - round * threshold), words));
}

constexpr uint64_t kDenseBase = 1000000;
constexpr uint64_t kClusteredBase = 2000000;
constexpr uint64_t kEntropyBase = 3000000;

void FillGoldenEngine(ArenaSmbEngine& engine) {
  Xoshiro256 rng(0x60D);
  const size_t num_bits = engine.config().num_bits;
  // Main rows: a few hundred distinct elements each, promoted out of
  // the nursery, still round 0 — sparse over set bits.
  for (uint64_t flow = 1; flow <= 40; ++flow) {
    const size_t packets = 20 + rng.NextBounded(400);
    for (size_t p = 0; p < packets; ++p) engine.Record(flow, rng.Next());
  }
  // Late-round dense: all ones but for a few zeros — sparse over zeros.
  const uint64_t threshold = engine.config().threshold;
  for (uint64_t i = 0; i < 6; ++i) {
    std::vector<uint64_t> words =
        RandomBits(rng, num_bits, num_bits - 1 - rng.NextBounded(12));
    ASSERT_GE(num_bits - 12, engine.max_round() * threshold);
    Plant(engine, kDenseBase + i, words);
  }
  // Clustered (as after a merge of range-partitioned inputs): whole
  // words of ones, then zeros — rle.
  for (uint64_t i = 0; i < 6; ++i) {
    std::vector<uint64_t> words((num_bits + 63) / 64, 0);
    const size_t full = 10 + rng.NextBounded(40);
    for (size_t w = 0; w < full; ++w) words[w] = ~uint64_t{0};
    words[full] = rng.Next() & rng.Next();
    Plant(engine, kClusteredBase + i, words);
  }
  // Mid-fill high entropy — raw.
  for (uint64_t i = 0; i < 6; ++i) {
    Plant(engine, kEntropyBase + i,
          RandomBits(rng, num_bits, num_bits / 3 + rng.NextBounded(3000)));
  }
  // Nursery rows: a handful of elements each, recorded last so the
  // budget's CLOCK hand freezes older rows first.
  for (uint64_t flow = 101; flow <= 400; ++flow) {
    const size_t packets = 1 + rng.NextBounded(8);
    for (size_t p = 0; p < packets; ++p) engine.Record(flow, rng.Next());
  }
}

ArenaSmbEngine GoldenEngine() {
  ArenaSmbEngine::Config config = CliGeometry();
  config.tuning.memory_budget_bytes = 48 * 1024;
  config.tuning.cold_tier = true;
  ArenaSmbEngine engine(config);
  FillGoldenEngine(engine);
  return engine;
}

// Mode byte of every slot record the encoder emits for `engine`'s flows:
// 0 raw, 1 sparse over set bits, 5 sparse over zero bits, 2 rle.
std::array<size_t, 6> ModeBytes(const ArenaSmbEngine& engine) {
  std::array<size_t, 6> tally{};
  engine.ForEachFlowState([&](uint64_t, uint32_t round, uint32_t ones,
                              std::span<const uint64_t> words) {
    std::vector<uint8_t> record;
    EncodeSlot(engine.config().num_bits, SlotState{round, ones, words},
               &record);
    ++tally[record[0]];
  });
  return tally;
}

TEST(Smbz1GoldenTest, FixtureCoversEveryTierAndMode) {
  const ArenaSmbEngine engine = GoldenEngine();
  ASSERT_EQ(engine.config().num_bits, 10000u);
  const auto stats = engine.Stats();
  EXPECT_GT(stats.nursery_flows, 0u);
  EXPECT_GT(stats.main_flows, 0u);
  EXPECT_GT(stats.cold_flows, 0u);
  const std::array<size_t, 6> modes = ModeBytes(engine);
  EXPECT_GT(modes[0], 0u) << "raw";
  EXPECT_GT(modes[1], 0u) << "sparse over set bits";
  EXPECT_GT(modes[5], 0u) << "sparse over zero bits";
  EXPECT_GT(modes[2], 0u) << "rle";
}

TEST(Smbz1GoldenTest, SnapshotBytesArePinned) {
  const ArenaSmbEngine engine = GoldenEngine();
  const std::vector<uint8_t> flw1 = engine.Serialize();
  EXPECT_EQ(HashBytes(flw1), kSerializeHash) << Hex(HashBytes(flw1));

  // One flow listed twice (the image keeps its first position), one
  // unknown flow, and rows from each tier and planted mode.
  const std::vector<uint64_t> subset = {
      kEntropyBase + 2, 150, 7, kDenseBase + 1, 150, 999999,
      kClusteredBase + 3, 3, 399};
  const std::vector<uint8_t> flows = engine.SerializeFlows(subset);
  EXPECT_EQ(HashBytes(flows), kSerializeFlowsHash) << Hex(HashBytes(flows));

  const auto packed = CompressFlw1Image(flw1);
  ASSERT_TRUE(packed.has_value());
  EXPECT_EQ(HashBytes(*packed), kCompressedHash) << Hex(HashBytes(*packed));

  const auto unpacked = DecompressToFlw1Image(*packed);
  ASSERT_TRUE(unpacked.has_value());
  EXPECT_EQ(HashBytes(*unpacked), kSerializeHash);

  // The restored engine re-serializes to the same image.
  const auto restored = ArenaSmbEngine::Deserialize(*unpacked);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(HashBytes(restored->Serialize()), kSerializeHash);
}

// A parent that applied one compressed delta carrying the whole fixture
// checkpoints SMBRPAR1 with the replica SMBZ1-compressed.
TEST(Smbz1GoldenTest, ParentCheckpointBytesArePinned) {
  const fs::path dir = fs::path(::testing::TempDir()) / "smbz1_golden_repl";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ArenaSmbEngine child_engine(CliGeometry());
  FillGoldenEngine(child_engine);

  repl::ReplicationSink::Options sink_options;
  sink_options.socket_path = (dir / "parent.sock").string();
  sink_options.engine_config = CliGeometry();
  sink_options.checkpoint_dir = (dir / "ckpt").string();
  sink_options.checkpoint_sync = false;
  {
    repl::ReplicationSink sink(sink_options);
    std::string error;
    ASSERT_TRUE(sink.Listen(&error)) << error;

    repl::ChildReplicator::Options child_options;
    child_options.socket_path = sink_options.socket_path;
    child_options.child_id = 7;
    child_options.spool.directory = (dir / "spool").string();
    child_options.spool.sync = false;
    child_options.backoff_initial_ms = 5;
    child_options.backoff_max_ms = 40;
    child_options.codec_mask = repl::kCodecSmbz1;
    repl::ChildReplicator child(&child_engine, child_options);
    child_engine.ForEachFlow(
        [&](uint64_t flow, double) { child.NoteRecorded(flow); });
    ASSERT_EQ(child.CutDelta(&error),
              repl::ChildReplicator::CutStatus::kCut)
        << error;
    uint64_t now_ms = 1000;
    for (size_t step = 0; step < 3000 && !child.Drained(); ++step) {
      child.Tick(now_ms);
      sink.PollOnce(now_ms, 0);
      now_ms += 5;
    }
    ASSERT_TRUE(child.Drained());
    ASSERT_EQ(sink.stats().rejected_payloads, 0u);
    ASSERT_GT(sink.stats().checkpoints_written, 0u);
  }

  io::CheckpointStore::Options store_options;
  store_options.directory = sink_options.checkpoint_dir;
  io::CheckpointStore store(store_options);
  const io::CheckpointStore::RecoverResult latest = store.RecoverLatest();
  ASSERT_TRUE(latest.ok) << latest.error;
  EXPECT_EQ(HashBytes(latest.payload), kCheckpointHash)
      << Hex(HashBytes(latest.payload));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace smb::codec
