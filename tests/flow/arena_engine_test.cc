// ArenaSmbEngine unit tests: config envelope, record/query behaviour,
// footprint accounting, serialization round-trips (including through
// CheckpointStore), and corrupt-snapshot rejection.

#include "flow/arena_smb_engine.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <random>
#include <vector>

#include "core/smb_params.h"
#include "hash/murmur3.h"
#include "io/checkpoint_store.h"

namespace smb {
namespace {

ArenaSmbEngine::Config SmallConfig() {
  ArenaSmbEngine::Config config;
  config.num_bits = 5000;
  config.threshold = 500;
  config.base_seed = 42;
  return config;
}

ArenaSmbEngine FilledEngine(size_t flows, size_t elements_per_flow) {
  ArenaSmbEngine engine(SmallConfig());
  for (uint64_t f = 0; f < flows; ++f) {
    for (uint64_t e = 0; e < elements_per_flow; ++e) {
      engine.Record(f, e * 77 + f);
    }
  }
  return engine;
}

TEST(ArenaSmbEngineTest, SupportsEnvelope) {
  EXPECT_TRUE(ArenaSmbEngine::Supports(10000, 1000));
  EXPECT_TRUE(ArenaSmbEngine::Supports(8, 8));
  EXPECT_FALSE(ArenaSmbEngine::Supports(7, 1));       // too small
  EXPECT_FALSE(ArenaSmbEngine::Supports(100, 0));     // T < 1
  EXPECT_FALSE(ArenaSmbEngine::Supports(100, 101));   // T > m
  // m at/above 2^26 no longer fits the 26-bit fill field.
  EXPECT_FALSE(ArenaSmbEngine::Supports(size_t{1} << 26, 1 << 20));
  EXPECT_TRUE(ArenaSmbEngine::Supports((size_t{1} << 26) - 1, 1 << 20));
  // SmbMaxRound clamps at the 63 geometric-rank cap, so even tiny T
  // keeps the round inside the 6-bit field.
  EXPECT_TRUE(ArenaSmbEngine::Supports(10000, 100));
}

TEST(ArenaSmbEngineTest, ConfigForSpecMatchesFactory) {
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kSmb;
  spec.memory_bits = 5000;
  spec.design_cardinality = 100000;
  spec.hash_seed = 7;
  const auto config = ArenaSmbEngine::ConfigForSpec(spec);
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->num_bits, 5000u);
  EXPECT_EQ(config->threshold, OptimalThresholdValue(5000, 100000));
  EXPECT_EQ(config->base_seed, 7u);

  spec.kind = EstimatorKind::kHll;
  EXPECT_FALSE(ArenaSmbEngine::ConfigForSpec(spec).has_value());
}

TEST(ArenaSmbEngineTest, UnknownFlowQueriesZero) {
  ArenaSmbEngine engine(SmallConfig());
  EXPECT_EQ(engine.Query(123), 0.0);
  EXPECT_EQ(engine.NumFlows(), 0u);
}

TEST(ArenaSmbEngineTest, EstimatesTrackTrueCardinality) {
  ArenaSmbEngine engine(SmallConfig());
  for (uint64_t i = 0; i < 3000; ++i) engine.Record(1, i);
  for (uint64_t i = 0; i < 50; ++i) engine.Record(2, i);
  EXPECT_NEAR(engine.Query(1), 3000.0, 450.0);
  EXPECT_NEAR(engine.Query(2), 50.0, 20.0);
  EXPECT_EQ(engine.NumFlows(), 2u);
}

TEST(ArenaSmbEngineTest, DuplicateElementsDoNotInflate) {
  ArenaSmbEngine engine(SmallConfig());
  for (int rep = 0; rep < 20; ++rep) {
    for (uint64_t i = 0; i < 200; ++i) engine.Record(5, i);
  }
  EXPECT_NEAR(engine.Query(5), 200.0, 60.0);
}

TEST(ArenaSmbEngineTest, FlowsOverReturnsHeavyFlowsInSlotOrder) {
  ArenaSmbEngine engine(SmallConfig());
  for (uint64_t i = 0; i < 2000; ++i) engine.Record(30, i);
  for (uint64_t i = 0; i < 5; ++i) engine.Record(10, i);
  for (uint64_t i = 0; i < 1800; ++i) engine.Record(20, i);
  const auto over = engine.FlowsOver(1000.0);
  ASSERT_EQ(over.size(), 2u);
  EXPECT_EQ(over[0], 30u);  // created first
  EXPECT_EQ(over[1], 20u);
}

TEST(ArenaSmbEngineTest, SketchAndResidentAccounting) {
  ArenaSmbEngine engine = FilledEngine(100, 50);
  EXPECT_EQ(engine.SketchBits(), 100u * (5000u + 32u));
  // Resident bytes must cover at least the slab: 100 slots of
  // ceil(5000/64) words.
  const size_t slab_floor = 100 * ((5000 + 63) / 64) * sizeof(uint64_t);
  EXPECT_GE(engine.ResidentBytes(), slab_floor);
}

TEST(ArenaSmbEngineTest, InspectExposesLiveState) {
  ArenaSmbEngine engine(SmallConfig());
  for (uint64_t i = 0; i < 1000; ++i) engine.Record(9, i);
  const auto state = engine.Inspect(9);
  ASSERT_TRUE(state.has_value());
  size_t popcount = 0;
  for (uint64_t w : state->words) popcount += size_t(__builtin_popcountll(w));
  EXPECT_EQ(popcount,
            state->round * engine.config().threshold + state->ones_in_round);
  EXPECT_FALSE(engine.Inspect(10).has_value());
}

// Serialization ------------------------------------------------------------

void ExpectEnginesIdentical(const ArenaSmbEngine& a, const ArenaSmbEngine& b,
                            size_t flows) {
  ASSERT_EQ(a.NumFlows(), b.NumFlows());
  for (uint64_t f = 0; f < flows; ++f) {
    const auto sa = a.Inspect(f);
    const auto sb = b.Inspect(f);
    ASSERT_EQ(sa.has_value(), sb.has_value()) << f;
    if (!sa) continue;
    EXPECT_EQ(sa->round, sb->round) << f;
    EXPECT_EQ(sa->ones_in_round, sb->ones_in_round) << f;
    ASSERT_EQ(sa->words.size(), sb->words.size());
    EXPECT_TRUE(std::memcmp(sa->words.data(), sb->words.data(),
                            sa->words.size() * sizeof(uint64_t)) == 0)
        << f;
    EXPECT_EQ(a.Query(f), b.Query(f)) << f;
  }
}

TEST(ArenaSmbEngineTest, SerializeRoundTripsExactly) {
  ArenaSmbEngine engine = FilledEngine(64, 300);
  const std::vector<uint8_t> bytes = engine.Serialize();
  auto restored = ArenaSmbEngine::Deserialize(bytes);
  ASSERT_TRUE(restored.has_value());
  ExpectEnginesIdentical(engine, *restored, 64);
  // The restored engine keeps recording identically.
  for (uint64_t e = 300; e < 600; ++e) {
    engine.Record(3, e * 77 + 3);
    restored->Record(3, e * 77 + 3);
  }
  EXPECT_EQ(engine.Query(3), restored->Query(3));
}

TEST(ArenaSmbEngineTest, EmptyEngineRoundTrips) {
  ArenaSmbEngine engine(SmallConfig());
  auto restored = ArenaSmbEngine::Deserialize(engine.Serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->NumFlows(), 0u);
  EXPECT_EQ(restored->config().num_bits, 5000u);
}

TEST(ArenaSmbEngineTest, RoundTripsThroughCheckpointStore) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("arena_ckpt_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  io::CheckpointStore::Options options;
  options.directory = dir.string();
  options.sync = false;
  io::CheckpointStore store(options);

  ArenaSmbEngine engine = FilledEngine(32, 500);
  const auto write = store.Write(engine.Serialize());
  ASSERT_TRUE(write.ok) << write.error;

  auto recover = store.RecoverLatest();
  ASSERT_TRUE(recover.ok) << recover.error;
  auto restored = ArenaSmbEngine::Deserialize(recover.payload);
  ASSERT_TRUE(restored.has_value());
  ExpectEnginesIdentical(engine, *restored, 32);
  fs::remove_all(dir);
}

// Corruption rejection. Helpers re-seal the checksum so each test
// exercises its intended validation branch, not the checksum.
uint64_t SnapshotChecksum(const std::vector<uint8_t>& bytes) {
  return Murmur3_128(bytes.data(), bytes.size() - 8, 0x464C5731u).lo;
}

void Reseal(std::vector<uint8_t>* bytes) {
  const uint64_t checksum = SnapshotChecksum(*bytes);
  for (int i = 0; i < 8; ++i) {
    (*bytes)[bytes->size() - 8 + size_t(i)] =
        static_cast<uint8_t>(checksum >> (8 * i));
  }
}

// Offsets into the snapshot layout (see arena_smb_engine.cc).
constexpr size_t kHeaderBytes = 4 + 5 * 8;
constexpr size_t kMetaOffsetOfSlot0 = kHeaderBytes + 8;

TEST(ArenaSmbEngineCorruptionTest, RejectsBadMagic) {
  std::vector<uint8_t> bytes = FilledEngine(4, 100).Serialize();
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(ArenaSmbEngine::Deserialize(bytes).has_value());
}

TEST(ArenaSmbEngineCorruptionTest, RejectsTruncation) {
  const std::vector<uint8_t> bytes = FilledEngine(4, 100).Serialize();
  for (size_t cut : {size_t{0}, size_t{3}, size_t{20}, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + ptrdiff_t(cut));
    EXPECT_FALSE(ArenaSmbEngine::Deserialize(truncated).has_value()) << cut;
  }
}

TEST(ArenaSmbEngineCorruptionTest, RejectsTrailingBytes) {
  std::vector<uint8_t> bytes = FilledEngine(4, 100).Serialize();
  bytes.push_back(0);
  EXPECT_FALSE(ArenaSmbEngine::Deserialize(bytes).has_value());
}

TEST(ArenaSmbEngineCorruptionTest, RejectsChecksumMismatch) {
  std::vector<uint8_t> bytes = FilledEngine(4, 100).Serialize();
  bytes[kMetaOffsetOfSlot0] ^= 1;  // payload flip, checksum left stale
  EXPECT_FALSE(ArenaSmbEngine::Deserialize(bytes).has_value());
}

TEST(ArenaSmbEngineCorruptionTest, RejectsUnsupportedGeometry) {
  std::vector<uint8_t> bytes = FilledEngine(4, 100).Serialize();
  bytes[4] = 3;  // num_bits = 3 < 8
  for (size_t i = 5; i < 12; ++i) bytes[i] = 0;
  Reseal(&bytes);
  EXPECT_FALSE(ArenaSmbEngine::Deserialize(bytes).has_value());
}

TEST(ArenaSmbEngineCorruptionTest, RejectsInconsistentPopcount) {
  std::vector<uint8_t> bytes = FilledEngine(4, 100).Serialize();
  // Claim one more set bit than the bitmap holds.
  bytes[kMetaOffsetOfSlot0] ^= 1;
  Reseal(&bytes);
  EXPECT_FALSE(ArenaSmbEngine::Deserialize(bytes).has_value());
}

TEST(ArenaSmbEngineCorruptionTest, RejectsOverflowingRound) {
  std::vector<uint8_t> bytes = FilledEngine(4, 100).Serialize();
  // Round field = 63 (>> max_round for this geometry) with v = 0.
  const uint32_t meta = 63u << 26;
  for (int i = 0; i < 8; ++i) {
    bytes[kMetaOffsetOfSlot0 + size_t(i)] =
        static_cast<uint8_t>(uint64_t{meta} >> (8 * i));
  }
  Reseal(&bytes);
  EXPECT_FALSE(ArenaSmbEngine::Deserialize(bytes).has_value());
}

TEST(ArenaSmbEngineCorruptionTest, RejectsDuplicateFlowKeys) {
  ArenaSmbEngine engine(SmallConfig());
  engine.Record(1, 10);
  engine.Record(2, 10);
  std::vector<uint8_t> bytes = engine.Serialize();
  // Overwrite slot 1's key (record stride 2 + words_per_slot u64s) with
  // slot 0's key.
  const size_t stride = (2 + (5000 + 63) / 64) * 8;
  std::memcpy(bytes.data() + kHeaderBytes + stride,
              bytes.data() + kHeaderBytes, 8);
  Reseal(&bytes);
  EXPECT_FALSE(ArenaSmbEngine::Deserialize(bytes).has_value());
}

// Header and checksum only, claiming 2^61 flows: num_flows times the
// record size wraps size_t to exactly zero, so a size check that
// multiplies would accept the 52 bytes and read records past the end.
TEST(ArenaSmbEngineCorruptionTest, RejectsFlowCountThatWrapsSizeCheck) {
  std::vector<uint8_t> bytes = ArenaSmbEngine(SmallConfig()).Serialize();
  ASSERT_EQ(bytes.size(), kHeaderBytes + 8);
  constexpr size_t kNumFlowsOffset = 4 + 3 * 8;
  const uint64_t num_flows = uint64_t{1} << 61;
  std::memcpy(bytes.data() + kNumFlowsOffset, &num_flows, 8);
  Reseal(&bytes);
  EXPECT_FALSE(ArenaSmbEngine::Deserialize(bytes).has_value());
}

TEST(ArenaSmbEngineCorruptionTest, RejectsStrayTailBits) {
  ArenaSmbEngine engine(SmallConfig());  // m = 5000, tail = 5000 % 64 = 8
  engine.Record(1, 10);
  std::vector<uint8_t> bytes = engine.Serialize();
  // Highest byte of the last word of slot 0: bits above m.
  const size_t last_word_end = kHeaderBytes + (2 + (5000 + 63) / 64) * 8;
  bytes[last_word_end - 1] |= 0x80;
  Reseal(&bytes);
  EXPECT_FALSE(ArenaSmbEngine::Deserialize(bytes).has_value());
}

}  // namespace
}  // namespace smb
