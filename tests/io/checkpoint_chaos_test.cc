// Chaos suite: record → checkpoint → inject a fault → recover, across
// 100+ seeded runs. The invariant under test is the ISSUE's acceptance
// bar: recovery NEVER returns corrupted state — every recovered payload
// is byte-identical to some successfully-written checkpoint, and the
// estimator it restores lands within the estimator's error bound.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/self_morphing_bitmap.h"
#include "fault/failpoints.h"
#include "io/checkpoint_store.h"

namespace smb::io {
namespace {

namespace fs = std::filesystem;

constexpr size_t kMemoryBits = 10000;
constexpr uint64_t kDesignCardinality = 100000;

fs::path ChaosDir(uint64_t seed) {
  return fs::path(::testing::TempDir()) /
         ("ckpt_chaos_" + std::to_string(seed));
}

// One crash-recovery round: phase-1 state checkpointed cleanly, a fault
// armed for the phase-2 checkpoint, then recovery from a fresh store (a
// "restarted process"). Returns via out-params so the caller asserts.
struct RunOutcome {
  std::vector<uint8_t> payload1;
  std::vector<uint8_t> payload2;
  uint64_t n1 = 0;
  uint64_t n2 = 0;
  CheckpointStore::RecoverResult recovered;
};

RunOutcome RunOneCrashCycle(uint64_t seed) {
  auto& registry = fault::FailpointRegistry::Global();
  registry.ClearAll();
  registry.Reseed(seed);

  const fs::path dir = ChaosDir(seed);
  fs::remove_all(dir);
  CheckpointStore::Options options;
  options.directory = dir.string();
  options.keep_generations = 2;
  options.chunk_bytes = 512;  // multi-chunk images even for small states
  options.sync = false;

  RunOutcome out;
  out.n1 = 10000 + (seed % 7) * 1000;
  out.n2 = out.n1 + 15000;
  // Distinct item universes per seed so runs are independent.
  const uint64_t base = seed * (uint64_t{1} << 32);

  SelfMorphingBitmap smb = SelfMorphingBitmap::WithOptimalThreshold(
      kMemoryBits, kDesignCardinality, /*hash_seed=*/seed);
  {
    CheckpointStore store(options);
    for (uint64_t i = 0; i < out.n1; ++i) smb.Add(base + i);
    out.payload1 = smb.Serialize();
    const auto clean = store.Write(out.payload1);
    EXPECT_TRUE(clean.ok) << clean.error;

    for (uint64_t i = out.n1; i < out.n2; ++i) smb.Add(base + i);
    out.payload2 = smb.Serialize();

    fault::FailpointSpec spec;
    switch (seed % 3) {
      case 0:  // torn final file (power cut without write ordering)
        spec.action = fault::FailpointAction::kPartialIo;
        spec.arg = (seed * 37) % (out.payload2.size() + 60);
        registry.Set("checkpoint.write.partial", spec);
        break;
      case 1:  // rename never lands
        spec.action = fault::FailpointAction::kReturnError;
        registry.Set("checkpoint.rename.error", spec);
        break;
      default:  // silent bit rot inside the written image
        spec.action = fault::FailpointAction::kCorrupt;
        spec.arg = seed * 101 + 7;
        registry.Set("checkpoint.write.corrupt", spec);
        break;
    }
    (void)store.Write(out.payload2);
    registry.ClearAll();
  }

  // "Restart": a fresh store over the same directory.
  CheckpointStore store(options);
  out.recovered = store.RecoverLatest();
  fs::remove_all(dir);
  return out;
}

TEST(CheckpointChaosTest, HundredSeededCrashCyclesNeverCorruptState) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RunOutcome out = RunOneCrashCycle(seed);

    // A clean phase-1 checkpoint exists, so recovery must succeed...
    ASSERT_TRUE(out.recovered.ok) << out.recovered.error;
    // ...and must return one of the two states that were actually
    // serialized — never a torn or bit-rotted hybrid.
    const bool is_phase1 = out.recovered.payload == out.payload1;
    const bool is_phase2 = out.recovered.payload == out.payload2;
    ASSERT_TRUE(is_phase1 || is_phase2);

    auto restored = SelfMorphingBitmap::Deserialize(out.recovered.payload);
    ASSERT_TRUE(restored.has_value());
    const double truth =
        static_cast<double>(is_phase1 ? out.n1 : out.n2);
    const double estimate = restored->Estimate();
    // SMB at these parameters holds a few percent standard error; 20%
    // already signals a corrupted (not merely noisy) state.
    EXPECT_NEAR(estimate, truth, truth * 0.20)
        << "recovered state estimates " << estimate << " for " << truth;
  }
}

TEST(CheckpointChaosTest, InjectedReadErrorFallsBackToOlderGeneration) {
  auto& registry = fault::FailpointRegistry::Global();
  registry.ClearAll();
  const fs::path dir = ChaosDir(99999);
  fs::remove_all(dir);
  CheckpointStore::Options options;
  options.directory = dir.string();
  options.sync = false;

  CheckpointStore store(options);
  const std::vector<uint8_t> old_payload(300, 0x11);
  const std::vector<uint8_t> new_payload(300, 0x22);
  ASSERT_TRUE(store.Write(old_payload).ok);
  ASSERT_TRUE(store.Write(new_payload).ok);

  // The newest file is intact on disk, but its read fails once (flaky
  // medium): recovery must step over it, report it, and return gen 1.
  fault::FailpointSpec spec;
  spec.action = fault::FailpointAction::kReturnError;
  spec.limit = 1;
  registry.Set("checkpoint.read.error", spec);
  const auto recovered = store.RecoverLatest();
  registry.ClearAll();

  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_EQ(recovered.generation, 1u);
  EXPECT_EQ(recovered.payload, old_payload);
  ASSERT_EQ(recovered.skipped.size(), 1u);
  EXPECT_NE(recovered.skipped[0].find("injected read error"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(CheckpointChaosTest, FsyncFailureLeavesNoNewGeneration) {
  auto& registry = fault::FailpointRegistry::Global();
  registry.ClearAll();
  const fs::path dir = ChaosDir(88888);
  fs::remove_all(dir);
  CheckpointStore::Options options;
  options.directory = dir.string();
  options.sync = true;  // fsync path must be active for this fault

  CheckpointStore store(options);
  const std::vector<uint8_t> payload(128, 0x33);
  ASSERT_TRUE(store.Write(payload).ok);

  fault::FailpointSpec spec;
  spec.action = fault::FailpointAction::kReturnError;
  registry.Set("checkpoint.fsync.error", spec);
  const auto failed = store.Write(payload);
  registry.ClearAll();

  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("injected fsync error"), std::string::npos);
  // Neither a gen-2 final file nor a lingering temp file.
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1}));
  size_t tmp_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") ++tmp_files;
  }
  EXPECT_EQ(tmp_files, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace smb::io
