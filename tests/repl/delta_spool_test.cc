// DeltaSpool: append/read round trips, budget refusal without sequence
// consumption, monotonic trim + marker persistence, restart recovery,
// corrupt-file quarantine, renumbering, and reclaimed-bytes accounting.

#include "repl/delta_spool.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "fault/failpoints.h"

namespace smb::repl {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t> Payload(uint64_t seed, size_t size) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> payload(size);
  for (auto& b : payload) b = static_cast<uint8_t>(rng.Next());
  return payload;
}

class DeltaSpoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("delta_spool_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  DeltaSpool::Options SpoolOptions(size_t budget = 0) {
    DeltaSpool::Options options;
    options.directory = dir_.string();
    options.budget_bytes = budget;
    options.sync = false;
    return options;
  }

  fs::path dir_;
};

TEST_F(DeltaSpoolTest, AppendReadTrimRoundTrip) {
  DeltaSpool spool(SpoolOptions());
  std::string error;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_EQ(spool.Append(seq, Payload(seq, 100 * seq), &error),
              DeltaSpool::AppendStatus::kOk)
        << error;
  }
  EXPECT_EQ(spool.PendingCount(), 5u);
  EXPECT_EQ(spool.PendingSeqs(), (std::vector<uint64_t>{1, 2, 3, 4, 5}));

  std::vector<uint8_t> payload;
  ASSERT_TRUE(spool.Read(3, &payload, &error)) << error;
  EXPECT_EQ(payload, Payload(3, 300));

  spool.TrimThrough(3);
  EXPECT_EQ(spool.PendingSeqs(), (std::vector<uint64_t>{4, 5}));
  EXPECT_EQ(spool.TrimmedHighWater(), 3u);
  EXPECT_FALSE(spool.Read(2, &payload, &error));

  // Trim is monotonic: a stale (lower) ack cannot resurrect anything or
  // move the marker backwards.
  spool.TrimThrough(1);
  EXPECT_EQ(spool.TrimmedHighWater(), 3u);
  EXPECT_EQ(spool.PendingCount(), 2u);
}

TEST_F(DeltaSpoolTest, BudgetRefusesWithoutConsumingSequence) {
  DeltaSpool spool(SpoolOptions(/*budget=*/2048));
  std::string error;
  ASSERT_EQ(spool.Append(1, Payload(1, 1500), &error),
            DeltaSpool::AppendStatus::kOk);
  const size_t bytes_before = spool.PendingBytes();
  const auto files_before =
      std::distance(fs::directory_iterator(dir_), fs::directory_iterator{});

  // This append would cross the budget: refused, nothing written.
  EXPECT_EQ(spool.Append(2, Payload(2, 1500), &error),
            DeltaSpool::AppendStatus::kBudget);
  EXPECT_EQ(spool.PendingBytes(), bytes_before);
  EXPECT_EQ(spool.PendingCount(), 1u);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir_),
                          fs::directory_iterator{}),
            files_before);

  // The refused sequence number is reusable: after acks free budget the
  // same seq appends cleanly — shedding never leaves sequence gaps.
  spool.TrimThrough(1);
  EXPECT_EQ(spool.Append(2, Payload(2, 1500), &error),
            DeltaSpool::AppendStatus::kOk)
      << error;
  EXPECT_EQ(spool.PendingSeqs(), (std::vector<uint64_t>{2}));
}

TEST_F(DeltaSpoolTest, RecoverRebuildsIndexAndMarkerAcrossRestart) {
  {
    DeltaSpool spool(SpoolOptions());
    std::string error;
    for (uint64_t seq = 1; seq <= 6; ++seq) {
      ASSERT_EQ(spool.Append(seq, Payload(seq, 64), &error),
                DeltaSpool::AppendStatus::kOk);
    }
    spool.TrimThrough(2);
  }
  DeltaSpool reborn(SpoolOptions());
  EXPECT_EQ(reborn.PendingSeqs(), (std::vector<uint64_t>{3, 4, 5, 6}));
  EXPECT_EQ(reborn.TrimmedHighWater(), 2u);
  EXPECT_EQ(reborn.NextSeqFloor(), 7u);
  std::string error;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(reborn.Read(5, &payload, &error)) << error;
  EXPECT_EQ(payload, Payload(5, 64));
}

TEST_F(DeltaSpoolTest, NextSeqFloorRespectsMarkerWhenSpoolDrained) {
  {
    DeltaSpool spool(SpoolOptions());
    std::string error;
    for (uint64_t seq = 1; seq <= 4; ++seq) {
      ASSERT_EQ(spool.Append(seq, Payload(seq, 32), &error),
                DeltaSpool::AppendStatus::kOk);
    }
    spool.TrimThrough(4);  // fully drained: only the marker remains
  }
  DeltaSpool reborn(SpoolOptions());
  EXPECT_EQ(reborn.PendingCount(), 0u);
  // Without the marker a restarted child would reuse seq 1 and collide
  // with deltas the parent already applied.
  EXPECT_EQ(reborn.NextSeqFloor(), 5u);
}

TEST_F(DeltaSpoolTest, RecoverDropsCorruptFiles) {
  {
    DeltaSpool spool(SpoolOptions());
    std::string error;
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_EQ(spool.Append(seq, Payload(seq, 256), &error),
                DeltaSpool::AppendStatus::kOk);
    }
  }
  // Flip a byte in the middle of seq 2's file.
  const fs::path victim = dir_ / "delta-0000000000000002.smbspool";
  ASSERT_TRUE(fs::exists(victim));
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    f.put('\xA5');
  }
  DeltaSpool reborn(SpoolOptions());
  EXPECT_EQ(reborn.PendingSeqs(), (std::vector<uint64_t>{1, 3}));
  EXPECT_EQ(reborn.corrupt_dropped(), 1u);
  EXPECT_FALSE(fs::exists(victim));  // quarantined, not left to re-fail
  // The corrupt file still consumed sequence space: the floor stays past
  // it so the replacement state rides a FRESH sequence number.
  EXPECT_EQ(reborn.NextSeqFloor(), 4u);
}

TEST_F(DeltaSpoolTest, ReadRejectsTruncatedFile) {
  DeltaSpool spool(SpoolOptions());
  std::string error;
  ASSERT_EQ(spool.Append(1, Payload(1, 512), &error),
            DeltaSpool::AppendStatus::kOk);
  const fs::path path = dir_ / "delta-0000000000000001.smbspool";
  fs::resize_file(path, fs::file_size(path) - 7);
  std::vector<uint8_t> payload;
  EXPECT_FALSE(spool.Read(1, &payload, &error));
}

TEST_F(DeltaSpoolTest, UnlimitedBudgetNeverRefuses) {
  DeltaSpool spool(SpoolOptions(/*budget=*/0));
  std::string error;
  for (uint64_t seq = 1; seq <= 32; ++seq) {
    ASSERT_EQ(spool.Append(seq, Payload(seq, 4096), &error),
              DeltaSpool::AppendStatus::kOk);
  }
  EXPECT_EQ(spool.PendingCount(), 32u);
}

TEST_F(DeltaSpoolTest, RecoverSweepsStaleTempFiles) {
  // Staged files of a crashed append and a crashed marker write.
  fs::create_directories(dir_);
  const fs::path staged_delta = dir_ / "delta-0000000000000007.smbspool.tmp";
  const fs::path staged_marker = dir_ / "acked.smbspoolmark.tmp";
  std::ofstream(staged_delta) << "crash leftover";
  std::ofstream(staged_marker) << "crash leftover";
  DeltaSpool spool(SpoolOptions());
  EXPECT_FALSE(fs::exists(staged_delta));
  EXPECT_FALSE(fs::exists(staged_marker));
  EXPECT_EQ(spool.PendingCount(), 0u);
  EXPECT_EQ(spool.NextSeqFloor(), 1u);
}

TEST_F(DeltaSpoolTest, TrimKeepsEverythingWhenTheMarkerCannotBeWritten) {
  std::string error;
  {
    DeltaSpool spool(SpoolOptions());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_EQ(spool.Append(seq, Payload(seq, 64), &error),
                DeltaSpool::AppendStatus::kOk);
    }
    // A directory where the marker goes: its rename cannot land.
    fs::create_directories(dir_ / "acked.smbspoolmark");
    const size_t bytes = spool.PendingBytes();
    spool.TrimThrough(3);
    EXPECT_EQ(spool.PendingSeqs(), (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_EQ(spool.PendingBytes(), bytes);
    EXPECT_EQ(spool.TrimmedHighWater(), 0u);
    EXPECT_EQ(spool.ReclaimedBytes(), 0u);
  }
  // A restart must not resume at or below the acked sequence.
  {
    DeltaSpool reborn(SpoolOptions());
    EXPECT_EQ(reborn.PendingSeqs(), (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_GT(reborn.NextSeqFloor(), 3u);
  }
  // Once the marker can be written, the same ack trims.
  fs::remove(dir_ / "acked.smbspoolmark");
  DeltaSpool reborn(SpoolOptions());
  reborn.TrimThrough(3);
  EXPECT_EQ(reborn.PendingCount(), 0u);
  EXPECT_EQ(reborn.TrimmedHighWater(), 3u);
  EXPECT_EQ(DeltaSpool(SpoolOptions()).NextSeqFloor(), 4u);
}

TEST_F(DeltaSpoolTest, RenumberThatFailsMidwayFinishesOnRetry) {
  DeltaSpool spool(SpoolOptions());
  std::string error;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_EQ(spool.Append(seq, Payload(seq, 64 * seq), &error),
              DeltaSpool::AppendStatus::kOk);
  }
  const size_t bytes = spool.PendingBytes();
  // The second move (2 -> 6) cannot read its delta: 3 already sits at 7.
  fault::FailpointSpec spec;
  spec.action = fault::FailpointAction::kReturnError;
  spec.skip = 1;
  spec.limit = 1;
  fault::FailpointRegistry::Global().Set("spool.read.error", spec);
  EXPECT_FALSE(spool.Renumber(1, 5, &error));
  fault::FailpointRegistry::Global().ClearAll();
  EXPECT_EQ(spool.PendingSeqs(), (std::vector<uint64_t>{1, 2, 7}));

  ASSERT_TRUE(spool.Renumber(1, 5, &error)) << error;
  EXPECT_EQ(spool.PendingSeqs(), (std::vector<uint64_t>{5, 6, 7}));
  EXPECT_EQ(spool.PendingBytes(), bytes);
  std::vector<uint8_t> payload;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(spool.Read(seq + 4, &payload, &error)) << error;
    EXPECT_EQ(payload, Payload(seq, 64 * seq));
  }
  // The files on disk carry the new numbers too.
  DeltaSpool reborn(SpoolOptions());
  EXPECT_EQ(reborn.PendingSeqs(), (std::vector<uint64_t>{5, 6, 7}));
  EXPECT_EQ(reborn.corrupt_dropped(), 0u);
}

// --------------------------------------------------------------------------
// Spool reclaim accounting.

class DeltaSpoolReclaimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("spool_reclaim_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  DeltaSpool::Options SpoolOptions() {
    DeltaSpool::Options options;
    options.directory = dir_.string();
    options.sync = false;
    return options;
  }

  fs::path dir_;
};

TEST_F(DeltaSpoolReclaimTest, TrimThroughCountsReclaimedBytes) {
  DeltaSpool spool(SpoolOptions());
  std::string error;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    const std::vector<uint8_t> payload(100 * seq, static_cast<uint8_t>(seq));
    ASSERT_EQ(spool.Append(seq, payload, &error), DeltaSpool::AppendStatus::kOk)
        << error;
  }
  const size_t total = spool.PendingBytes();
  EXPECT_EQ(spool.ReclaimedBytes(), 0u);

  spool.TrimThrough(2);
  EXPECT_EQ(spool.ReclaimedBytes(), total - spool.PendingBytes());
  const uint64_t after_two = spool.ReclaimedBytes();

  spool.TrimThrough(1);  // monotonic: lower water marks change nothing
  EXPECT_EQ(spool.ReclaimedBytes(), after_two);

  spool.TrimThrough(3);
  EXPECT_EQ(spool.ReclaimedBytes(), total);
  EXPECT_EQ(spool.PendingBytes(), 0u);
  EXPECT_EQ(spool.PendingCount(), 0u);
}

TEST_F(DeltaSpoolReclaimTest, RecoverSweepsStaleAckedFiles) {
  const fs::path stash = dir_.string() + ".stash";
  uint64_t stale_size = 0;
  {
    DeltaSpool spool(SpoolOptions());
    std::string error;
    const std::vector<uint8_t> payload(200, 0xAB);
    ASSERT_EQ(spool.Append(1, payload, &error),
              DeltaSpool::AppendStatus::kOk);
    // Stash the spooled file, then ack it away.
    for (const auto& entry : fs::directory_iterator(dir_)) {
      fs::create_directories(stash);
      fs::copy_file(entry.path(), stash / entry.path().filename());
      stale_size = static_cast<uint64_t>(fs::file_size(entry.path()));
    }
    ASSERT_GT(stale_size, 0u);
    spool.TrimThrough(1);
    EXPECT_EQ(spool.ReclaimedBytes(), stale_size);
    // Resurrect the acked file: this is the crash shape where unlink
    // didn't land but the trim marker did.
    for (const auto& entry : fs::directory_iterator(stash)) {
      fs::copy_file(entry.path(), dir_ / entry.path().filename());
    }
  }
  // A fresh spool's Recover() sweeps the stale file and accounts for it.
  DeltaSpool reborn(SpoolOptions());
  EXPECT_EQ(reborn.PendingCount(), 0u);
  EXPECT_EQ(reborn.ReclaimedBytes(), stale_size);
  EXPECT_EQ(reborn.TrimmedHighWater(), 1u);
  fs::remove_all(stash);
}

}  // namespace
}  // namespace smb::repl
