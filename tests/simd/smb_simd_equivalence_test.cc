// Fuzz-style bit-for-bit equivalence of the batch recording paths: for
// every compiled kernel variant, Add(), AddBatch() with that variant
// forced, and the dispatched AddBatch() must leave SMB in an identical
// (bitmap, r, v) state — including blocks that straddle morph boundaries —
// and the sibling batch inserts (LinearCounting, MRB) must match their
// Add() loops exactly. These tests run in every CI leg, including
// ASan/UBSan.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/self_morphing_bitmap.h"
#include "estimators/linear_counting.h"
#include "estimators/multiresolution_bitmap.h"
#include "simd/simd_dispatch.h"

namespace smb {
namespace {

struct DispatchGuard {
  ~DispatchGuard() { ResetBatchKernelDispatch(); }
};

// A stream with plenty of duplicates: items are drawn from a universe of
// `distinct` keys, so both the duplicate-bit path and the gate-reject path
// get exercised as rounds deepen.
std::vector<uint64_t> DuplicateHeavyStream(size_t length, uint64_t distinct,
                                           uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> stream(length);
  for (auto& item : stream) {
    item = rng() % distinct;
  }
  return stream;
}

void ExpectSameSmbState(const SelfMorphingBitmap& expected,
                        const SelfMorphingBitmap& actual,
                        const char* context) {
  ASSERT_EQ(expected.round(), actual.round()) << context;
  ASSERT_EQ(expected.ones_in_round(), actual.ones_in_round()) << context;
  // Bit-for-bit: the raw words, not just the summary counters.
  ASSERT_EQ(expected.Serialize(), actual.Serialize()) << context;
  ASSERT_EQ(expected.Estimate(), actual.Estimate()) << context;
}

TEST(SmbSimdEquivalenceTest, EveryKernelMatchesSequentialAddUnderFuzz) {
  DispatchGuard guard;
  struct Geometry {
    size_t num_bits;
    size_t threshold;
  };
  // Small thresholds morph every few accepted items, so random chunking
  // constantly straddles morph boundaries; the larger geometry exercises
  // long no-morph spans where the word-coalescing cache stays hot.
  const Geometry geometries[] = {{64, 5}, {256, 16}, {1024, 64}, {5000, 251}};
  for (const Geometry& geometry : geometries) {
    SelfMorphingBitmap::Config config;
    config.num_bits = geometry.num_bits;
    config.threshold = geometry.threshold;
    config.hash_seed = 1234 + geometry.num_bits;

    const std::vector<uint64_t> stream = DuplicateHeavyStream(
        40000, /*distinct=*/geometry.num_bits * 40, geometry.num_bits);
    SelfMorphingBitmap reference(config);
    for (uint64_t item : stream) reference.Add(item);
    ASSERT_GE(reference.round(), 2u)
        << "stream too small to cross morphs at m=" << geometry.num_bits;

    for (BatchKernelKind kind : RunnableBatchKernels()) {
      ForceBatchKernelForTesting(kind);
      SelfMorphingBitmap batched(config);
      // Random chunk sizes around and across the kernel block size, so
      // blocks straddle morphs at unpredictable offsets.
      std::mt19937_64 rng(geometry.num_bits * 31 +
                          static_cast<uint64_t>(kind));
      size_t offset = 0;
      while (offset < stream.size()) {
        const size_t chunk =
            std::min<size_t>(1 + rng() % 700, stream.size() - offset);
        batched.AddBatch(
            std::span<const uint64_t>(stream.data() + offset, chunk));
        offset += chunk;
      }
      ExpectSameSmbState(reference, batched,
                         BatchKernelKindName(kind).data());
    }
  }
}

TEST(SmbSimdEquivalenceTest, SingleBlockStraddlingAMorphMatchesAdd) {
  DispatchGuard guard;
  SelfMorphingBitmap::Config config;
  config.num_bits = 512;
  config.threshold = 32;
  config.hash_seed = 9;

  for (BatchKernelKind kind : RunnableBatchKernels()) {
    ForceBatchKernelForTesting(kind);
    // Drive the reference until it sits one fresh bit short of a morph,
    // then feed one big block through both paths: the morph fires inside
    // the block and the batch path must re-gate the remaining lanes.
    SelfMorphingBitmap reference(config);
    uint64_t next = 0;
    while (reference.ones_in_round() + 1 < reference.threshold()) {
      reference.Add(next++);
    }
    SelfMorphingBitmap batched(config);
    for (uint64_t i = 0; i < next; ++i) batched.Add(i);

    std::vector<uint64_t> block(2048);
    for (size_t i = 0; i < block.size(); ++i) block[i] = next + i;
    for (uint64_t item : block) reference.Add(item);
    batched.AddBatch(block);
    ASSERT_GT(reference.round(), 0u);
    ExpectSameSmbState(reference, batched, BatchKernelKindName(kind).data());
  }
}

TEST(SmbSimdEquivalenceTest, LinearCountingBatchMatchesAddLoop) {
  DispatchGuard guard;
  const std::vector<uint64_t> stream = DuplicateHeavyStream(30000, 4000, 77);
  LinearCounting reference(2048, /*hash_seed=*/5);
  for (uint64_t item : stream) reference.Add(item);

  for (BatchKernelKind kind : RunnableBatchKernels()) {
    ForceBatchKernelForTesting(kind);
    LinearCounting batched(2048, /*hash_seed=*/5);
    std::mt19937_64 rng(static_cast<uint64_t>(kind) + 1);
    size_t offset = 0;
    while (offset < stream.size()) {
      const size_t chunk =
          std::min<size_t>(1 + rng() % 600, stream.size() - offset);
      batched.AddBatch(
          std::span<const uint64_t>(stream.data() + offset, chunk));
      offset += chunk;
    }
    ASSERT_EQ(reference.ones(), batched.ones())
        << BatchKernelKindName(kind);
    ASSERT_EQ(reference.Estimate(), batched.Estimate())
        << BatchKernelKindName(kind);
  }
}

TEST(SmbSimdEquivalenceTest, MrbBatchMatchesAddLoop) {
  DispatchGuard guard;
  MultiResolutionBitmap::Config config;
  config.num_components = 11;
  config.component_bits = 200;
  config.hash_seed = 13;
  const std::vector<uint64_t> stream = DuplicateHeavyStream(50000, 20000, 3);
  MultiResolutionBitmap reference(config);
  for (uint64_t item : stream) reference.Add(item);

  for (BatchKernelKind kind : RunnableBatchKernels()) {
    ForceBatchKernelForTesting(kind);
    MultiResolutionBitmap batched(config);
    std::mt19937_64 rng(static_cast<uint64_t>(kind) + 17);
    size_t offset = 0;
    while (offset < stream.size()) {
      const size_t chunk =
          std::min<size_t>(1 + rng() % 600, stream.size() - offset);
      batched.AddBatch(
          std::span<const uint64_t>(stream.data() + offset, chunk));
      offset += chunk;
    }
    for (size_t level = 0; level < config.num_components; ++level) {
      ASSERT_EQ(reference.component_ones(level),
                batched.component_ones(level))
          << BatchKernelKindName(kind) << " level " << level;
    }
    ASSERT_EQ(reference.Estimate(), batched.Estimate())
        << BatchKernelKindName(kind);
  }
}

TEST(SmbSimdEquivalenceTest, EmptyAndTinyBatchesAreNoOpsOrExact) {
  DispatchGuard guard;
  for (BatchKernelKind kind : RunnableBatchKernels()) {
    ForceBatchKernelForTesting(kind);
    SelfMorphingBitmap::Config config;
    config.num_bits = 128;
    config.threshold = 8;
    SelfMorphingBitmap reference(config);
    SelfMorphingBitmap batched(config);
    batched.AddBatch(std::span<const uint64_t>());  // empty: no state change
    ExpectSameSmbState(reference, batched, "empty batch");
    const uint64_t one_item = 42;
    reference.Add(one_item);
    batched.AddBatch(std::span<const uint64_t>(&one_item, 1));
    ExpectSameSmbState(reference, batched, "single-item batch");
  }
}

}  // namespace
}  // namespace smb
