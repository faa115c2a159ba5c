// Direct checks of the paper's headline claims, at test-sized scale:
//   1. SMB's accuracy is at least on par with HLL++ and MRB (Figs. 6-8).
//   2. SMB's bias is near zero (Fig. 8).
//   3. SMB's recording work decreases as streams grow (Table IV mechanism).
//   4. SMB's query cost is O(1) in memory size (Table V mechanism).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "common/timer.h"
#include "core/self_morphing_bitmap.h"
#include "estimators/estimator_factory.h"
#include "stream/stream_generator.h"

namespace smb {
namespace {

double MeanAbsRelError(EstimatorKind kind, size_t m, uint64_t n, int seeds) {
  RunningStats err;
  for (int seed = 0; seed < seeds; ++seed) {
    EstimatorSpec spec;
    spec.kind = kind;
    spec.memory_bits = m;
    spec.design_cardinality = 1000000;
    spec.hash_seed = static_cast<uint64_t>(seed) * uint64_t{2654435761} + 1;
    auto estimator = CreateEstimator(spec);
    for (uint64_t item :
         GenerateDistinctItems(n, static_cast<uint64_t>(seed) + 50)) {
      estimator->Add(item);
    }
    err.Add(std::fabs(estimator->Estimate() - static_cast<double>(n)) /
            static_cast<double>(n));
  }
  return err.mean();
}

// Claim 1: across the sweep, SMB's error stays within a modest factor of
// the best baseline at every point (at paper scale it *wins*; at test
// scale with few seeds we assert non-inferiority with margin).
TEST(PaperClaimsTest, SmbAccuracyIsCompetitiveEverywhere) {
  constexpr int kSeeds = 8;
  for (size_t m : {5000u, 10000u}) {
    for (uint64_t n : {5000u, 100000u}) {
      const double smb_err =
          MeanAbsRelError(EstimatorKind::kSmb, m, n, kSeeds);
      const double hll_err =
          MeanAbsRelError(EstimatorKind::kHllPp, m, n, kSeeds);
      const double mrb_err =
          MeanAbsRelError(EstimatorKind::kMrb, m, n, kSeeds);
      EXPECT_LT(smb_err, 2.0 * std::min(hll_err, mrb_err) + 0.01)
          << "m=" << m << " n=" << n;
    }
  }
}

// Claim 2: SMB's relative bias is within [-0.01, 0.01] when averaged over
// many streams (paper Figure 8), at the paper's m = 10000.
TEST(PaperClaimsTest, SmbBiasNearZero) {
  constexpr int kSeeds = 30;
  for (uint64_t n : {10000u, 200000u}) {
    RunningStats rel;
    for (int seed = 0; seed < kSeeds; ++seed) {
      EstimatorSpec spec;
      spec.kind = EstimatorKind::kSmb;
      spec.memory_bits = 10000;
      spec.design_cardinality = 1000000;
      spec.hash_seed = static_cast<uint64_t>(seed) * 40503 + 7;
      auto estimator = CreateEstimator(spec);
      for (uint64_t item :
           GenerateDistinctItems(n, static_cast<uint64_t>(seed) + 900)) {
        estimator->Add(item);
      }
      rel.Add(estimator->Estimate() / static_cast<double>(n) - 1.0);
    }
    // 30 seeds at sd ~2.5% -> standard error ~0.5%; assert |bias| < 1.5%.
    EXPECT_LT(std::fabs(rel.mean()), 0.015) << "n=" << n;
  }
}

// Claim 3 (Table IV mechanism): the fraction of items that touch memory
// falls off as the stream grows, because the sampling probability is 2^-r.
TEST(PaperClaimsTest, SmbRecordingWorkDropsWithStreamSize) {
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kSmb;
  spec.memory_bits = 5000;
  spec.design_cardinality = 10000000;
  auto estimator = CreateEstimator(spec);
  auto* smb = static_cast<SelfMorphingBitmap*>(estimator.get());
  for (uint64_t item : GenerateDistinctItems(1000000, 4)) smb->Add(item);
  // After a million items the sampling probability must be tiny: virtually
  // all subsequent arrivals are rejected in Step 1 with zero memory access.
  EXPECT_LT(smb->SamplingProbability(), 1.0 / 64.0);
}

// Claim 4 (Table V mechanism): SMB query time does not grow with m, unlike
// register-scan estimators whose query walks all t registers. We assert
// the *ratio* of measured query costs, which is robust to machine speed.
// Each cost is the fastest of several repetitions, so one repetition a
// busy host preempts cannot set a ratio.
TEST(PaperClaimsTest, SmbQueryCostIndependentOfMemory) {
  auto measure = [](EstimatorKind kind, size_t m) {
    EstimatorSpec spec;
    spec.kind = kind;
    spec.memory_bits = m;
    spec.design_cardinality = 1000000;
    auto estimator = CreateEstimator(spec);
    for (uint64_t item : GenerateDistinctItems(50000, 6)) {
      estimator->Add(item);
    }
    constexpr int kQueries = 20000;
    constexpr int kRepetitions = 5;
    double best = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      WallTimer timer;
      double sink = 0;
      for (int q = 0; q < kQueries; ++q) sink += estimator->Estimate();
      DoNotOptimize(sink);
      const double per_query = timer.ElapsedSeconds() / kQueries;
      best = rep == 0 ? per_query : std::min(best, per_query);
    }
    return best;
  };
  const double smb_small = measure(EstimatorKind::kSmb, 1000);
  const double smb_large = measure(EstimatorKind::kSmb, 64000);
  const double hll_small = measure(EstimatorKind::kHllPp, 1000);
  const double hll_large = measure(EstimatorKind::kHllPp, 64000);
  // HLL++'s query scales ~linearly in m (64x memory -> >8x time); SMB's
  // must not (allow 4x jitter under CI noise).
  EXPECT_GT(hll_large / hll_small, 8.0);
  EXPECT_LT(smb_large / smb_small, 4.0);
  // And at equal memory SMB queries are far cheaper than HLL++'s.
  EXPECT_LT(smb_large * 20, hll_large);
}

}  // namespace
}  // namespace smb
