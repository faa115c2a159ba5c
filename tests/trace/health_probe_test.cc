// HealthProbe (DESIGN.md §14): the expected-relative-error inversion must
// agree with the Theorem 3 bound in core/smb_theory.h, DeriveHealth's
// derived quantities and pathology flags must follow their definitions on
// hand-built inputs, the live probes must reflect real estimator state,
// and published health must ride both exporters.

#include "trace/health_probe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/self_morphing_bitmap.h"
#include "core/smb_theory.h"
#include "flow/arena_smb_engine.h"
#include "telemetry/exporter.h"
#include "telemetry/metrics_registry.h"

namespace smb::health {
namespace {

constexpr size_t kNumBits = 10000;
constexpr size_t kThreshold = 500;

TEST(ExpectedRelativeErrorTest, IsTheSmallestDeltaReachingConfidence) {
  for (const uint64_t n : {uint64_t{1000}, uint64_t{100000},
                           uint64_t{1000000}}) {
    const double delta = ExpectedRelativeError(kNumBits, kThreshold, n);
    ASSERT_GT(delta, 0.0);
    ASSERT_LE(delta, 1.0);
    if (delta >= 1.0) continue;  // bound cannot certify this n
    // At delta the Theorem 3 bound reaches one-sigma confidence...
    EXPECT_GE(SmbErrorBound(kNumBits, kThreshold, n, delta),
              kOneSigmaConfidence - 1e-4)
        << "n=" << n << " delta=" << delta;
    // ...and just below delta it does not (delta is minimal).
    EXPECT_LT(SmbErrorBound(kNumBits, kThreshold, n, delta * 0.98),
              kOneSigmaConfidence)
        << "n=" << n << " delta=" << delta;
  }
}

TEST(ExpectedRelativeErrorTest, MoreMemoryMeansLessExpectedError) {
  const uint64_t n = 200000;
  const double small = ExpectedRelativeError(kNumBits, kThreshold, n);
  const double large = ExpectedRelativeError(8 * kNumBits, kThreshold, n);
  EXPECT_LT(large, small);
}

TEST(ExpectedRelativeErrorTest, DegenerateInputsReportTotalUncertainty) {
  EXPECT_EQ(ExpectedRelativeError(0, kThreshold, 1000), 1.0);
  EXPECT_EQ(ExpectedRelativeError(kNumBits, 0, 1000), 1.0);
  EXPECT_EQ(ExpectedRelativeError(kNumBits, kThreshold, 0), 1.0);
}

HealthInput MidRoundInput() {
  HealthInput input;
  input.num_bits = kNumBits;
  input.threshold = kThreshold;
  input.max_round = 19;  // m/T = 20 rounds, 0-indexed
  input.round = 2;
  input.ones_in_round = 250;  // halfway to the next morph
  input.estimate = 50000.0;
  return input;
}

TEST(DeriveHealthTest, MidRoundQuantitiesFollowTheirDefinitions) {
  const HealthInput input = MidRoundInput();
  const HealthReport report = DeriveHealth(input);

  EXPECT_EQ(report.round, 2u);
  EXPECT_EQ(report.max_round, 19u);
  EXPECT_DOUBLE_EQ(report.estimate, 50000.0);
  // Logical bitmap in round 2: m - 2T = 9000 bits; 250 set.
  EXPECT_NEAR(report.fill_fraction, 250.0 / 9000.0, 1e-12);
  // r + v/T = 2.5.
  EXPECT_NEAR(report.virtual_round, 2.5, 1e-12);
  // 1 - 2.5/20.
  EXPECT_NEAR(report.headroom, 1.0 - 2.5 / 20.0, 1e-12);
  EXPECT_NEAR(report.morph_cadence_items, 25000.0, 1e-9);
  EXPECT_NEAR(report.expected_relative_error,
              ExpectedRelativeError(kNumBits, kThreshold, 50000), 1e-12);
  EXPECT_FALSE(report.saturated);
  EXPECT_FALSE(report.near_saturation);
  EXPECT_FALSE(report.stuck_round);
  EXPECT_TRUE(report.flags.empty());
}

TEST(DeriveHealthTest, SaturationRaisesFlagAndExhaustsHeadroom) {
  HealthInput input = MidRoundInput();
  input.round = input.max_round;
  // Logical bitmap at the final round, fully set.
  input.ones_in_round = input.num_bits - input.round * input.threshold;
  const HealthReport report = DeriveHealth(input);
  EXPECT_TRUE(report.saturated);
  EXPECT_FALSE(report.near_saturation);  // saturated supersedes it
  EXPECT_DOUBLE_EQ(report.fill_fraction, 1.0);
  EXPECT_EQ(report.headroom, 0.0);
  ASSERT_EQ(report.flags.size(), 1u);
  EXPECT_EQ(report.flags[0], "saturated");
}

TEST(DeriveHealthTest, LateScheduleRaisesNearSaturation) {
  HealthInput input = MidRoundInput();
  input.round = 18;  // virtual round 18.5 of a 20-round schedule = 92.5%
  const HealthReport report = DeriveHealth(input);
  EXPECT_FALSE(report.saturated);
  EXPECT_TRUE(report.near_saturation);
  ASSERT_EQ(report.flags.size(), 1u);
  EXPECT_EQ(report.flags[0], "near_saturation");
}

TEST(DeriveHealthTest, ThresholdReachedBelowFinalRoundIsStuck) {
  HealthInput input = MidRoundInput();
  input.ones_in_round = input.threshold;  // v == T should have morphed
  const HealthReport report = DeriveHealth(input);
  EXPECT_TRUE(report.stuck_round);
  ASSERT_EQ(report.flags.size(), 1u);
  EXPECT_EQ(report.flags[0], "stuck_round");
}

SelfMorphingBitmap MakeSmb() {
  SelfMorphingBitmap::Config config;
  config.num_bits = kNumBits;
  config.threshold = kThreshold;
  config.hash_seed = 42;
  return SelfMorphingBitmap(config);
}

TEST(ProbeSmbTest, LiveProbeMatchesEstimatorStateAndTheory) {
  SelfMorphingBitmap smb = MakeSmb();
  for (uint64_t i = 0; i < 1000000; ++i) smb.Add(i);

  const HealthReport report = ProbeSmb(smb);
  EXPECT_EQ(report.round, smb.round());
  EXPECT_EQ(report.max_round, smb.max_round());
  EXPECT_DOUBLE_EQ(report.estimate, smb.Estimate());
  EXPECT_GT(report.virtual_round, static_cast<double>(smb.round()));
  EXPECT_FALSE(report.stuck_round);

  // The acceptance contract: the reported error must agree with the
  // paper's theory — Theorem 3 evaluated at n-hat and the reported delta
  // reaches one-sigma confidence, and barely-smaller deltas do not.
  const uint64_t n_hat =
      static_cast<uint64_t>(std::llround(smb.Estimate()));
  const double delta = report.expected_relative_error;
  ASSERT_GT(delta, 0.0);
  ASSERT_LT(delta, 1.0);
  EXPECT_GE(SmbErrorBound(kNumBits, kThreshold, n_hat, delta),
            kOneSigmaConfidence - 1e-4);
  EXPECT_LT(SmbErrorBound(kNumBits, kThreshold, n_hat, delta * 0.98),
            kOneSigmaConfidence);
}

TEST(ProbeSmbTest, FreshEstimatorIsHealthy) {
  SelfMorphingBitmap smb = MakeSmb();
  const HealthReport report = ProbeSmb(smb);
  EXPECT_EQ(report.round, 0u);
  EXPECT_EQ(report.fill_fraction, 0.0);
  EXPECT_EQ(report.morph_cadence_items, 0.0);
  EXPECT_TRUE(report.flags.empty());
}

TEST(ProbeArenaTest, TopKIsSortedAndAggregatesMatchTheEngine) {
  ArenaSmbEngine::Config config;
  config.num_bits = 2048;
  config.threshold = 128;
  config.base_seed = 9;
  ArenaSmbEngine engine(config);
  // Flow f records f * 400 distinct elements, so flow 7 is the heaviest.
  for (uint64_t flow = 0; flow < 8; ++flow) {
    for (uint64_t i = 0; i < flow * 400; ++i) {
      engine.Record(flow, flow * 1000000 + i);
    }
  }

  const ArenaHealthReport report = ProbeArena(engine, /*top_k=*/3);
  EXPECT_EQ(report.num_flows, engine.NumFlows());
  ASSERT_EQ(report.top.size(), 3u);
  EXPECT_EQ(report.top[0].flow, 7u);
  EXPECT_GE(report.top[0].report.estimate, report.top[1].report.estimate);
  EXPECT_GE(report.top[1].report.estimate, report.top[2].report.estimate);
  EXPECT_DOUBLE_EQ(report.max_estimate, report.top[0].report.estimate);
  EXPECT_DOUBLE_EQ(report.top[0].report.estimate, engine.Query(7));
  EXPECT_EQ(report.stuck_flows, 0u);

  const auto state = engine.Inspect(7);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(report.top[0].report.round, state->round);
  EXPECT_GE(report.max_round_in_use, state->round);

  // top_k larger than the flow count returns every flow once.
  const ArenaHealthReport all = ProbeArena(engine, 100);
  EXPECT_EQ(all.top.size(), engine.NumFlows());
}

// The probe's report recounted the long way: (r, v) from
// ForEachFlowState, estimates from Query, every flow's flags from
// DeriveHealth, and the top flows' state from Inspect.
ArenaHealthReport Recount(const ArenaSmbEngine& engine, size_t top_k) {
  ArenaHealthReport report;
  report.num_flows = engine.NumFlows();
  HealthInput input;
  input.num_bits = engine.config().num_bits;
  input.threshold = engine.config().threshold;
  input.max_round = engine.max_round();
  std::vector<std::pair<double, uint64_t>> ranked;
  engine.ForEachFlowState([&](uint64_t flow, uint32_t round, uint32_t ones,
                              std::span<const uint64_t>) {
    input.round = round;
    input.ones_in_round = ones;
    input.estimate = engine.Query(flow);
    ranked.emplace_back(input.estimate, flow);
    report.max_estimate = std::max(report.max_estimate, input.estimate);
    report.max_round_in_use = std::max<size_t>(report.max_round_in_use, round);
    const HealthReport health = DeriveHealth(input);
    if (health.saturated) ++report.saturated_flows;
    if (health.stuck_round) ++report.stuck_flows;
  });
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (size_t i = 0; i < std::min(top_k, ranked.size()); ++i) {
    const auto state = engine.Inspect(ranked[i].second);
    input.round = state->round;
    input.ones_in_round = state->ones_in_round;
    input.estimate = ranked[i].first;
    report.top.push_back(FlowHealth{ranked[i].second, DeriveHealth(input)});
  }
  return report;
}

void ExpectSameHealth(const HealthReport& got, const HealthReport& want) {
  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.fill_fraction, want.fill_fraction);
  EXPECT_EQ(got.virtual_round, want.virtual_round);
  EXPECT_EQ(got.expected_relative_error, want.expected_relative_error);
  EXPECT_EQ(got.morph_cadence_items, want.morph_cadence_items);
  EXPECT_EQ(got.headroom, want.headroom);
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.max_round, want.max_round);
  EXPECT_EQ(got.saturated, want.saturated);
  EXPECT_EQ(got.near_saturation, want.near_saturation);
  EXPECT_EQ(got.stuck_round, want.stuck_round);
  EXPECT_EQ(got.flags, want.flags);
}

TEST(ProbeArenaTest, OnePassReportEqualsRecountOverFrozenFlows) {
  ArenaSmbEngine::Config config;
  config.num_bits = 2048;
  config.threshold = 128;
  config.base_seed = 5;
  config.tuning.memory_budget_bytes = 32 * 1024;
  config.tuning.eviction = ArenaEviction::kClock;
  config.tuning.cold_tier = true;
  ArenaSmbEngine engine(config);
  // Spreads from one element to several rounds deep, plus planted
  // final-round states at and near a full logical bitmap.
  for (uint64_t flow = 0; flow < 150; ++flow) {
    const uint64_t spread = flow * flow * flow % 20000 + 1;
    for (uint64_t i = 0; i < spread; ++i) {
      engine.Record(flow, flow * 1000000 + i);
    }
  }
  const uint32_t last = static_cast<uint32_t>(engine.max_round());
  const uint32_t full =
      static_cast<uint32_t>(config.num_bits - last * config.threshold);
  for (uint32_t ones = full - 3; ones <= full; ++ones) {
    std::vector<uint64_t> words((config.num_bits + 63) / 64, 0);
    for (size_t bit = 0; bit < last * config.threshold + ones; ++bit) {
      words[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
    ASSERT_TRUE(engine.UpsertFlowState(1000 + ones, last, ones, words));
  }
  const ArenaSmbEngine::ArenaStats stats = engine.Stats();
  ASSERT_GT(stats.cold_flows, 0u);
  ASSERT_GT(stats.live_flows, 0u);

  for (const size_t top_k : {size_t{10}, size_t{100000}}) {
    SCOPED_TRACE("top_k " + std::to_string(top_k));
    const ArenaHealthReport got = ProbeArena(engine, top_k);
    const ArenaHealthReport want = Recount(engine, top_k);
    EXPECT_EQ(got.num_flows, want.num_flows);
    EXPECT_GT(got.saturated_flows, 0u);
    EXPECT_EQ(got.saturated_flows, want.saturated_flows);
    EXPECT_EQ(got.stuck_flows, want.stuck_flows);
    EXPECT_EQ(got.max_round_in_use, want.max_round_in_use);
    EXPECT_EQ(got.max_estimate, want.max_estimate);
    ASSERT_EQ(got.top.size(), want.top.size());
    for (size_t i = 0; i < got.top.size(); ++i) {
      SCOPED_TRACE("rank " + std::to_string(i));
      EXPECT_EQ(got.top[i].flow, want.top[i].flow);
      ExpectSameHealth(got.top[i].report, want.top[i].report);
    }
    EXPECT_EQ(got.nursery_flows, stats.nursery_flows);
    EXPECT_EQ(got.evicted_flows, stats.evicted_flows);
    EXPECT_EQ(got.live_bytes, stats.live_bytes);
    EXPECT_EQ(got.budget_bytes, stats.budget_bytes);
    EXPECT_TRUE(got.memory_pressure);
  }
  // The second probe ranked every flow, live and frozen.
  EXPECT_EQ(ProbeArena(engine, 100000).top.size(),
            stats.live_flows + stats.cold_flows);
}

TEST(PublishHealthTest, HealthGaugesRideTheExporter) {
  HealthReport report = DeriveHealth(MidRoundInput());
  PublishHealth(report, "probe_test");

  const auto snapshot = telemetry::MetricsRegistry::Global().Snapshot();
  const std::string prom = telemetry::ToPrometheusText(snapshot);
  for (const char* name :
       {"probe_test_health_round", "probe_test_health_fill_permille",
        "probe_test_health_expected_rel_error_ppm",
        "probe_test_health_headroom_permille",
        "probe_test_health_saturated"}) {
    EXPECT_NE(prom.find(std::string("# TYPE ") + name + " gauge"),
              std::string::npos)
        << name;
  }
  // Spot-check a scaled value end to end: round 2, fill 250/9000 in
  // permille (rounded), error in ppm.
  EXPECT_NE(prom.find("probe_test_health_round 2"), std::string::npos);
  EXPECT_NE(prom.find("probe_test_health_fill_permille 28"),
            std::string::npos);
}

TEST(PublishHealthTest, ArenaHealthPublishesAggregatesAndTopRanks) {
  ArenaSmbEngine::Config config;
  config.num_bits = 2048;
  config.threshold = 128;
  ArenaSmbEngine engine(config);
  for (uint64_t flow = 0; flow < 4; ++flow) {
    for (uint64_t i = 0; i <= flow * 200; ++i) {
      engine.Record(flow, flow * 1000000 + i);
    }
  }
  PublishArenaHealth(ProbeArena(engine, 2));

  auto& registry = telemetry::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("arena_health_flows")->Value(), 4);
  const std::string prom =
      telemetry::ToPrometheusText(registry.Snapshot());
  EXPECT_NE(prom.find("arena_health_top_estimate{rank=\"0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("arena_health_top_rel_error_ppm{rank=\"1\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace smb::health
