#include "trace/health_probe.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/self_morphing_bitmap.h"
#include "core/smb_theory.h"
#include "flow/arena_smb_engine.h"
#include "telemetry/metrics_registry.h"

namespace smb::health {

namespace {

// virtual_round fraction of the morph schedule beyond which
// near_saturation raises.
constexpr double kNearSaturationShare = 0.9;
// Logical-bitmap fill at the final round beyond which the estimate is
// effectively pinned.
constexpr double kSaturatedFill = 0.999;
// Fraction of a nonzero budget beyond which memory_pressure raises.
constexpr double kMemoryPressureShare = 0.9;

int64_t Permille(double fraction) {
  return static_cast<int64_t>(std::llround(fraction * 1e3));
}

int64_t Ppm(double fraction) {
  return static_cast<int64_t>(std::llround(fraction * 1e6));
}

double FillFraction(const HealthInput& input) {
  const size_t logical_bits =
      input.num_bits > input.round * input.threshold
          ? input.num_bits - input.round * input.threshold
          : 0;
  return logical_bits > 0 ? static_cast<double>(input.ones_in_round) /
                                static_cast<double>(logical_bits)
                          : 1.0;
}

bool Saturated(const HealthInput& input) {
  return input.round >= input.max_round &&
         FillFraction(input) >= kSaturatedFill;
}

// Unreachable through the audited morph site (v morphs to 0 the moment
// it reaches T below the final round) — raising this means the state
// was corrupted or hand-built.
bool StuckRound(const HealthInput& input) {
  return input.round < input.max_round &&
         input.ones_in_round >= input.threshold;
}

}  // namespace

double ExpectedRelativeError(size_t num_bits, size_t threshold, uint64_t n,
                             double confidence) {
  if (num_bits == 0 || threshold == 0 || n == 0) return 1.0;
  // SmbErrorBound is monotone non-decreasing in delta, so the smallest
  // delta reaching `confidence` is found by bisection over (0, 1).
  constexpr double kLo = 1e-9;
  constexpr double kHi = 1.0 - 1e-9;
  if (SmbErrorBound(num_bits, threshold, n, kHi) < confidence) return 1.0;
  double lo = kLo;
  double hi = kHi;
  for (int iteration = 0; iteration < 60 && hi - lo > 1e-7; ++iteration) {
    const double mid = 0.5 * (lo + hi);
    if (SmbErrorBound(num_bits, threshold, n, mid) >= confidence) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

HealthReport DeriveHealth(const HealthInput& input) {
  HealthReport report;
  report.estimate = input.estimate;
  report.round = input.round;
  report.max_round = input.max_round;

  report.fill_fraction = FillFraction(input);

  const double morph_progress =
      input.threshold > 0 ? static_cast<double>(input.ones_in_round) /
                                static_cast<double>(input.threshold)
                          : 0.0;
  report.virtual_round =
      static_cast<double>(input.round) + std::min(morph_progress, 1.0);

  const uint64_t n = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(std::max(input.estimate, 0.0))));
  report.expected_relative_error =
      ExpectedRelativeError(input.num_bits, input.threshold, n);

  report.morph_cadence_items =
      input.round > 0 ? input.estimate / static_cast<double>(input.round)
                      : 0.0;

  const double schedule = static_cast<double>(input.max_round) + 1.0;
  report.headroom =
      std::clamp(1.0 - report.virtual_round / schedule, 0.0, 1.0);

  report.saturated = Saturated(input);
  report.near_saturation =
      !report.saturated && report.virtual_round >= kNearSaturationShare * schedule;
  report.stuck_round = StuckRound(input);

  if (report.saturated) report.flags.emplace_back("saturated");
  if (report.near_saturation) report.flags.emplace_back("near_saturation");
  if (report.stuck_round) report.flags.emplace_back("stuck_round");
  return report;
}

HealthReport ProbeSmb(const SelfMorphingBitmap& smb) {
  HealthInput input;
  input.num_bits = smb.num_bits();
  input.threshold = smb.threshold();
  input.max_round = smb.max_round();
  input.round = smb.round();
  input.ones_in_round = smb.ones_in_round();
  input.estimate = smb.Estimate();
  return DeriveHealth(input);
}

ArenaHealthReport ProbeArena(const ArenaSmbEngine& engine, size_t top_k) {
  ArenaHealthReport report;
  report.num_flows = engine.NumFlows();
  const ArenaSmbEngine::ArenaStats stats = engine.Stats();
  report.nursery_flows = stats.nursery_flows;
  report.evicted_flows = stats.evicted_flows;
  report.promoted_flows = stats.promoted_flows;
  report.live_bytes = stats.live_bytes;
  report.budget_bytes = stats.budget_bytes;
  report.hugepage_bytes =
      stats.alloc.hugetlb_bytes + stats.alloc.thp_advised_bytes;
  report.memory_pressure =
      stats.budget_bytes > 0 &&
      static_cast<double>(stats.live_bytes) >=
          kMemoryPressureShare * static_cast<double>(stats.budget_bytes);

  // One estimate walk ranks every live and frozen flow and counts the
  // flags, which need only (r, v); the expected-error bisection
  // DeriveHealth runs is kept to the top flows.
  struct Ranked {
    double estimate;
    uint64_t flow;
    uint32_t round;
    uint32_t ones;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(report.num_flows + stats.cold_flows);
  HealthInput input;
  input.num_bits = engine.config().num_bits;
  input.threshold = engine.config().threshold;
  input.max_round = engine.max_round();
  engine.ForEachFlowMeta(
      [&](uint64_t flow, uint32_t round, uint32_t ones, double estimate) {
        ranked.push_back({estimate, flow, round, ones});
        report.max_estimate = std::max(report.max_estimate, estimate);
        report.max_round_in_use =
            std::max<size_t>(report.max_round_in_use, round);
        input.round = round;
        input.ones_in_round = ones;
        if (Saturated(input)) ++report.saturated_flows;
        if (StuckRound(input)) ++report.stuck_flows;
      });
  const size_t keep = std::min(top_k, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<ptrdiff_t>(keep),
                    ranked.end(), [](const Ranked& a, const Ranked& b) {
                      if (a.estimate != b.estimate) {
                        return a.estimate > b.estimate;
                      }
                      return a.flow < b.flow;
                    });

  report.top.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    input.round = ranked[i].round;
    input.ones_in_round = ranked[i].ones;
    input.estimate = ranked[i].estimate;
    report.top.push_back(FlowHealth{ranked[i].flow, DeriveHealth(input)});
  }
  return report;
}

void PublishHealth(const HealthReport& report, std::string_view prefix) {
  auto& registry = telemetry::MetricsRegistry::Global();
  const std::string p(prefix);
  registry.GetGauge(p + "_health_round")
      ->Set(static_cast<int64_t>(report.round));
  registry.GetGauge(p + "_health_virtual_round_milli")
      ->Set(static_cast<int64_t>(std::llround(report.virtual_round * 1e3)));
  registry.GetGauge(p + "_health_fill_permille")
      ->Set(Permille(report.fill_fraction));
  registry.GetGauge(p + "_health_expected_rel_error_ppm")
      ->Set(Ppm(report.expected_relative_error));
  registry.GetGauge(p + "_health_morph_cadence_items")
      ->Set(static_cast<int64_t>(std::llround(report.morph_cadence_items)));
  registry.GetGauge(p + "_health_headroom_permille")
      ->Set(Permille(report.headroom));
  registry.GetGauge(p + "_health_saturated")->Set(report.saturated ? 1 : 0);
  registry.GetGauge(p + "_health_near_saturation")
      ->Set(report.near_saturation ? 1 : 0);
  registry.GetGauge(p + "_health_stuck_round")
      ->Set(report.stuck_round ? 1 : 0);
}

void PublishArenaHealth(const ArenaHealthReport& report) {
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.GetGauge("arena_health_flows")
      ->Set(static_cast<int64_t>(report.num_flows));
  registry.GetGauge("arena_health_saturated_flows")
      ->Set(static_cast<int64_t>(report.saturated_flows));
  registry.GetGauge("arena_health_stuck_flows")
      ->Set(static_cast<int64_t>(report.stuck_flows));
  registry.GetGauge("arena_health_max_round_in_use")
      ->Set(static_cast<int64_t>(report.max_round_in_use));
  registry.GetGauge("arena_health_max_estimate")
      ->Set(static_cast<int64_t>(std::llround(report.max_estimate)));
  registry.GetGauge("arena_health_nursery_flows")
      ->Set(static_cast<int64_t>(report.nursery_flows));
  registry.GetGauge("arena_health_evicted_flows")
      ->Set(static_cast<int64_t>(report.evicted_flows));
  registry.GetGauge("arena_health_promoted_flows")
      ->Set(static_cast<int64_t>(report.promoted_flows));
  registry.GetGauge("arena_health_live_bytes")
      ->Set(static_cast<int64_t>(report.live_bytes));
  registry.GetGauge("arena_health_budget_bytes")
      ->Set(static_cast<int64_t>(report.budget_bytes));
  registry.GetGauge("arena_health_hugepage_bytes")
      ->Set(static_cast<int64_t>(report.hugepage_bytes));
  registry.GetGauge("arena_health_memory_pressure")
      ->Set(report.memory_pressure ? 1 : 0);
  for (size_t i = 0; i < report.top.size(); ++i) {
    const telemetry::Labels labels = {{"rank", std::to_string(i)}};
    const HealthReport& top = report.top[i].report;
    registry.GetGauge("arena_health_top_estimate", labels)
        ->Set(static_cast<int64_t>(std::llround(top.estimate)));
    registry.GetGauge("arena_health_top_round", labels)
        ->Set(static_cast<int64_t>(top.round));
    registry.GetGauge("arena_health_top_rel_error_ppm", labels)
        ->Set(Ppm(top.expected_relative_error));
  }
}

}  // namespace smb::health
