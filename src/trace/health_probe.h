// Estimator health self-diagnostics (DESIGN.md §14): asks a live sketch
// "how accurate are you right now, and are you in trouble?" using only
// state the estimators already expose plus the paper's own error theory
// (core/smb_theory.h, Theorem 3).
//
// Derived quantities:
//   fill_fraction            v / m_r, the fraction of the current logical
//                            bitmap set this round
//   virtual_round            r + v/T — fractional morph progress; a probe
//                            at virtual round 3.9 is about to morph
//   expected_relative_error  the smallest delta with
//                            Pr(|n - n̂|/n <= delta) >= 68.27%
//                            under Theorem 3 at n = n̂ (one-sigma
//                            confidence; found by bisection, since
//                            SmbErrorBound is monotone in delta)
//   morph_cadence_items      n̂ / r — estimated items per completed morph
//   headroom                 1 - virtual_round / max_round, how much of
//                            the morph schedule remains
// Pathology flags:
//   saturated        final round and logical bitmap (almost) full: the
//                    estimate is pinned at MaxEstimate
//   near_saturation  >= 90% of the morph schedule consumed
//   stuck_round      v >= T below the final round — unreachable through
//                    the audited morph site, so it indicates state
//                    corruption (a self-check, not a workload condition)
//
// PublishHealth writes the report into the MetricsRegistry as gauges
// (scaled to integers: permille / ppm), so health rides the existing
// Prometheus text exporter with zero new export machinery.

#ifndef SMBCARD_TRACE_HEALTH_PROBE_H_
#define SMBCARD_TRACE_HEALTH_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace smb {

class SelfMorphingBitmap;
class ArenaSmbEngine;

namespace health {

// One-sigma coverage of the normal distribution — the confidence level
// expected_relative_error is quoted at.
inline constexpr double kOneSigmaConfidence = 0.6827;

// The raw observable state every probe reduces to; exposed so tests (and
// external snapshots) can derive health without a live object.
struct HealthInput {
  size_t num_bits = 0;    // physical m
  size_t threshold = 0;   // morph threshold T
  size_t max_round = 0;   // deepest round (m, T) supports
  size_t round = 0;       // current r
  size_t ones_in_round = 0;  // current v
  double estimate = 0.0;  // the sketch's own n̂
};

struct HealthReport {
  double estimate = 0.0;
  double fill_fraction = 0.0;
  double virtual_round = 0.0;
  double expected_relative_error = 0.0;
  double morph_cadence_items = 0.0;
  double headroom = 1.0;
  size_t round = 0;
  size_t max_round = 0;
  bool saturated = false;
  bool near_saturation = false;
  bool stuck_round = false;

  // The raised pathology flags by name ("saturated", "near_saturation",
  // "stuck_round"); empty means healthy.
  std::vector<std::string> flags;
};

// Smallest delta such that SmbErrorBound(m, T, n, delta) >= confidence,
// to ~1e-6 absolute; 1.0 when no delta < 1 reaches the confidence (the
// bound cannot certify this configuration at this n).
double ExpectedRelativeError(size_t num_bits, size_t threshold, uint64_t n,
                             double confidence = kOneSigmaConfidence);

// Pure derivation, no estimator needed.
HealthReport DeriveHealth(const HealthInput& input);

HealthReport ProbeSmb(const SelfMorphingBitmap& smb);

// Per-flow aggregate health of an arena engine, plus the top_k flows by
// estimate (descending) probed individually.
struct FlowHealth {
  uint64_t flow = 0;
  HealthReport report;
};

struct ArenaHealthReport {
  size_t num_flows = 0;
  size_t saturated_flows = 0;
  size_t stuck_flows = 0;
  size_t max_round_in_use = 0;  // deepest round any flow reached
  double max_estimate = 0.0;    // largest per-flow estimate
  std::vector<FlowHealth> top;  // top_k flows by estimate

  // Residency and memory governance (ArenaSmbEngine::Stats()).
  size_t nursery_flows = 0;    // live flows on a position list
  size_t evicted_flows = 0;    // flows reclaimed by the memory budget
  size_t promoted_flows = 0;   // list -> bitmap graduations
  size_t live_bytes = 0;       // bytes the budget governs
  size_t budget_bytes = 0;     // configured ceiling (0 = unlimited)
  size_t hugepage_bytes = 0;   // slab bytes on HugeTLB or THP-advised maps
  // Raised when a nonzero budget is >= 90% consumed: the engine is
  // actively evicting (or about to), so cold-flow estimates may be lost.
  bool memory_pressure = false;
};

ArenaHealthReport ProbeArena(const ArenaSmbEngine& engine, size_t top_k);

// Registry publication. Gauge names are `<prefix>_health_*`:
//   _round, _virtual_round_milli, _fill_permille,
//   _expected_rel_error_ppm, _morph_cadence_items, _headroom_permille,
//   _saturated, _near_saturation, _stuck_round  (flags as 0/1)
void PublishHealth(const HealthReport& report,
                   std::string_view prefix = "smb");

// Publishes `arena_health_*` aggregates plus per-rank gauges for the
// top flows, labeled {rank=i}: arena_health_top_estimate,
// arena_health_top_round, arena_health_top_rel_error_ppm. Residency
// rides along as arena_health_nursery_flows, _evicted_flows,
// _promoted_flows, _live_bytes, _budget_bytes, _hugepage_bytes and the
// _memory_pressure flag.
void PublishArenaHealth(const ArenaHealthReport& report);

}  // namespace health
}  // namespace smb

#endif  // SMBCARD_TRACE_HEALTH_PROBE_H_
