#include "core/smb_params.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <tuple>

#include "common/bit_util.h"
#include "common/macros.h"
#include "core/smb_theory.h"

namespace smb {

size_t SmbMaxRound(size_t m, size_t threshold) {
  SMB_CHECK(m >= 2 && threshold > 0 && threshold <= m);
  // Two caps beyond the obvious m/T bound:
  //  * the final round's logical bitmap needs >= 2 bits to record anything
  //    usefully (a 1-bit logical bitmap has no finite estimate), so the
  //    last r satisfies m - r*T >= 2;
  //  * the geometric hash rank is capped at 63 (64-bit hashes), so no item
  //    can ever pass Step 1 of a round with r > 63 — deeper rounds would
  //    be dead weight.
  return std::min<size_t>((m - 2) / threshold, 63);
}

bool SmbStateReachableCounts(size_t m, size_t threshold, uint64_t round,
                             uint64_t ones, uint64_t set_bits) {
  const size_t max_round = SmbMaxRound(m, threshold);
  if (round > max_round) return false;
  if (round < max_round && ones >= threshold) return false;
  if (ones > m - round * threshold) return false;
  return set_bits == round * threshold + ones;
}

bool SmbStateReachable(size_t m, size_t threshold, uint64_t round,
                       uint64_t ones, std::span<const uint64_t> words) {
  if (words.size() != m / 64 + (m % 64 != 0)) return false;
  const size_t tail_bits = m % 64;
  if (tail_bits != 0 && (words.back() >> tail_bits) != 0) return false;
  // Sparse bitmaps are the common case on recovery paths: skip zero words.
  uint64_t popcount = 0;
  for (const uint64_t w : words) {
    if (w != 0) popcount += static_cast<uint64_t>(Popcount64(w));
  }
  return SmbStateReachableCounts(m, threshold, round, ones, popcount);
}

std::vector<double> BuildSTable(size_t m, size_t threshold) {
  const size_t r_max = SmbMaxRound(m, threshold);
  std::vector<double> s(r_max + 1, 0.0);
  const double md = static_cast<double>(m);
  const double td = static_cast<double>(threshold);
  for (size_t r = 1; r <= r_max; ++r) {
    // Contribution of completed round i = r - 1, recorded in the logical
    // bitmap of m_i = m - i*T bits with sampling probability 2^-i:
    //   -2^i * m * ln(1 - T / m_i).
    const size_t i = r - 1;
    const double m_i = md - static_cast<double>(i) * td;
    SMB_DCHECK(m_i > td || r == r_max);
    const double scale = std::ldexp(md, static_cast<int>(i));
    s[r] = s[i] + scale * (-std::log1p(-td / m_i));
  }
  return s;
}

double SmbMaxEstimate(size_t m, size_t threshold) {
  const size_t r_max = SmbMaxRound(m, threshold);
  const std::vector<double> s = BuildSTable(m, threshold);
  const double m_r =
      static_cast<double>(m) - static_cast<double>(r_max * threshold);
  const double scale =
      std::ldexp(static_cast<double>(m), static_cast<int>(r_max));
  // Final round with U_r = m_r - 1 set bits (one zero bit left).
  if (m_r <= 1.0) return s[r_max];
  return s[r_max] + scale * std::log(m_r);
}

namespace {

OptimalThresholdResult OptimalThresholdUncached(size_t m, uint64_t n,
                                                double probe_delta);

}  // namespace

OptimalThresholdResult OptimalThreshold(size_t m, uint64_t n,
                                        double probe_delta) {
  // Memoized: per-flow deployments (sketch/PerFlowMonitor) construct one
  // SMB per flow with identical (m, n), and the numeric search is ~100us —
  // far more than recording a small flow. Never-destructed map per the
  // static-storage rules.
  using Key = std::tuple<size_t, uint64_t, double>;
  static std::mutex* mu = new std::mutex;
  static std::map<Key, OptimalThresholdResult>* cache =
      new std::map<Key, OptimalThresholdResult>;
  const Key key{m, n, probe_delta};
  {
    std::lock_guard<std::mutex> lock(*mu);
    const auto it = cache->find(key);
    if (it != cache->end()) return it->second;
  }
  const OptimalThresholdResult result =
      OptimalThresholdUncached(m, n, probe_delta);
  std::lock_guard<std::mutex> lock(*mu);
  cache->emplace(key, result);
  return result;
}

namespace {

OptimalThresholdResult OptimalThresholdUncached(size_t m, uint64_t n,
                                                double probe_delta) {
  SMB_CHECK(m >= 8);
  SMB_CHECK(n > 0);

  // Range safety factor: the chosen configuration must be able to report
  // estimates 2x beyond the design cardinality so that streams near n do
  // not saturate (Section IV-B chooses T "safe enough to accommodate the
  // data stream").
  const double required_range = 2.0 * static_cast<double>(n);

  OptimalThresholdResult best;
  OptimalThresholdResult best_any;  // fallback: widest range seen
  double best_p_star = -1.0;

  // Candidate round capacities R = m/T. R = 1 is a plain bitmap; beyond
  // ~64 rounds the sampling probability underflows any practical stream.
  // The selection objective is the worst-case p* of Theorem 3's proof —
  // beta(delta) is monotone in p* for every delta, so maximizing p* gives
  // the uniformly best error bound (and stays discriminative even where
  // beta itself has saturated at 0 or 1).
  const size_t max_rounds = std::min<size_t>(64, m / 2);
  for (size_t rounds = 1; rounds <= max_rounds; ++rounds) {
    const size_t t = m / rounds;
    if (t == 0) break;
    const double range = SmbMaxEstimate(m, t);
    OptimalThresholdResult cand;
    cand.threshold = t;
    cand.rounds = rounds;
    cand.max_estimate = range;
    cand.beta = SmbErrorBound(m, t, n, probe_delta);
    if (range > best_any.max_estimate) best_any = cand;
    if (range < required_range) continue;
    const double p_star = SmbWorstCasePStar(m, t, n, probe_delta);
    if (p_star > best_p_star) {
      best_p_star = p_star;
      best = cand;
    }
  }

  // If no candidate covers the required range (tiny m, huge n), return the
  // widest-range configuration so callers still get a usable estimator.
  if (best.threshold == 0) return best_any;
  return best;
}

}  // namespace

}  // namespace smb
