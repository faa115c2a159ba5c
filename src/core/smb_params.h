// Parameterization of the self-morphing bitmap: the precomputed S[r] table
// of constants (paper Eq. 9) and the optimal threshold T selection procedure
// of Section IV-B.

#ifndef SMBCARD_CORE_SMB_PARAMS_H_
#define SMBCARD_CORE_SMB_PARAMS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace smb {

// Largest round index a (m, T) configuration supports: the last r with a
// non-empty logical bitmap, r_max = floor((m - 1) / T). Round r uses the
// logical bitmap of m_r = m - r*T bits.
size_t SmbMaxRound(size_t m, size_t threshold);

// True when round r, fill v and the bitmap `words` form a state an m-bit
// SMB with threshold T can reach by recording: r <= r_max; v < T before
// the final round (a round morphs the moment v reaches T); v <= m - r*T;
// `words` spans exactly ceil(m / 64) words with no bit set at or above m;
// and popcount(words) == r*T + v (every completed round set exactly T
// fresh bits). Every reader of serialized SMB state checks it.
bool SmbStateReachable(size_t m, size_t threshold, uint64_t round,
                       uint64_t ones, std::span<const uint64_t> words);
// The same rule for a bitmap already known to span ceil(m / 64) words
// with a clean tail and `set_bits` bits set (what codec::DecodeSlot
// guarantees and reports), so the words need no second pass.
bool SmbStateReachableCounts(size_t m, size_t threshold, uint64_t round,
                             uint64_t ones, uint64_t set_bits);

// Builds the S table of paper Eq. (9):
//   S[0] = 0,
//   S[r] = sum_{i=0}^{r-1} -2^i * m * ln(1 - T / (m - i*T)),  1 <= r <= r_max.
// S[r] is the (constant) cumulative estimate contributed by the completed
// rounds 0..r-1. The returned vector has r_max + 1 entries.
std::vector<double> BuildSTable(size_t m, size_t threshold);

// Largest estimate the configuration can report before saturating:
// S[r_max] plus the final round's contribution with U_r = m_{r_max} - 1
// (paper Section III-B, "maximum estimate" discussion).
double SmbMaxEstimate(size_t m, size_t threshold);

// Result of the Section IV-B numeric optimization.
struct OptimalThresholdResult {
  size_t threshold = 0;   // optimal T
  size_t rounds = 0;      // m / T, the "optimal integer value of m/T"
  double beta = 0.0;      // error-bound probability at the probe delta
  double max_estimate = 0.0;
};

// Numerically derives the optimal threshold T for an m-bit SMB expected to
// observe cardinalities up to n: among integer round capacities R = m/T
// whose estimation range covers `n` (with a 2x safety factor, so the bound
// also holds for smaller streams per Section IV-B), picks the one that
// maximizes the Theorem 3 bound beta at `probe_delta`.
OptimalThresholdResult OptimalThreshold(size_t m, uint64_t n,
                                        double probe_delta = 0.05);

// Convenience: optimal T only.
inline size_t OptimalThresholdValue(size_t m, uint64_t n) {
  return OptimalThreshold(m, n).threshold;
}

}  // namespace smb

#endif  // SMBCARD_CORE_SMB_PARAMS_H_
