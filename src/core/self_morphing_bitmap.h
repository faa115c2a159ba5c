// Self-Morphing Bitmap (SMB) — the paper's primary contribution.
//
// One physical m-bit bitmap plus two small integers:
//   r — round index. Round r samples items with probability 2^-r via the
//       geometric hash (Lemma 1).
//   v — bits newly set in the current round. When v reaches the threshold
//       T, the bitmap "morphs": r += 1, v = 0, and the remaining zero bits
//       become the next logical bitmap L_r of m_r = m - r*T bits.
//
// Recording (Algorithm 1) costs one hash; a fraction 2^-r of items touch
// memory at all, so recording throughput *rises* with stream size.
// Querying (Algorithm 2) is O(1): n̂ = S[r] - 2^r·m·ln(1 - v/(m - r·T)),
// with S precomputed at construction. Duplicate items are never counted
// twice (Theorem 2).

#ifndef SMBCARD_CORE_SELF_MORPHING_BITMAP_H_
#define SMBCARD_CORE_SELF_MORPHING_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bitvec/bit_vector.h"
#include "core/cardinality_estimator.h"
#include "hash/murmur3.h"

namespace smb {

class SelfMorphingBitmap final : public CardinalityEstimator {
 public:
  struct Config {
    // Physical bitmap size m in bits. Must be >= 8.
    size_t num_bits = 10000;
    // Morph threshold T in bits, 1 <= T <= m. Use smb::OptimalThreshold()
    // (Section IV-B) unless you have a reason not to.
    size_t threshold = 1000;
    // Seed of the per-item hash.
    uint64_t hash_seed = 0;
  };

  explicit SelfMorphingBitmap(const Config& config);

  SelfMorphingBitmap(SelfMorphingBitmap&&) = default;
  SelfMorphingBitmap& operator=(SelfMorphingBitmap&&) = default;

  // Convenience: m-bit SMB with T chosen optimally for cardinalities up to
  // `design_cardinality` (Section IV-B numeric optimization).
  static SelfMorphingBitmap WithOptimalThreshold(size_t num_bits,
                                                 uint64_t design_cardinality,
                                                 uint64_t hash_seed = 0);

  // CardinalityEstimator interface -----------------------------------------
  void AddHash(Hash128 hash) override;
  // Block-recording fast path: hashes a block of keys multi-lane through
  // the SIMD batch kernel (hash/batch_hash.h), gate-filters and compacts
  // the lanes that survive the current round's sampling filter, and only
  // then computes positions, prefetches, and applies the probes in stream
  // order with word-coalesced bit-sets between morph checkpoints.
  // Bit-for-bit equivalent to a sequential Add() loop (fuzz-asserted for
  // every compiled kernel variant).
  void AddBatch(std::span<const uint64_t> items) override;
  double Estimate() const override;
  // Batched query path: writes Estimate() of sketches[i] into out[i].
  // Every sketch must share the same (num_bits, threshold) geometry (hash
  // seeds may differ); the S-table and the per-round scale factors are
  // then resolved once for the whole pool instead of once per sketch —
  // the Table-5 regime of querying a large fleet of per-flow sketches
  // back-to-back. Results are bit-identical to per-sketch Estimate().
  static void EstimateMany(
      std::span<const SelfMorphingBitmap* const> sketches,
      std::span<double> out);
  // m bits plus the 32 auxiliary bits for (r, v) that the paper's query-
  // overhead analysis counts (6 bits of r + 26 bits of v).
  size_t MemoryBits() const override { return bits_.size() + 32; }
  void Reset() override;
  std::string_view Name() const override { return "SMB"; }

  // Introspection -----------------------------------------------------------
  size_t num_bits() const { return bits_.size(); }
  size_t threshold() const { return threshold_; }
  // Current round index r.
  size_t round() const { return round_; }
  // Bits newly set in the current round (v).
  size_t ones_in_round() const { return ones_in_round_; }
  // Current sampling probability p_r = 2^-r.
  double SamplingProbability() const;
  // Size m_r of the current logical bitmap L_r.
  size_t LogicalBits() const { return bits_.size() - round_ * threshold_; }
  // Fraction of the current logical bitmap that is set (v / m_r).
  double FillFraction() const;
  // True once the final logical bitmap is (almost) full: every bit of the
  // physical bitmap is one and the estimate has hit MaxEstimate().
  bool saturated() const;
  // Largest estimate this configuration can report.
  double MaxEstimate() const { return max_estimate_; }
  // Largest round index supported by (m, T).
  size_t max_round() const { return max_round_; }
  // The precomputed constants table S (paper Eq. 9), S[0..max_round()].
  const std::vector<double>& s_table() const { return s_table_; }

  // Telemetry introspection --------------------------------------------------
  // Id tagging this instance's kMorph events in trace::FlightRecorder.
  uint64_t telemetry_instance_id() const { return telem_instance_id_; }
  // Items offered to this instance so far (accepted or gate-rejected).
  uint64_t telemetry_items_seen() const { return telem_items_seen_; }

  // Merging ------------------------------------------------------------------
  // Two SMBs can merge when they share the full recording geometry: same
  // m, same morph threshold T, same hash seed (identical items must map
  // to identical gate ranks and bit positions).
  bool CanMergeWith(const SelfMorphingBitmap& other) const {
    return num_bits() == other.num_bits() &&
           threshold_ == other.threshold_ &&
           hash_seed() == other.hash_seed();
  }
  // Morph-aware approximate merge (core/smb_merge.h, DESIGN.md §13):
  // keeps the coarser operand's state verbatim and replays the finer
  // operand's bits through the live geometric gate, cohort by cohort, so
  // the result is a reachable SMB state whose estimate tracks a single
  // sketch fed the union stream within the documented bound. Exact when
  // the operands' contents coincide (self-merge and merge-with-empty are
  // identities); deterministic for given operands. Unlike the bitwise/max
  // merges of the Mergeable baselines this is NOT lossless — the paper's
  // morph schedule depends on stream order, so no exact merge exists.
  // Requires CanMergeWith(other).
  void MergeFrom(const SelfMorphingBitmap& other);

  // Deep copy (the base class deletes copying to prevent accidental
  // slicing; merge targets and windowed snapshots opt in explicitly).
  SelfMorphingBitmap Clone() const;

  // Serialization -----------------------------------------------------------
  // Compact binary encoding of configuration + full state.
  std::vector<uint8_t> Serialize() const;
  // Reconstructs an SMB from Serialize() output; nullopt on malformed or
  // truncated input.
  static std::optional<SelfMorphingBitmap> Deserialize(
      const std::vector<uint8_t>& bytes);
  // Reconstructs an SMB from raw in-memory state — the deserialization
  // path minus the wire framing, used by the per-flow engines to lift a
  // slot into a standalone sketch. CHECK-fails unless the state satisfies
  // the same reachability invariants Deserialize() enforces (popcount ==
  // round * T + ones, ones < T below the final round, zero word tail).
  static SelfMorphingBitmap FromState(const Config& config,
                                      std::vector<uint64_t> words,
                                      size_t round, size_t ones_in_round);

 private:
  // The single audited morph site: every recording path (Add, AddBatch,
  // the SIMD survivor apply) advances rounds only through here. Morphs
  // once the current round has filled T fresh bits and a next round
  // exists.
  void MorphIfRoundFull();

  // In-order apply stage of AddBatch: re-gates each surviving lane
  // against the live round, sets its bit (word-coalesced between morph
  // checkpoints), and maintains (v, r) plus the gate telemetry for a
  // block of `block_items` items of which `survivors` passed the entry
  // gate.
  void ApplySurvivors(size_t block_items, size_t survivors,
                      const uint8_t* ranks, const size_t* positions);

  size_t threshold_;
  size_t max_round_;
  size_t round_ = 0;
  size_t ones_in_round_ = 0;
  BitVector bits_;
  std::vector<double> s_table_;
  double max_estimate_;
  uint64_t telem_instance_id_ = 0;  // assigned in the constructor
  uint64_t telem_items_seen_ = 0;
};

}  // namespace smb

#endif  // SMBCARD_CORE_SELF_MORPHING_BITMAP_H_
