#include "core/self_morphing_bitmap.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/bit_util.h"
#include "common/le_bytes.h"
#include "common/macros.h"
#include "core/smb_merge.h"
#include "core/smb_params.h"
#include "hash/batch_hash.h"
#include "hash/geometric.h"
#include "telemetry/metrics_registry.h"
#include "trace/flight_recorder.h"
#include "trace/span_tracer.h"

namespace smb {

#if SMB_TELEMETRY_ENABLED
namespace {

// Process-unique id (>= 1) tagging one instance's kMorph flight events.
uint64_t NextInstanceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Process-wide SMB recording counters, registered once. The pointers stay
// valid forever (the registry never deallocates entries), so the hot path
// pays exactly one relaxed fetch_add per update.
struct SmbCounters {
  telemetry::Counter* gate_accepts;
  telemetry::Counter* gate_rejects;
  telemetry::Counter* duplicate_bits;
  telemetry::Counter* morphs;
};

SmbCounters& GlobalSmbCounters() {
  static SmbCounters counters = [] {
    auto& registry = telemetry::MetricsRegistry::Global();
    return SmbCounters{
        registry.GetCounter("smb_gate_accepts_total"),
        registry.GetCounter("smb_gate_rejects_total"),
        registry.GetCounter("smb_duplicate_bits_total"),
        registry.GetCounter("smb_morphs_total"),
    };
  }();
  return counters;
}

}  // namespace
#endif  // SMB_TELEMETRY_ENABLED

SelfMorphingBitmap::SelfMorphingBitmap(const Config& config)
    : CardinalityEstimator(config.hash_seed),
      threshold_(config.threshold),
      max_round_(SmbMaxRound(config.num_bits, config.threshold)),
      bits_(config.num_bits),
      s_table_(BuildSTable(config.num_bits, config.threshold)),
      max_estimate_(SmbMaxEstimate(config.num_bits, config.threshold)) {
  SMB_CHECK_MSG(config.num_bits >= 8, "SMB needs at least 8 bits");
  SMB_CHECK_MSG(config.threshold >= 1 && config.threshold <= config.num_bits,
                "threshold must be in [1, num_bits]");
#if SMB_TELEMETRY_ENABLED
  telem_instance_id_ = NextInstanceId();
#endif
}

SelfMorphingBitmap SelfMorphingBitmap::WithOptimalThreshold(
    size_t num_bits, uint64_t design_cardinality, uint64_t hash_seed) {
  Config config;
  config.num_bits = num_bits;
  config.threshold = OptimalThresholdValue(num_bits, design_cardinality);
  config.hash_seed = hash_seed;
  return SelfMorphingBitmap(config);
}

void SelfMorphingBitmap::AddHash(Hash128 hash) {
#if SMB_TELEMETRY_ENABLED
  ++telem_items_seen_;
#endif
  // Step 1 (Algorithm 1): geometric sampling. Round r admits items with
  // G(d) >= r, i.e., probability 2^-r (Lemma 1). The common case for large
  // streams is rejection with no memory access at all.
  const int rank = GeometricRank(hash.hi);
  if (SMB_LIKELY(static_cast<size_t>(rank) < round_)) {
#if SMB_TELEMETRY_ENABLED
    GlobalSmbCounters().gate_rejects->Add();
#endif
    return;
  }
#if SMB_TELEMETRY_ENABLED
  GlobalSmbCounters().gate_accepts->Add();
#endif

  // Step 2: set the item's bit in the physical bitmap. Theorem 2: a
  // duplicate finds its bit already set (or fails Step 1) and is ignored.
  const size_t pos = FastRange64(hash.lo, bits_.size());
  if (!bits_.TestAndSet(pos)) {
#if SMB_TELEMETRY_ENABLED
    GlobalSmbCounters().duplicate_bits->Add();
#endif
    return;
  }
  ++ones_in_round_;

  // Step 3: morph once the round filled T fresh bits. The final round
  // cannot morph (the next logical bitmap would be empty); v keeps growing
  // there and Estimate()/saturated() report the state faithfully.
  MorphIfRoundFull();
}

inline void SelfMorphingBitmap::MorphIfRoundFull() {
  if (SMB_UNLIKELY(ones_in_round_ >= threshold_) && round_ < max_round_) {
    ++round_;
    ones_in_round_ = 0;
    // Black-box morph transition, the process's one morph record:
    // (instance, new round, items seen), items seen exact under Add() and
    // block-granular under AddBatch. Morphs fire at most max_round times
    // per sketch lifetime, so the flight ring's mutex is nowhere near the
    // per-item path.
#if SMB_TELEMETRY_ENABLED
    trace::FlightRecorder::Global().Record(trace::FlightEventType::kMorph,
                                           telem_instance_id_, round_,
                                           telem_items_seen_);
    GlobalSmbCounters().morphs->Add();
#else
    trace::FlightRecorder::Global().Record(trace::FlightEventType::kMorph,
                                           0, round_, 0);
#endif
  }
}

void SelfMorphingBitmap::AddBatch(std::span<const uint64_t> items) {
  // Stage 1 hashes a whole block multi-lane — hashing is independent of
  // the (r, v, bitmap) state, so it can run arbitrarily far ahead of the
  // probes. Stage 2 compacts the lanes that survive the geometric gate at
  // the block's entry round; stages 3 (positions + prefetch) and 4 (in-
  // order apply) then touch only survivors. In the high-cardinality
  // regime the gate passes a 2^-r fraction of lanes, so almost no lane
  // ever reaches FastRange64 or the bitmap.
  uint64_t lo[kBatchBlock];
  uint8_t rank[kBatchBlock];
  uint64_t surv_lo[kBatchBlock];
  uint8_t surv_rank[kBatchBlock];
  size_t surv_pos[kBatchBlock];
  while (!items.empty()) {
    const size_t n = std::min(items.size(), kBatchBlock);
    {
      TRACE_SPAN("core", "smb.batch_hash_rank");
      BatchHashAndRank(items.data(), n, hash_seed(), lo, rank);
    }

    // Gate-first lane compaction. round_ only grows within a block, so a
    // lane rejected at the entry round would also be rejected at its turn
    // in the sequential order; survivors can still be re-rejected at
    // apply time if an intervening morph raised the round (ApplySurvivors
    // re-gates each lane).
    const size_t round_at_entry = round_;
    size_t survivors = 0;
    {
      TRACE_SPAN("core", "smb.gate_compact");
      for (size_t i = 0; i < n; ++i) {
        if (SMB_UNLIKELY(static_cast<size_t>(rank[i]) >= round_at_entry)) {
          surv_lo[survivors] = lo[i];
          surv_rank[survivors] = rank[i];
          ++survivors;
        }
      }
      for (size_t j = 0; j < survivors; ++j) {
        surv_pos[j] = FastRange64(surv_lo[j], bits_.size());
        bits_.PrefetchForWrite(surv_pos[j]);
      }
    }
#if SMB_TELEMETRY_ENABLED
    telem_items_seen_ += n;
#endif
    {
      TRACE_SPAN("core", "smb.apply");
      ApplySurvivors(n, survivors, surv_rank, surv_pos);
    }
    items = items.subspan(n);
  }
}

void SelfMorphingBitmap::ApplySurvivors(size_t block_items, size_t survivors,
                                        const uint8_t* ranks,
                                        const size_t* positions) {
#if SMB_TELEMETRY_ENABLED
  // Counter updates are batched per block so telemetry costs a handful of
  // relaxed fetch_adds per kBatchBlock items, not one per item.
  uint64_t accepts = 0;
  uint64_t duplicates = 0;
#endif
  // Word-coalesced in-order apply: consecutive survivors landing in the
  // same 64-bit word share one load and one deferred store. Correctness:
  // while a word is cached, every read and write of it goes through the
  // cache, so each probe sees exactly the state the uncoalesced loop
  // would — the sequence of fresh-bit outcomes, and therefore v and every
  // morph point, is bit-identical to sequential Add(). The cache is
  // flushed at every morph checkpoint and at the end of the block.
  const std::span<uint64_t> words = bits_.mutable_words();
  constexpr size_t kNoWord = static_cast<size_t>(-1);
  size_t cached_idx = kNoWord;
  uint64_t cached_word = 0;
  const auto flush = [&] {
    if (cached_idx != kNoWord) words[cached_idx] = cached_word;
  };
  for (size_t j = 0; j < survivors; ++j) {
    // Re-gate against the live round: a morph earlier in this block
    // rejects survivors whose rank no longer clears it, exactly as the
    // item-at-a-time loop would at their turn.
    if (SMB_UNLIKELY(static_cast<size_t>(ranks[j]) < round_)) continue;
#if SMB_TELEMETRY_ENABLED
    ++accepts;
#endif
    const size_t idx = positions[j] >> 6;
    const uint64_t mask = uint64_t{1} << (positions[j] & 63);
    if (idx != cached_idx) {
      flush();
      cached_idx = idx;
      cached_word = words[idx];
    }
    if (cached_word & mask) {
#if SMB_TELEMETRY_ENABLED
      ++duplicates;
#endif
      continue;
    }
    cached_word |= mask;
    ++ones_in_round_;
    if (SMB_UNLIKELY(ones_in_round_ >= threshold_)) {
      // Morph checkpoint: flush so the physical bitmap is consistent
      // before the round advances (and telemetry observes it). In the
      // final round the flush simply keeps the bitmap current.
      flush();
      cached_idx = kNoWord;
      MorphIfRoundFull();
    }
  }
  flush();
#if SMB_TELEMETRY_ENABLED
  SmbCounters& counters = GlobalSmbCounters();
  if (accepts > 0) counters.gate_accepts->Add(accepts);
  if (accepts < block_items) counters.gate_rejects->Add(block_items - accepts);
  if (duplicates > 0) counters.duplicate_bits->Add(duplicates);
#else
  (void)block_items;
#endif
}

void SelfMorphingBitmap::EstimateMany(
    std::span<const SelfMorphingBitmap* const> sketches,
    std::span<double> out) {
  SMB_CHECK_MSG(out.size() >= sketches.size(),
                "EstimateMany output span smaller than sketch pool");
  if (sketches.empty()) return;
  const SelfMorphingBitmap& head = *sketches[0];
  const size_t m = head.bits_.size();
  const size_t threshold = head.threshold_;
  // Shared per-round constants, resolved once for the whole pool: every
  // sketch with this (m, T) geometry has the same S-table, logical sizes
  // and scale factors, so the per-sketch work collapses to one gather of
  // (r, v) plus a single log1p.
  const std::vector<double>& s = head.s_table_;
  std::vector<double> scale(head.max_round_ + 1);
  std::vector<double> logical_bits(head.max_round_ + 1);
  for (size_t r = 0; r <= head.max_round_; ++r) {
    scale[r] = std::ldexp(static_cast<double>(m), static_cast<int>(r));
    logical_bits[r] = static_cast<double>(m - r * threshold);
  }
  for (size_t i = 0; i < sketches.size(); ++i) {
    const SelfMorphingBitmap& sketch = *sketches[i];
    SMB_CHECK_MSG(sketch.bits_.size() == m && sketch.threshold_ == threshold,
                  "EstimateMany requires a uniform (m, T) geometry");
    const size_t r = sketch.round_;
    const double m_r = logical_bits[r];
    // Same operations, operand values and order as Estimate(), so the
    // batched result is bit-identical (pinned by tests).
    const double v =
        std::min(static_cast<double>(sketch.ones_in_round_), m_r - 1.0);
    out[i] = v <= 0.0 ? s[r] : s[r] + scale[r] * (-std::log1p(-v / m_r));
  }
}

void SelfMorphingBitmap::MergeFrom(const SelfMorphingBitmap& other) {
  SMB_CHECK_MSG(CanMergeWith(other),
                "SMB merge requires equal (num_bits, threshold, hash_seed)");
  TRACE_SPAN("core", "smb.merge_replay");
  trace::FlightRecorder::Global().Record(
      trace::FlightEventType::kMergeOp,
      static_cast<uint64_t>(Estimate()),
      static_cast<uint64_t>(other.Estimate()), /*kind=*/0);
  const SmbMergeGeometry geometry{bits_.size(), threshold_, max_round_,
                                  /*sampling_base=*/2.0};
  const uint64_t salt = Murmur3Fmix64(hash_seed() ^ kSmbMergeSalt);
  if (SmbMergePrefersSource(round_, ones_in_round_, other.round_,
                            other.ones_in_round_)) {
    // The other operand is coarser: adopt its state as the base and
    // replay our previous contents into it.
    BitVector replay = std::move(bits_);
    const size_t replay_round = round_;
    const size_t replay_fill = ones_in_round_;
    bits_ = other.bits_;
    round_ = other.round_;
    ones_in_round_ = other.ones_in_round_;
    SmbReplayMergeBits(geometry, salt, bits_.mutable_words(), &round_,
                       &ones_in_round_, replay.words(), replay_round,
                       replay_fill);
  } else {
    SmbReplayMergeBits(geometry, salt, bits_.mutable_words(), &round_,
                       &ones_in_round_, other.bits_.words(), other.round_,
                       other.ones_in_round_);
  }
}

SelfMorphingBitmap SelfMorphingBitmap::Clone() const {
  Config config;
  config.num_bits = bits_.size();
  config.threshold = threshold_;
  config.hash_seed = hash_seed();
  SelfMorphingBitmap copy(config);
  copy.bits_ = bits_;
  copy.round_ = round_;
  copy.ones_in_round_ = ones_in_round_;
  return copy;
}

double SelfMorphingBitmap::Estimate() const {
  const double m_r = static_cast<double>(LogicalBits());
  // Clamp the final round's fill at m_r - 1: a fully saturated logical
  // bitmap has no finite linear-counting estimate, so we report the largest
  // representable one (and saturated() flags it).
  const double v = std::min(static_cast<double>(ones_in_round_), m_r - 1.0);
  if (v <= 0.0) return s_table_[round_];
  const double scale =
      std::ldexp(static_cast<double>(bits_.size()), static_cast<int>(round_));
  return s_table_[round_] + scale * (-std::log1p(-v / m_r));
}

void SelfMorphingBitmap::Reset() {
  bits_.ClearAll();
  round_ = 0;
  ones_in_round_ = 0;
#if SMB_TELEMETRY_ENABLED
  telem_items_seen_ = 0;
#endif
}

double SelfMorphingBitmap::SamplingProbability() const {
  return std::ldexp(1.0, -static_cast<int>(round_));
}

double SelfMorphingBitmap::FillFraction() const {
  return static_cast<double>(ones_in_round_) /
         static_cast<double>(LogicalBits());
}

bool SelfMorphingBitmap::saturated() const {
  return round_ == max_round_ && ones_in_round_ + 1 >= LogicalBits();
}

namespace {

// Serialization layout (little-endian):
//   magic "SMB2" (4 bytes)
//   u64 num_bits, u64 threshold, u64 hash_seed, u64 round, u64 ones_in_round
//   u64 word_count, then word_count x u64 bitmap words,
//   u64 checksum (Murmur3_64 of every preceding byte).
// "SMB1" snapshots (no checksum, laxer validation) are not accepted.
constexpr char kMagic[4] = {'S', 'M', 'B', '2'};
constexpr uint64_t kChecksumSeed = 0x534D4232u;  // "SMB2"

uint64_t SnapshotChecksum(const uint8_t* data, size_t len) {
  return Murmur3_128(data, len, kChecksumSeed).lo;
}

}  // namespace

std::vector<uint8_t> SelfMorphingBitmap::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(4 + 7 * 8 + bits_.words().size() * 8);
  for (char c : kMagic) out.push_back(static_cast<uint8_t>(c));
  AppendU64(&out, bits_.size());
  AppendU64(&out, threshold_);
  AppendU64(&out, hash_seed());
  AppendU64(&out, round_);
  AppendU64(&out, ones_in_round_);
  AppendU64(&out, bits_.words().size());
  AppendU64s(&out, bits_.words());
  AppendU64(&out, SnapshotChecksum(out.data(), out.size()));
  return out;
}

std::optional<SelfMorphingBitmap> SelfMorphingBitmap::Deserialize(
    const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return std::nullopt;
  }
  size_t pos = 4;
  uint64_t num_bits, threshold, seed, round, ones, word_count;
  if (!ReadU64(bytes, &pos, &num_bits) || !ReadU64(bytes, &pos, &threshold) ||
      !ReadU64(bytes, &pos, &seed) || !ReadU64(bytes, &pos, &round) ||
      !ReadU64(bytes, &pos, &ones) || !ReadU64(bytes, &pos, &word_count)) {
    return std::nullopt;
  }
  if (num_bits < 8 || threshold < 1 || threshold > num_bits) {
    return std::nullopt;
  }
  // Rounded up without `num_bits + 63`, which wraps near 2^64.
  if (word_count != num_bits / 64 + (num_bits % 64 != 0)) {
    return std::nullopt;
  }
  // Exact-size check: trailing bytes after the word array + checksum would
  // silently be ignored otherwise (a truncated-then-padded snapshot could
  // pass).
  if (bytes.size() != pos + word_count * 8 + 8) return std::nullopt;

  std::vector<uint64_t> words(word_count);
  if (!ReadU64s(bytes, &pos, words)) return std::nullopt;
  uint64_t checksum = 0;
  if (!ReadU64(bytes, &pos, &checksum) ||
      checksum != SnapshotChecksum(bytes.data(), bytes.size() - 8)) {
    return std::nullopt;
  }

  // The header must agree with the bitmap. Stray bits above num_bits
  // would break the BitVector invariant that the unused tail of the last
  // word is zero, and a corrupted (round, ones) would silently shift
  // Estimate() by whole S-table entries.
  if (!SmbStateReachable(num_bits, threshold, round, ones, words)) {
    return std::nullopt;
  }

  Config config;
  config.num_bits = num_bits;
  config.threshold = threshold;
  config.hash_seed = seed;
  std::optional<SelfMorphingBitmap> out;
  out.emplace(config);
  out->bits_.set_words(std::move(words));
  out->round_ = round;
  out->ones_in_round_ = ones;
  return out;
}

SelfMorphingBitmap SelfMorphingBitmap::FromState(const Config& config,
                                                 std::vector<uint64_t> words,
                                                 size_t round,
                                                 size_t ones_in_round) {
  SelfMorphingBitmap out(config);  // validates (num_bits, threshold)
  SMB_CHECK_MSG(SmbStateReachable(config.num_bits, config.threshold, round,
                                  ones_in_round, words),
                "FromState (round, fill, bitmap) is not a reachable state");
  out.bits_.set_words(std::move(words));
  out.round_ = round;
  out.ones_in_round_ = ones_in_round;
  return out;
}

}  // namespace smb
