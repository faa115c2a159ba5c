// ArenaSmbEngine — cache-conscious per-flow SMB storage (DESIGN.md §12,
// scaled to 10M+ flows by §15).
//
// The legacy PerFlowMonitor keeps one heap-allocated SelfMorphingBitmap
// per flow behind an unordered_map of unique_ptrs: every packet pays a
// node walk, a pointer chase and a virtual call before it even reaches
// the geometric gate. This engine replaces that with flat arrays:
//
//   FlowTable      flow key -> dense row   (open addressing, incremental
//                                           rehash + tombstone erase,
//                                           flow/flow_table.h)
//   meta_[row]     packed (r, v)           (6-bit round << 26 | 26-bit v —
//                                           the paper's 32 auxiliary bits;
//                                           one cache line covers 16
//                                           flows' gate state)
//   slab_ref_[row] storage tier + slot     (nursery or main slab)
//   SlabArena x2   slot -> flow storage    (fixed stride, chunked mmap)
//
// The gate-before-slab invariant: the geometric gate reads only meta_, so
// a gate-rejected packet — the common case past round 0 — never touches
// either slab. Per-flow hash seeds are derived exactly as the legacy
// engine derives them (Murmur3Fmix64(base_seed ^ flow)) and every
// recording/query operation replays SelfMorphingBitmap's operations in
// the same order, so estimates are bit-identical to the legacy engine
// given the same seeds (pinned by the equivalence suite).
//
// Graduated storage (DESIGN.md §15): a brand-new flow holds only a
// handful of set bits, yet a fixed-stride slab charges it the full m-bit
// bitmap up front — on a heavy-tailed trace most of the slab is zeros
// belonging to single-digit-packet flows. New flows therefore start in
// the *nursery*: a small-stride slab whose slot is the flow's set-bit
// POSITIONS (one uint32 each) rather than the bitmap itself. While a
// flow's round is 0 its fill v equals its distinct-position count, so
// the position list is a lossless encoding of the full bitmap and every
// estimate/snapshot/merge sees exactly the bits the main slab would
// hold. The flow graduates to a main-slab slot (positions materialized
// into real bits) the moment the list fills or the next insert would
// morph it to round 1 — so main-slab bytes are spent only on flows that
// proved they have a tail.
//
// Memory budget + eviction (DESIGN.md §15): with a budget configured,
// crossing it evicts cold flows — CLOCK second-chance over the packed
// row metadata plus a per-row reference byte (refreshed by every lookup,
// including gate-rejected traffic), or 2Q, which drains the nursery
// first (newborn singletons are the cheapest state to re-learn). An
// evicted flow's table entry is tombstoned and its slab slot is
// free-listed for reuse; its state is dropped, or frozen when the cold
// tier (ArenaTuning::cold_tier) is on. The budget governs
// LiveBytes() — bytes of *live* rows — because slab chunks are never
// unmapped; mapped bytes plateau at the high-water mark while the free
// lists recycle slots beneath it.
//
// RecordBatch is the keyed batch pipeline: one SIMD kernel call hashes a
// block of flow keys (bucket hashes), table lookups run with bucket
// prefetch a few lanes ahead, a second *keyed* kernel call hashes the
// block's elements with each lane's own flow seed (hash/batch_hash.h's
// ItemSeedOffset identity), and surviving lanes prefetch their storage
// (either tier) before the in-order apply loop. Eviction runs only at
// block boundaries, so the row ids a block caches stay valid for the
// whole block.

#ifndef SMBCARD_FLOW_ARENA_SMB_ENGINE_H_
#define SMBCARD_FLOW_ARENA_SMB_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "estimators/estimator_factory.h"
#include "flow/cold_tier.h"
#include "flow/flow_table.h"
#include "flow/slab_arena.h"
#include "stream/trace_gen.h"

namespace smb {

// How the engine reclaims memory once LiveBytes() crosses the budget.
enum class ArenaEviction : uint8_t {
  kOff = 0,    // never evict (budget, if set, is ignored)
  kClock = 1,  // CLOCK second-chance over all rows
  k2Q = 2,     // CLOCK preferring nursery rows while any exist
};

// Knobs that do NOT affect recorded state (estimates are bit-identical
// across any tuning): placement, graduation and reclamation policy only.
struct ArenaTuning {
  // Live-bytes ceiling; 0 = unlimited. Enforced only when eviction is
  // not kOff.
  size_t memory_budget_bytes = 0;
  ArenaEviction eviction = ArenaEviction::kClock;
  // Nursery position-list capacity per flow; 0 disables the nursery, and
  // it auto-disables when a nursery slot would not be smaller than a
  // main-slab slot.
  size_t nursery_capacity = 16;
  // Frozen cold tier (DESIGN.md §17): with this on, an evicted flow's
  // state is SMBZ1-frozen in-process instead of being lost.
  // A returning flow thaws its exact state back before the gate runs
  // (recorded bits match a never-evicted oracle), queries for frozen
  // flows answer from the compressed header, and snapshots include
  // them. Cold bytes live outside LiveBytes() (they are what the budget
  // reclaims INTO); track them via ArenaStats::cold_encoded_bytes.
  bool cold_tier = false;
  // Page placement for both slabs (see SlabAllocOptions).
  bool try_hugepages = false;
};

class ArenaSmbEngine {
 public:
  struct Config {
    // Per-flow physical bitmap size m in bits (>= 8).
    size_t num_bits = 10000;
    // Morph threshold T, 1 <= T <= m.
    size_t threshold = 1000;
    // Base hash seed; flow f records with Murmur3Fmix64(base_seed ^ f),
    // exactly the legacy PerFlowMonitor derivation.
    uint64_t base_seed = 0;
    // Estimate-invariant placement/eviction knobs.
    ArenaTuning tuning;
  };

  // Whether (m, T) fits the packed 32-bit metadata: round in 6 bits
  // (max_round <= 63) and v in 26 bits (m < 2^26). Configurations outside
  // this envelope stay on the legacy map engine.
  static bool Supports(size_t num_bits, size_t threshold);

  // The arena configuration equivalent to CreateEstimator(spec) per flow:
  // kSmb only, T from the Section IV-B optimizer, spec.hash_seed as the
  // base seed. nullopt when the spec's kind or geometry is unsupported.
  static std::optional<Config> ConfigForSpec(const EstimatorSpec& spec);

  explicit ArenaSmbEngine(const Config& config);

  ArenaSmbEngine(ArenaSmbEngine&&) = default;
  ArenaSmbEngine& operator=(ArenaSmbEngine&&) = default;
  ArenaSmbEngine(const ArenaSmbEngine&) = delete;
  ArenaSmbEngine& operator=(const ArenaSmbEngine&) = delete;

  // Records one (flow, element) observation (scalar path).
  void Record(uint64_t flow, uint64_t element);

  // Keyed batch recording path; bit-identical to calling Record() per
  // packet in order.
  void RecordBatch(const Packet* packets, size_t n);
  void RecordBatch(std::span<const Packet> packets) {
    RecordBatch(packets.data(), packets.size());
  }

  // The geometric rank this engine's sampling gate computes for one
  // (flow, element) observation: GeometricRank(ItemHash128(element +
  // ItemSeedOffset(Murmur3Fmix64(base_seed ^ flow)), 0).hi). A pure
  // function of the config; the flow need not be tracked.
  int GateRank(uint64_t flow, uint64_t element) const;

  // Estimated spread of `flow`; 0 for never-seen (or evicted-and-lost)
  // flows. Replays SelfMorphingBitmap::Estimate()'s exact operations.
  // With the cold tier on, frozen flows answer from their compressed
  // record header — no decode, no revival.
  double Query(uint64_t flow) const;

  // Currently-tracked (live) flows; evicted flows are excluded.
  size_t NumFlows() const { return live_main_ + live_nursery_; }

  // Flows whose current estimate is >= threshold, in row (creation)
  // order.
  std::vector<uint64_t> FlowsOver(double threshold) const;

  // Calls fn(flow, estimate) for every live flow, in row order.
  void ForEachFlow(
      const std::function<void(uint64_t flow, double estimate)>& fn) const;

  // True heap + object footprint: flow table buckets, SoA metadata
  // arrays, and both slabs' mapped bytes.
  size_t ResidentBytes() const;

  // Bytes attributable to *live* flows — what the memory budget governs.
  // Per flow: its storage-tier slot plus kRowOverheadBytes of row + table
  // bookkeeping. Honest under eviction: a freed row leaves immediately,
  // even though its slab chunk stays mapped for reuse.
  size_t LiveBytes() const {
    return live_main_ * (words_per_slot_ * 8 + kRowOverheadBytes) +
           live_nursery_ * (nursery_words_ * 8 + kRowOverheadBytes);
  }

  // Logical sketch bits (the paper's m + 32 per flow) — what the legacy
  // TotalMemoryBits used to report.
  size_t SketchBits() const {
    return NumFlows() * (config_.num_bits + 32);
  }

  const Config& config() const { return config_; }
  size_t max_round() const { return max_round_; }

  // Lifetime/occupancy counters for telemetry, health probes and the
  // accounting regression tests (recorded == live + evicted always).
  struct ArenaStats {
    size_t live_flows = 0;      // rows currently tracked
    size_t nursery_flows = 0;   // live rows still in the nursery tier
    size_t main_flows = 0;      // live rows in the main slab
    size_t recorded_flows = 0;  // flows ever created
    size_t evicted_flows = 0;   // flows reclaimed by the budget
    size_t promoted_flows = 0;  // nursery -> main graduations
    size_t live_bytes = 0;      // LiveBytes()
    size_t budget_bytes = 0;    // configured ceiling (0 = unlimited)
    size_t main_slots_high_water = 0;
    size_t main_slots_free = 0;
    size_t nursery_slots_high_water = 0;
    size_t nursery_slots_free = 0;
    bool nursery_enabled = false;
    // Frozen cold tier (tuning.cold_tier).
    size_t cold_flows = 0;          // flows currently frozen
    size_t cold_encoded_bytes = 0;  // SMBZ1 bytes holding them
    size_t cold_raw_bytes = 0;      // what they would cost uncompressed
    size_t thawed_flows = 0;        // lifetime freeze -> live revivals
    uint64_t cold_compactions = 0;
    SlabAllocStats main_alloc;
    SlabAllocStats nursery_alloc;
  };
  ArenaStats Stats() const;

  // Merging ----------------------------------------------------------------
  // Two engines can merge when they share the full recording geometry:
  // same per-flow bitmap size, morph threshold and base seed (per-flow
  // seeds are derived from the base seed, so equal base seeds make every
  // shared flow's sketches merge-compatible). Tuning is deliberately
  // excluded — residency and eviction policy never change recorded bits.
  bool CanMergeWith(const ArenaSmbEngine& other) const {
    return config_.num_bits == other.config_.num_bits &&
           config_.threshold == other.config_.threshold &&
           config_.base_seed == other.config_.base_seed;
  }
  // Morph-aware approximate union merge (DESIGN.md §13): flows unknown
  // here are adopted verbatim; flows present in both engines are merged
  // with the replay merge, using the same per-flow salt derivation as
  // SelfMorphingBitmap::MergeFrom on the flows' standalone snapshots —
  // so an arena merge is bit-identical to snapshotting both sides and
  // merging flow by flow. Requires CanMergeWith(other).
  void MergeFrom(const ArenaSmbEngine& other);

  // Merged point query: the estimate a fresh engine would give for
  // `flow` after MergeFrom over `engines` in the given order, computed
  // for that one flow only (the order matters — the replay merge is not
  // bitwise commutative). No holder answers 0.0; a single holder answers
  // its own Query(flow) without materializing anything (a frozen flow
  // from its cold-tier header); two or more materialize each holder's
  // words and fold them in order through the same per-flow replay
  // MergeFrom uses, so the answer is bit-identical to building the merged
  // engine and querying it. Budget caveat: a merged engine whose config
  // has a memory budget may evict flows inside MergeFrom; this answers
  // as if nothing was evicted. Requires every engine to CanMergeWith the
  // others.
  static double QueryMerged(std::span<const ArenaSmbEngine* const> engines,
                            uint64_t flow);

  // Replication (DESIGN.md §16) --------------------------------------------
  // FLW1 snapshot restricted to `flows` (identical layout to Serialize();
  // listed flows not currently live are skipped). This is the replication
  // delta payload: a child serializes its dirty flows, and the parent
  // validates the image with the full Deserialize() rules before applying.
  std::vector<uint8_t> SerializeFlows(std::span<const uint64_t> flows) const;

  // Replacement-semantics upsert of one flow's complete state: the row is
  // created (or found) and its bitmap words + packed (round, ones) meta
  // are overwritten. The replication apply primitive — re-applying the
  // same state is a no-op, so at-least-once delivery cannot inflate the
  // replica. The triple must satisfy the same reachability rules
  // Deserialize() enforces (round bound, morph gate, popcount identity,
  // tail bits); returns false with the row untouched otherwise.
  bool UpsertFlowState(uint64_t flow, uint32_t round, uint32_t ones,
                       std::span<const uint64_t> words);

  // Calls fn(flow, round, ones, words) for every live flow in row order
  // (nursery rows materialized). The words span is valid only for the
  // duration of the callback.
  void ForEachFlowState(
      const std::function<void(uint64_t flow, uint32_t round, uint32_t ones,
                               std::span<const uint64_t> words)>& fn) const;

  // Equivalence-test introspection: the flow's live (r, v, bitmap words).
  // For nursery-resident flows the words are materialized into an
  // internal scratch buffer; the span stays valid until the next Inspect
  // or mutation.
  struct FlowState {
    size_t round = 0;
    size_t ones_in_round = 0;
    std::span<const uint64_t> words;
  };
  std::optional<FlowState> Inspect(uint64_t flow) const;

  // Serialization ---------------------------------------------------------
  // Compact binary snapshot of the whole engine (config + every live
  // flow's key, metadata and materialized bitmap words); the payload fed
  // to CheckpointStore. Residency tier and eviction history are not
  // recorded — the snapshot is the same whether or not flows sat in the
  // nursery. Frozen cold-tier flows are materialized and appended after
  // the live rows (ascending key), so a snapshot loses nothing the
  // engine still holds.
  std::vector<uint8_t> Serialize() const;
  // Rebuilds an engine from Serialize() output; nullopt on malformed,
  // truncated or internally inconsistent input. Restored round-0 flows
  // whose fill fits the nursery return to it; `tuning` configures the
  // restored engine (snapshots carry no tuning).
  static std::optional<ArenaSmbEngine> Deserialize(
      const std::vector<uint8_t>& bytes, const ArenaTuning& tuning = {});

 private:
  // slab_ref_ encoding: top bit = nursery tier, low 31 bits = slot index
  // within the tier; all-ones = row reclaimed (on the row free list).
  static constexpr uint32_t kNurseryFlag = 0x80000000u;
  static constexpr uint32_t kDeadRef = 0xFFFFFFFFu;
  // Modeled bookkeeping bytes a live flow costs outside its slab slot:
  // SoA row (key 8 + seed 8 + meta 4 + slab_ref 4 + ref byte 1) plus its
  // share of flow-table buckets at typical load (~24).
  static constexpr size_t kRowOverheadBytes = 48;

  // The flow's per-flow hash seed, pre-folded for the keyed hash path:
  // ItemSeedOffset(Murmur3Fmix64(base_seed ^ flow)), exactly the legacy
  // PerFlowMonitor derivation.
  uint64_t FlowSeedOffset(uint64_t flow) const;

  // Finds or creates the flow's row; newly created flows get their seed
  // offset, zeroed metadata and a storage slot (nursery when enabled).
  // Refreshes the row's CLOCK reference byte. *created reports whether a
  // new row was made.
  uint32_t FindOrCreateRow(uint64_t flow, uint64_t bucket_hash,
                           bool* created = nullptr);

  // The scalar probe/set/morph step shared by Record and the batch apply
  // loop; `rank` has already passed (or will be re-checked against) the
  // gate. Dispatches on the row's storage tier.
  void ApplyToRow(uint32_t row, uint64_t lo, uint32_t rank);
  // Round-0 position-list insert; promotes on fill or imminent morph.
  void NurseryApply(uint32_t row, uint32_t ref, uint32_t pos, uint32_t meta);
  // Graduates a nursery row: materializes its positions into a fresh
  // main-slab slot and frees the nursery slot. No-op for main rows.
  void PromoteRow(uint32_t row);

  // Evicts cold rows until LiveBytes() fits the budget (or one row is
  // left). Must only run when no batch block holds cached row ids.
  void MaybeEvict();
  bool EvictOneRow();
  void EvictRow(uint32_t row);

  bool EvictionEnabled() const {
    return config_.tuning.memory_budget_bytes > 0 &&
           config_.tuning.eviction != ArenaEviction::kOff;
  }

  uint32_t* NurseryPositions(uint32_t ref) {
    return reinterpret_cast<uint32_t*>(
        nursery_.SlotWords(ref & ~kNurseryFlag));
  }
  const uint32_t* NurseryPositions(uint32_t ref) const {
    return reinterpret_cast<const uint32_t*>(
        nursery_.SlotWords(ref & ~kNurseryFlag));
  }

  // The row's bitmap words: main-slab rows in place, nursery rows
  // materialized into *scratch (valid until its next use or a mutation).
  std::span<const uint64_t> MaterializedWords(
      uint32_t row, std::vector<uint64_t>* scratch) const;
  // The packed (r, v) of a flow held live or frozen; false when absent.
  bool FindMeta(uint64_t flow, uint32_t* meta) const;
  // A held flow's bitmap words: main-slab rows in place, nursery and
  // frozen flows materialized into *scratch.
  std::span<const uint64_t> HeldWords(uint64_t flow,
                                      std::vector<uint64_t>* scratch) const;
  // The per-flow replay merge shared by MergeFrom and QueryMerged: folds
  // the source state into (dst_words, *dst_meta) in place, orienting so
  // the coarser state is the base and salting exactly as the flow's
  // standalone snapshot would. `replay` is scratch of words_per_slot_.
  void MergeFlowState(uint64_t flow, std::span<uint64_t> dst_words,
                      uint32_t* dst_meta, std::span<const uint64_t> src_words,
                      uint32_t src_meta, std::span<uint64_t> replay) const;

  // The estimate as a pure function of the packed morph metadata — the
  // whole reason frozen flows can be queried without decoding their
  // bitmap payload.
  double EstimateMeta(uint32_t round, uint32_t ones) const;
  double EstimateSlot(uint32_t row) const;

  // Revives a frozen flow into `row`'s (main-slab) storage before any
  // recording touches it.
  void ThawRow(uint32_t row, uint64_t flow);

  size_t num_rows() const { return flow_keys_.size(); }

  Config config_;
  size_t max_round_;
  size_t words_per_slot_;
  size_t nursery_capacity_;  // effective capacity (0 when disabled)
  size_t nursery_words_;     // nursery slab stride in words
  std::vector<double> s_table_;
  FlowTable table_;
  SlabArena arena_;    // main tier: full-stride bitmaps
  SlabArena nursery_;  // nursery tier: round-0 position lists
  // SoA hot metadata, indexed by row.
  std::vector<uint32_t> meta_;          // (round << 26) | v
  std::vector<uint64_t> seed_offsets_;  // ItemSeedOffset(per-flow seed)
  std::vector<uint64_t> flow_keys_;     // row -> flow key (reverse map)
  std::vector<uint32_t> slab_ref_;      // row -> storage tier + slot
  std::vector<uint8_t> ref_bits_;       // row -> CLOCK reference byte
  std::vector<uint32_t> row_free_;      // reclaimed row ids
  size_t live_main_ = 0;
  size_t live_nursery_ = 0;
  size_t recorded_flows_ = 0;
  size_t evicted_flows_ = 0;
  size_t promoted_flows_ = 0;
  size_t thawed_flows_ = 0;
  size_t clock_hand_ = 0;
  // Present only when tuning.cold_tier; unique_ptr keeps the engine
  // movable.
  std::unique_ptr<ColdSketchTier> cold_;
  mutable std::vector<uint64_t> inspect_scratch_;
};

}  // namespace smb

#endif  // SMBCARD_FLOW_ARENA_SMB_ENGINE_H_
