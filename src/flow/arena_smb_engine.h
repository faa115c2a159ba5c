// ArenaSmbEngine — cache-conscious per-flow SMB storage (DESIGN.md §12,
// scaled to 10M+ flows by §15).
//
// Flat arrays in place of the legacy map of heap estimators (a node
// walk, a pointer chase and a virtual call per packet):
//
//   FlowTable      flow key -> dense row   (open addressing, incremental
//                                           rehash + tombstone erase,
//                                           flow/flow_table.h)
//   meta_[row]     packed (r, v)           (6-bit round << 26 | 26-bit v —
//                                           the paper's 32 auxiliary bits;
//                                           one cache line covers 16
//                                           flows' gate state)
//   slab_ref_[row] residency class + slot (class tag in the top 5 bits)
//   SlabArena x C  slot -> flow storage    (one fixed-stride arena per
//                                           residency class, chunked mmap)
//
// The gate-before-slab invariant: the geometric gate reads only meta_, so
// a gate-rejected packet — the common case past round 0 — never touches
// any slab. Per-flow hash seeds are derived exactly as the legacy
// engine derives them (Murmur3Fmix64(base_seed ^ flow)) and every
// recording/query operation replays SelfMorphingBitmap's operations in
// the same order, so estimates are bit-identical to the legacy engine
// given the same seeds (pinned by the equivalence suite).
//
// Residency classes (DESIGN.md §15): at round 0 a flow's fill v is its
// distinct-position count, so the list of its set POSITIONS encodes the
// m-bit bitmap losslessly — and most flows of a heavy-tailed trace never
// leave round 0. A round-0 flow is a position list (uint16 when m <=
// 65536, else uint32) in power-of-two classes of 16, 32, 64, ...
// positions, up to the largest class smaller than a bitmap slot (512 at
// m = 10000) or ArenaTuning::nursery_capacity. A full list is copied
// into the next class. The graduation invariant: a row is on a list
// exactly when it is round 0 with a fill below the last class's capacity
// and below T, on the smallest class holding its fill; it moves to a
// bitmap slot the moment the fill reaches that capacity or would morph.
// Short lists (slots of at most 128 bytes) keep insertion order and are
// probed by a whole-list compare; longer lists are strictly ascending —
// a list entering the first long class is sorted once — and probed by
// a binary search, and an insert shifts their tail. Readers of a live
// row's bits go through MaterializedWords(); writers of a whole state
// (restore, upsert, merge) through StoreState(), which picks the class
// from (r, v) alone. From words it writes a list ascending; a round-0
// state given by its positions is copied as given, ascending wherever
// the class is a long one.
//
// The cold tier (DESIGN.md §17) holds SMBZ1 slot records, not words. A
// freeze writes the row's record with AppendSlotRecord, the writer
// SerializeSmbz1 uses (a list row from its positions); a thaw, and the
// adoption of a frozen source flow in MergeFrom, goes through
// StoreRecord, which reads a list-class sparse record's positions
// straight into the list slot. Other readers of frozen state decode
// the record (DecodeRecord); SerializeSmbz1 copies it verbatim.
//
// Snapshots leave the engine as SMBZ1 (DESIGN.md §12, §17):
// SerializeSmbz1 writes each list row's sparse record straight from its
// positions (a short list sorted into a copy first), bitmap rows
// through codec::EncodeSlot, and copies frozen records as they are.
// DeserializeSmbz1 and the all-or-nothing ApplySmbz1 read a sparse
// record over the set bits as its positions
// (codec::ReadSparsePositions), check its count against
// (r, v) and write the positions straight into the row's slot: copied
// into a list, set into a bitmap. Raw, rle and zero-polarity records
// are decoded into scratch words, checked with SmbStateReachableCounts
// and stored from them. No FLW1 image is built on that path;
// Serialize/Deserialize keep the FLW1 image.
//
// Memory budget + eviction (DESIGN.md §15): crossing the budget evicts
// cold flows — CLOCK second-chance over a per-row reference byte
// (refreshed by every lookup, gate-rejected traffic included), or 2Q,
// which drains list rows first. An evicted row's table entry is
// tombstoned and its slot free-listed; its state is dropped, or frozen
// into the cold tier (ArenaTuning::cold_tier). The budget governs
// LiveBytes() — per live row its class's stride plus kRowOverheadBytes —
// because slab chunks are never unmapped.
//
// RecordBatch (DESIGN.md §12) hashes a block of flow keys and then its
// elements with per-flow seeds in two SIMD passes, looks rows up with
// bucket prefetch, and prefetches each survivor's storage (the bitmap
// word, or a list's first lines) before the in-order apply loop.
// Eviction runs only at block boundaries, so the row ids a block caches
// stay valid; the accounting identities (recorded == live + evicted,
// per-class slots == live rows) are checked there too and counted in
// flow_invariant_violations_total.

#ifndef SMBCARD_FLOW_ARENA_SMB_ENGINE_H_
#define SMBCARD_FLOW_ARENA_SMB_ENGINE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "codec/flw1_layout.h"
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
  k2Q = 2,     // CLOCK preferring list-resident rows while any exist
};

// Knobs that do NOT affect recorded state (estimates are bit-identical
// across any tuning): placement, graduation and reclamation policy only.
struct ArenaTuning {
  // Live-bytes ceiling; 0 = unlimited. Enforced only when eviction is
  // not kOff.
  size_t memory_budget_bytes = 0;
  ArenaEviction eviction = ArenaEviction::kClock;
  // Position-list cap per flow, in positions: 0 stores every flow as a
  // bitmap from its first packet (fixed stride); the default leaves the
  // built-in bound, the largest list class smaller than a bitmap slot.
  size_t nursery_capacity = std::numeric_limits<size_t>::max();
  // Frozen cold tier (DESIGN.md §17): with this on, an evicted flow's
  // state is SMBZ1-frozen in-process instead of being lost.
  // A returning flow thaws its exact state back before the gate runs
  // (recorded bits match a never-evicted oracle), queries for frozen
  // flows answer from the compressed header, and snapshots include
  // them. Cold bytes live outside LiveBytes() (they are what the budget
  // reclaims INTO); track them via ArenaStats::cold_encoded_bytes.
  bool cold_tier = false;
  // Page placement for every class's slab (see SlabAllocOptions).
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
  size_t NumFlows() const { return live_flows_; }

  // Flows whose current estimate is >= threshold: live rows in row
  // order, then frozen flows in cold-index order (ForEachFlowMeta).
  std::vector<uint64_t> FlowsOver(double threshold) const;

  // Calls fn(flow, estimate) for every held flow: live rows in row
  // order, then frozen flows in cold-index order (ForEachFlowMeta).
  void ForEachFlow(
      const std::function<void(uint64_t flow, double estimate)>& fn) const;

  // The estimate walk under every whole-engine reader: calls
  // fn(flow, round, ones, estimate) for every held flow — live rows in
  // row order, then frozen flows in cold-index order. That order is the
  // same for the same history, but it is not key order. The estimate is
  // Query(flow)'s, bit for bit: a per-walk memo of EstimateMeta by packed
  // meta pays log1p once per distinct (r, v) state rather than once per
  // flow. fn must not mutate the engine.
  template <typename Fn>
  void ForEachFlowMeta(Fn&& fn) const;

  // True heap + object footprint: flow table buckets, SoA metadata
  // arrays, and every class slab's mapped bytes.
  size_t ResidentBytes() const;

  // Bytes attributable to *live* flows — what the memory budget governs:
  // per flow its class's slot stride plus kRowOverheadBytes of row and
  // table bookkeeping. A freed row leaves it at once, though its slab
  // chunk stays mapped for reuse.
  size_t LiveBytes() const { return live_bytes_; }

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
    size_t nursery_flows = 0;   // live rows on a position list
    size_t main_flows = 0;      // live rows on a bitmap slot
    size_t recorded_flows = 0;  // flows ever created
    size_t evicted_flows = 0;   // flows reclaimed by the budget
    size_t promoted_flows = 0;  // list -> bitmap graduations by recording
    size_t live_bytes = 0;      // LiveBytes()
    size_t budget_bytes = 0;    // configured ceiling (0 = unlimited)
    bool nursery_enabled = false;  // any list class exists
    // Per residency class: the list classes by capacity, then the bitmap.
    struct ResidencyClass {
      size_t positions = 0;   // list capacity; 0 for the bitmap class
      size_t slot_bytes = 0;  // slab stride
      size_t live_flows = 0;
    };
    std::vector<ResidencyClass> classes;
    // Frozen cold tier (tuning.cold_tier).
    size_t cold_flows = 0;          // flows currently frozen
    size_t cold_encoded_bytes = 0;  // SMBZ1 bytes holding them
    size_t cold_raw_bytes = 0;      // what they would cost uncompressed
    size_t thawed_flows = 0;        // lifetime freeze -> live revivals
    uint64_t cold_compactions = 0;
    SlabAllocStats alloc;  // summed over every class slab
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
  // Morph-aware approximate union merge (DESIGN.md §13): a live source
  // flow unknown here is adopted verbatim straight from its slot — a
  // list row's positions (a short, unsorted list lands in a short class
  // under any tuning) or a bitmap row's words — whatever the two
  // engines' tunings. An unknown frozen source flow is adopted from its
  // record (a list-class sparse record as its positions). Flows present
  // in both engines are materialized into words and merged with the
  // replay merge, using the same per-flow salt derivation as
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
  // listed flows not currently live are skipped, a repeated flow keeps
  // its first position). A replication delta is this state as SMBZ1,
  // written by SerializeSmbz1(flows) without the image.
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

  // Calls fn(flow, round, ones, words) for every held flow: live rows in
  // row order (list rows materialized), then frozen flows in ascending
  // key order (each record decoded). The words span is valid only for
  // the duration of the callback. Readers of (r, v) or estimates alone
  // walk ForEachFlowMeta instead.
  void ForEachFlowState(
      const std::function<void(uint64_t flow, uint32_t round, uint32_t ones,
                               std::span<const uint64_t> words)>& fn) const;

  // Equivalence-test introspection: the flow's live (r, v, bitmap words).
  // For list-resident flows the words are materialized into an
  // internal scratch buffer; the span stays valid until the next Inspect
  // or mutation.
  struct FlowState {
    size_t round = 0;
    size_t ones_in_round = 0;
    std::span<const uint64_t> words;
  };
  std::optional<FlowState> Inspect(uint64_t flow) const;
  // Residency-suite introspection: every list row holds distinct
  // positions below num_bits, strictly ascending on the long classes.
  bool ListsWellFormed() const;

  // Serialization ---------------------------------------------------------
  // Compact binary snapshot of the whole engine (config + every live
  // flow's key, metadata and materialized bitmap words); the payload fed
  // to CheckpointStore. Residency tier and eviction history are not
  // recorded — the snapshot is the same whatever class each flow sat in.
  // Frozen cold-tier flows are materialized and appended after
  // the live rows (ascending key), so a snapshot loses nothing the
  // engine still holds.
  std::vector<uint8_t> Serialize() const;
  // Rebuilds an engine from Serialize() output; nullopt on malformed,
  // truncated or internally inconsistent input. Each restored flow lands
  // in the residency class its (r, v) calls for; `tuning` configures the
  // restored engine (snapshots carry no tuning).
  static std::optional<ArenaSmbEngine> Deserialize(
      const std::vector<uint8_t>& bytes, const ArenaTuning& tuning = {});

  // SMBZ1 (codec/smbz1.h) without an FLW1 image ---------------------------
  // What leaves a process: CompressFlw1Image(Serialize()) and
  // CompressFlw1Image(SerializeFlows(flows)), byte for byte, written
  // straight from the rows. A list row's sparse record comes from its
  // ascending positions (codec::EncodeSparseSlot); bitmap rows, and any
  // list the sparse mode would not win, go through codec::EncodeSlot; a
  // frozen flow's record is copied as the cold tier holds it.
  std::vector<uint8_t> SerializeSmbz1() const;
  std::vector<uint8_t> SerializeSmbz1(std::span<const uint64_t> flows) const;
  // Deserialize(*DecompressToFlw1Image(bytes), tuning) without the
  // image, a sparse record stored from its positions: accepts and
  // rejects exactly the same inputs and restores the same engine.
  static std::optional<ArenaSmbEngine> DeserializeSmbz1(
      std::span<const uint8_t> bytes, const ArenaTuning& tuning = {});
  // The replication apply: upserts every flow of an SMBZ1 snapshot (a
  // delta) with UpsertFlowState's replacement semantics, in payload
  // order — or nothing. The whole payload is validated first: framing
  // and CRC, geometry equal to this engine's (CanMergeWith), each
  // record's decode and reachability, no duplicate key, no bytes after
  // the last record. False leaves the engine untouched. Validation
  // stages each sparse record's positions, which the store pass writes
  // into the rows; it decodes only raw, rle and zero-polarity records
  // again.
  bool ApplySmbz1(std::span<const uint8_t> bytes);

 private:
  // slab_ref_ encoding: the top 5 bits are the residency class (list
  // classes 0..bitmap_class_-1, then the bitmap class), the low 27 bits
  // the slot within that class's slab; all-ones = row reclaimed (on the
  // row free list).
  static constexpr uint32_t kClassShift = 27;
  static constexpr uint32_t kSlotMask = (uint32_t{1} << kClassShift) - 1;
  static constexpr uint32_t kDeadRef = 0xFFFFFFFFu;
  // Doubling from 16 positions below a slot of <= 2^20 words.
  static constexpr size_t kMaxListClasses = 17;
  // Modeled bookkeeping bytes a live flow costs outside its slab slot:
  // SoA row (key 8 + seed 8 + meta 4 + slab_ref 4 + ref byte 1) plus its
  // share of flow-table buckets at typical load (~24).
  static constexpr size_t kRowOverheadBytes = 48;

  static uint32_t RefClass(uint32_t ref) { return ref >> kClassShift; }
  bool IsList(uint32_t ref) const { return RefClass(ref) < bitmap_class_; }
  uint64_t* SlotWords(uint32_t ref) {
    return slabs_[RefClass(ref)].SlotWords(ref & kSlotMask);
  }
  const uint64_t* SlotWords(uint32_t ref) const {
    return slabs_[RefClass(ref)].SlotWords(ref & kSlotMask);
  }
  // SlotWords for a bitmap row (the last slab), without class arithmetic.
  uint64_t* BitmapWords(uint32_t ref) {
    return slabs_.back().SlotWords(ref & kSlotMask);
  }
  // What one live row of class `cls` charges LiveBytes().
  size_t ClassBytes(uint32_t cls) const {
    return slabs_[cls].words_per_slot() * 8 + kRowOverheadBytes;
  }
  // Takes a zeroed slot in class `cls` / returns one, keeping LiveBytes()
  // in step.
  uint32_t AllocateIn(uint32_t cls);
  void FreeRef(uint32_t ref);
  // The class a whole state belongs in: the smallest list class whose
  // capacity exceeds the fill for round-0 states below graduate_at_,
  // else the bitmap class. A pure function of the packed meta.
  uint32_t ClassFor(uint32_t meta) const;

  // The flow's per-flow hash seed, pre-folded for the keyed hash path:
  // ItemSeedOffset(Murmur3Fmix64(base_seed ^ flow)), exactly the legacy
  // PerFlowMonitor derivation.
  uint64_t FlowSeedOffset(uint64_t flow) const;

  // Finds or creates the flow's row — a new row gets its seed offset,
  // zeroed meta and the empty state's slot, or thaws its frozen state —
  // refreshes its CLOCK byte, and reports creation in *created.
  uint32_t FindOrCreateRow(uint64_t flow, uint64_t bucket_hash,
                           bool* created = nullptr);

  // The scalar probe/set/morph step shared by Record and the batch apply
  // loop; `rank` has already passed (or will be re-checked against) the
  // gate.
  void ApplyToRow(uint32_t row, uint64_t lo, uint32_t rank);
  // Moves a list row to class `cls`: a larger list (a copy), or the
  // bitmap (a graduation, its positions materialized). Returns the ref.
  uint32_t MoveList(uint32_t row, uint32_t cls);
  // The row's slot, moved to class `cls` first (a fresh slot) when it
  // sits elsewhere.
  uint32_t SlotIn(uint32_t row, uint32_t cls);
  // Replaces the row's whole state, moving it to ClassFor(meta).
  void StoreState(uint32_t row, uint32_t meta,
                  std::span<const uint64_t> words);
  // The same for a state given by its set positions: a list-class
  // state's (round 0, meta their count) are copied into the list slot,
  // and must be ascending if it is a long class; a bitmap-class state's
  // are set into the zeroed slot. No scratch words are built.
  template <typename Pos>
  void StoreState(uint32_t row, uint32_t meta,
                  std::span<const Pos> positions);

  // Block-boundary upkeep: evicts cold rows until LiveBytes() fits the
  // budget (or one row is left); re-derives the live row count and
  // LiveBytes() from the class slabs and checks recorded == live +
  // evicted, counting each failure in flow_invariant_violations_total
  // (and aborting a debug build); republishes the residency gauges if
  // they moved. Must only run when no batch block holds cached row ids.
  void SettleBoundary();
  // CLOCK (or 2Q) picks one cold row and evicts it; false if none.
  bool EvictOneRow();
  void PublishResidency() const;

  // The live rows of `flows`, first occurrence of each, unknown flows
  // skipped: the records SerializeFlows and SerializeSmbz1(flows) write.
  std::vector<uint32_t> ListedRows(std::span<const uint64_t> flows) const;
  // Appends the row's SMBZ1 slot record: a list row's sparse record
  // straight from its positions, and through codec::EncodeSlot over its
  // words when the sparse encoder declines and for a bitmap row.
  // `scratch` holds words_per_slot_ words. The one record writer for
  // SMBZ1 snapshots and cold-tier freezes.
  void AppendSlotRecord(uint32_t row, std::vector<uint64_t>* scratch,
                        std::vector<uint8_t>* out) const;
  // Replaces the row's whole state with one slot record's, moving it to
  // ClassFor((r, v)) — a thaw and a frozen flow's adoption. A list-class
  // sparse record over the set bits is read straight into the list
  // slot; any other record is decoded into words, a bitmap-class one
  // straight into its slot. The record must decode and be reachable
  // (SMB_CHECK): the engine wrote it.
  void StoreRecord(uint32_t row, std::span<const uint8_t> record);
  // Decodes one slot record into `words` (words_per_slot_ of them),
  // checking that it decodes exactly and is reachable (SMB_CHECK).
  void DecodeRecord(std::span<const uint8_t> record,
                    std::span<uint64_t> words) const;

  // The row's bitmap words: bitmap rows in place, list rows
  // materialized into *scratch (valid until its next use or a mutation).
  std::span<const uint64_t> MaterializedWords(
      uint32_t row, std::vector<uint64_t>* scratch) const;
  // The packed (r, v) of a flow held live or frozen; false when absent.
  bool FindMeta(uint64_t flow, uint32_t* meta) const;
  // A held flow's bitmap words: bitmap rows in place, list and frozen
  // flows materialized into *scratch.
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

  // One walk's direct-mapped cache of EstimateMeta by packed meta, on the
  // walk's stack. Every slot starts out holding meta 0 and its estimate,
  // a true pair wherever it sits since a lookup compares the whole meta,
  // so a hit returns the very double EstimateMeta produced for it.
  class EstimateMemo {
   public:
    explicit EstimateMemo(const ArenaSmbEngine& engine) : engine_(engine) {
      metas_.fill(0);
      estimates_.fill(engine.EstimateMeta(0, 0));
    }
    double operator()(uint32_t meta) {
      // Consecutive fills of one round land in consecutive slots.
      const size_t slot =
          (meta + (meta >> flw1::kRoundShift) * kRoundStride) & (kSlots - 1);
      if (metas_[slot] != meta) {
        metas_[slot] = meta;
        estimates_[slot] = engine_.EstimateMeta(meta >> flw1::kRoundShift,
                                                meta & flw1::kFillMask);
      }
      return estimates_[slot];
    }

   private:
    static constexpr size_t kSlots = 1024;
    static constexpr uint32_t kRoundStride = 433;
    const ArenaSmbEngine& engine_;
    std::array<uint32_t, kSlots> metas_;
    std::array<double, kSlots> estimates_;
  };

  Config config_;
  size_t max_round_;
  size_t words_per_slot_;
  size_t position_bytes_;   // 2 when m <= 65536, else 4
  uint32_t bitmap_class_;   // == number of list classes
  // The first long list class (kept ascending); the classes below it
  // hold short lists in insertion order. bitmap_class_ when none.
  uint32_t long_class_;
  // A round-0 list row graduates when its fill reaches this: the last
  // list class's capacity, or T when that is lower (0: lists off).
  uint32_t graduate_at_;
  // Capacity in positions of each list class (first bitmap_class_ used).
  std::array<uint32_t, kMaxListClasses> class_positions_{};
  std::vector<double> s_table_;
  FlowTable table_;
  std::vector<SlabArena> slabs_;  // one per residency class, bitmap last
  // SoA hot metadata, indexed by row.
  std::vector<uint32_t> meta_;          // (round << 26) | v
  std::vector<uint64_t> seed_offsets_;  // ItemSeedOffset(per-flow seed)
  std::vector<uint64_t> flow_keys_;     // row -> flow key (reverse map)
  std::vector<uint32_t> slab_ref_;      // row -> residency class + slot
  std::vector<uint8_t> ref_bits_;       // row -> CLOCK reference byte
  std::vector<uint32_t> row_free_;      // reclaimed row ids
  size_t live_flows_ = 0;
  size_t live_bytes_ = 0;
  size_t recorded_flows_ = 0;
  size_t evicted_flows_ = 0;
  size_t promoted_flows_ = 0;
  size_t thawed_flows_ = 0;
  size_t clock_hand_ = 0;
  bool residency_changed_ = false;  // gauges are stale
  // Present only when tuning.cold_tier; unique_ptr keeps the engine
  // movable. `record` holds a freeze's slot record until the tier
  // copies it.
  struct Cold {
    explicit Cold(size_t num_bits) : tier(num_bits) {}
    ColdSketchTier tier;
    std::vector<uint8_t> record;
  };
  std::unique_ptr<Cold> cold_;
  mutable std::vector<uint64_t> inspect_scratch_;
};

template <typename Fn>
void ArenaSmbEngine::ForEachFlowMeta(Fn&& fn) const {
  EstimateMemo estimate(*this);
  for (uint32_t row = 0; row < flow_keys_.size(); ++row) {
    if (slab_ref_[row] == kDeadRef) continue;
    const uint32_t meta = meta_[row];
    fn(flow_keys_[row], meta >> flw1::kRoundShift, meta & flw1::kFillMask,
       estimate(meta));
  }
  if (cold_ == nullptr) return;
  cold_->tier.ForEach(
      [&](uint64_t flow, const ColdSketchTier::Record& record) {
        fn(flow, record.round, record.ones,
           estimate((record.round << flw1::kRoundShift) | record.ones));
      });
}

}  // namespace smb

#endif  // SMBCARD_FLOW_ARENA_SMB_ENGINE_H_
