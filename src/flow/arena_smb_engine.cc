#include "flow/arena_smb_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "codec/flw1_layout.h"
#include "common/bit_util.h"
#include "common/le_bytes.h"
#include "common/macros.h"
#include "core/smb_merge.h"
#include "core/smb_params.h"
#include "hash/batch_hash.h"
#include "hash/geometric.h"
#include "hash/murmur3.h"
#include "telemetry/metrics_registry.h"
#include "trace/span_tracer.h"

namespace smb {

// Packed (r, v) metadata, as FLW1 stores it.
using flw1::kFillMask;
using flw1::kRoundShift;

namespace {

// Process-wide per-flow engine instruments, registered once; hot paths
// touch only the stable pointers (same pattern as the SMB core counters).
struct FlowInstruments {
  telemetry::Counter* flows_created;
  telemetry::Counter* flows_evicted;
  telemetry::Counter* flows_promoted;
  telemetry::Gauge* live_flows;
  telemetry::Gauge* nursery_flows;
  telemetry::Gauge* slab_bytes;
  telemetry::Gauge* live_bytes;
  telemetry::Gauge* hugepage_bytes;
  telemetry::Gauge* cold_flows;
  telemetry::Gauge* cold_bytes;
  telemetry::Gauge* cold_resident_bytes;
  telemetry::Gauge* cold_ratio_milli;
  telemetry::LatencyHistogram* probe_len;
};

FlowInstruments& GlobalFlowInstruments() {
  static FlowInstruments instruments = [] {
    auto& registry = telemetry::MetricsRegistry::Global();
    return FlowInstruments{
        registry.GetCounter("flow_flows_created_total"),
        registry.GetCounter("flow_flows_evicted_total"),
        registry.GetCounter("flow_flows_promoted_total"),
        registry.GetGauge("flow_live_flows"),
        registry.GetGauge("flow_nursery_flows"),
        registry.GetGauge("flow_slab_bytes"),
        registry.GetGauge("flow_live_bytes"),
        registry.GetGauge("flow_hugepage_bytes"),
        registry.GetGauge("flow_cold_flows"),
        registry.GetGauge("flow_cold_bytes"),
        registry.GetGauge("flow_cold_resident_bytes"),
        registry.GetGauge("flow_cold_compression_ratio_milli"),
        registry.GetHistogram("flow_table_probe_length"),
    };
  }();
  return instruments;
}

}  // namespace

void ArenaSmbEngine::PublishResidency() const {
  FlowInstruments& ins = GlobalFlowInstruments();
  ins.live_flows->Set(static_cast<int64_t>(NumFlows()));
  ins.nursery_flows->Set(static_cast<int64_t>(live_nursery_));
  ins.live_bytes->Set(static_cast<int64_t>(LiveBytes()));
  ins.slab_bytes->Set(static_cast<int64_t>(arena_.ResidentBytes() +
                                           nursery_.ResidentBytes()));
  const SlabAllocStats& ma = arena_.alloc_stats();
  const SlabAllocStats& na = nursery_.alloc_stats();
  ins.hugepage_bytes->Set(
      static_cast<int64_t>(ma.hugetlb_bytes + ma.thp_advised_bytes +
                           na.hugetlb_bytes + na.thp_advised_bytes));
  ins.cold_flows->Set(cold_ ? static_cast<int64_t>(cold_->NumFlows()) : 0);
  ins.cold_bytes->Set(cold_ ? static_cast<int64_t>(cold_->EncodedBytes())
                            : 0);
  ins.cold_resident_bytes->Set(
      cold_ ? static_cast<int64_t>(cold_->ResidentBytes()) : 0);
  ins.cold_ratio_milli->Set(
      cold_ && cold_->EncodedBytes() > 0
          ? static_cast<int64_t>(cold_->RawBytes() * 1000 /
                                 cold_->EncodedBytes())
          : 0);
}

namespace {

// Nursery slab stride: the position list as whole uint64 words.
size_t NurseryWordsFor(size_t capacity) {
  return capacity == 0 ? 1 : (capacity * sizeof(uint32_t) + 7) / 8;
}

// A nursery only helps when its slot is strictly smaller than a main
// slot; otherwise graduation would just be a copy with no memory win.
size_t EffectiveNurseryCapacity(size_t capacity, size_t words_per_slot) {
  if (capacity == 0) return 0;
  return NurseryWordsFor(capacity) < words_per_slot ? capacity : 0;
}

SlabAllocOptions AllocOptionsFor(const ArenaTuning& tuning) {
  SlabAllocOptions options;
  options.try_hugepages = tuning.try_hugepages;
  return options;
}

}  // namespace

bool ArenaSmbEngine::Supports(size_t num_bits, size_t threshold) {
  if (num_bits < 8 || threshold < 1 || threshold > num_bits) return false;
  // Packed (r, v) metadata: 6 bits of round, 26 bits of fill.
  if (num_bits >= (size_t{1} << kRoundShift)) return false;
  return SmbMaxRound(num_bits, threshold) <= flw1::kMaxRound;
}

std::optional<ArenaSmbEngine::Config> ArenaSmbEngine::ConfigForSpec(
    const EstimatorSpec& spec) {
  if (spec.kind != EstimatorKind::kSmb) return std::nullopt;
  Config config;
  config.num_bits = spec.memory_bits;
  config.threshold =
      OptimalThresholdValue(spec.memory_bits, spec.design_cardinality);
  config.base_seed = spec.hash_seed;
  if (!Supports(config.num_bits, config.threshold)) return std::nullopt;
  return config;
}

ArenaSmbEngine::ArenaSmbEngine(const Config& config)
    : config_(config),
      max_round_(SmbMaxRound(config.num_bits, config.threshold)),
      words_per_slot_((config.num_bits + 63) / 64),
      nursery_capacity_(EffectiveNurseryCapacity(
          config.tuning.nursery_capacity, words_per_slot_)),
      nursery_words_(NurseryWordsFor(nursery_capacity_)),
      s_table_(BuildSTable(config.num_bits, config.threshold)),
      arena_(words_per_slot_, AllocOptionsFor(config.tuning)),
      nursery_(nursery_words_, AllocOptionsFor(config.tuning)) {
  SMB_CHECK_MSG(Supports(config.num_bits, config.threshold),
                "(num_bits, threshold) outside the packed-metadata envelope");
  if (config_.tuning.cold_tier) {
    cold_ = std::make_unique<ColdSketchTier>(config_.num_bits);
  }
}

uint64_t ArenaSmbEngine::FlowSeedOffset(uint64_t flow) const {
  return ItemSeedOffset(Murmur3Fmix64(config_.base_seed ^ flow));
}

uint32_t ArenaSmbEngine::FindOrCreateRow(uint64_t flow, uint64_t bucket_hash,
                                         bool* created) {
  bool inserted = false;
  uint32_t probe_len = 0;
  const uint32_t candidate =
      row_free_.empty() ? static_cast<uint32_t>(flow_keys_.size())
                        : row_free_.back();
  const uint32_t row =
      table_.FindOrInsert(flow, bucket_hash, candidate, &inserted, &probe_len);
  GlobalFlowInstruments().probe_len->Record(probe_len);
  if (inserted) {
    const uint64_t offset = FlowSeedOffset(flow);
    if (!row_free_.empty()) {
      row_free_.pop_back();
      flow_keys_[row] = flow;
      seed_offsets_[row] = offset;
      meta_[row] = 0;
    } else {
      flow_keys_.push_back(flow);
      seed_offsets_.push_back(offset);
      meta_.push_back(0);
      slab_ref_.push_back(kDeadRef);
      ref_bits_.push_back(0);
    }
    if (nursery_capacity_ > 0) {
      const uint32_t nursery_slot = nursery_.Allocate();
      SMB_DCHECK(nursery_slot < kNurseryFlag);
      slab_ref_[row] = kNurseryFlag | nursery_slot;
      ++live_nursery_;
    } else {
      const uint32_t main_slot = arena_.Allocate();
      SMB_DCHECK(main_slot < kNurseryFlag);
      slab_ref_[row] = main_slot;
      ++live_main_;
    }
    ++recorded_flows_;
    GlobalFlowInstruments().flows_created->Add();
    PublishResidency();
    // Thaw-before-gate: a returning frozen flow resumes from its exact
    // evicted state, so the bits it records from here on are identical
    // to a never-evicted engine's.
    if (cold_ != nullptr && cold_->Contains(flow)) ThawRow(row, flow);
  }
  // CLOCK reference: any lookup — gate-rejected traffic included — marks
  // the flow recently-used.
  ref_bits_[row] = 1;
  if (created != nullptr) *created = inserted;
  return row;
}

void ArenaSmbEngine::ThawRow(uint32_t row, uint64_t flow) {
  // Thawed flows always land on the main slab: a frozen state can be at
  // any round, and even a round-0 state would only bounce back through
  // the nursery's promotion path on its next morph.
  const uint32_t ref = slab_ref_[row];
  if (ref & kNurseryFlag) {
    nursery_.Free(ref & ~kNurseryFlag);
    const uint32_t main_slot = arena_.Allocate();
    SMB_DCHECK(main_slot < kNurseryFlag);
    slab_ref_[row] = main_slot;
    --live_nursery_;
    ++live_main_;
  }
  uint64_t* words = arena_.SlotWords(slab_ref_[row]);
  uint32_t round = 0, ones = 0;
  const bool ok =
      cold_->Thaw(flow, &round, &ones, {words, words_per_slot_});
  SMB_DCHECK(ok);
  (void)ok;
  meta_[row] = (round << kRoundShift) | ones;
  ++thawed_flows_;
  PublishResidency();
}

void ArenaSmbEngine::PromoteRow(uint32_t row) {
  const uint32_t ref = slab_ref_[row];
  if ((ref & kNurseryFlag) == 0) return;  // already on the main slab
  SMB_DCHECK(ref != kDeadRef);
  // Nursery rows are always round 0, so the fill IS the position count.
  const uint32_t count = meta_[row] & kFillMask;
  const uint32_t main_slot = arena_.Allocate();
  SMB_DCHECK(main_slot < kNurseryFlag);
  uint64_t* words = arena_.SlotWords(main_slot);
  const uint32_t* positions = NurseryPositions(ref);
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t pos = positions[i];
    words[pos >> 6] |= uint64_t{1} << (pos & 63);
  }
  nursery_.Free(ref & ~kNurseryFlag);
  slab_ref_[row] = main_slot;
  --live_nursery_;
  ++live_main_;
  ++promoted_flows_;
  GlobalFlowInstruments().flows_promoted->Add();
  PublishResidency();
}

void ArenaSmbEngine::NurseryApply(uint32_t row, uint32_t ref, uint32_t pos,
                                  uint32_t meta) {
  uint32_t* positions = NurseryPositions(ref);
  const uint32_t v = meta & kFillMask;
  // Membership scan stands in for the main path's word & mask duplicate
  // check — the list holds exactly the set bits.
  for (uint32_t i = 0; i < v; ++i) {
    if (positions[i] == pos) return;
  }
  SMB_DCHECK(v < nursery_capacity_);
  positions[v] = pos;
  const uint32_t v_new = v + 1;
  meta_[row] = v_new;  // round stays 0
  // Same morph condition as the main path at round 0; graduation happens
  // BEFORE the morph is recorded, so post-morph state always lives on
  // the main slab.
  const bool morphs = v_new >= config_.threshold && max_round_ > 0;
  if (morphs || v_new >= nursery_capacity_) {
    PromoteRow(row);
    if (morphs) meta_[row] = uint32_t{1} << kRoundShift;
  }
}

inline void ArenaSmbEngine::ApplyToRow(uint32_t row, uint64_t lo,
                                       uint32_t rank) {
  const uint32_t meta = meta_[row];
  uint32_t round = meta >> kRoundShift;
  // Geometric gate (Algorithm 1 step 1) — touches only the metadata SoA,
  // never the slabs.
  if (SMB_LIKELY(rank < round)) return;
  const size_t pos = FastRange64(lo, config_.num_bits);
  const uint32_t ref = slab_ref_[row];
  if (ref & kNurseryFlag) {
    NurseryApply(row, ref, static_cast<uint32_t>(pos), meta);
    return;
  }
  uint64_t& word = arena_.SlotWords(ref)[pos >> 6];
  const uint64_t mask = uint64_t{1} << (pos & 63);
  if (word & mask) return;
  word |= mask;
  uint32_t v = (meta & kFillMask) + 1;
  if (SMB_UNLIKELY(v >= config_.threshold) && round < max_round_) {
    ++round;
    v = 0;
  }
  meta_[row] = (round << kRoundShift) | v;
}

int ArenaSmbEngine::GateRank(uint64_t flow, uint64_t element) const {
  return GeometricRank(ItemHash128(element + FlowSeedOffset(flow), 0).hi);
}

void ArenaSmbEngine::Record(uint64_t flow, uint64_t element) {
  const uint32_t row = FindOrCreateRow(flow, FlowTable::BucketHash(flow));
  const Hash128 hash = ItemHash128(element + seed_offsets_[row], 0);
  ApplyToRow(row, hash.lo, static_cast<uint32_t>(GeometricRank(hash.hi)));
  MaybeEvict();
}

void ArenaSmbEngine::RecordBatch(const Packet* packets, size_t n) {
  // Stage buffers for one block (~11 KB of stack).
  uint64_t flows[kBatchBlock];
  uint64_t elems[kBatchBlock];
  uint64_t bucket_lo[kBatchBlock];
  uint8_t scratch_rank[kBatchBlock];
  uint32_t rows[kBatchBlock];
  uint64_t offsets[kBatchBlock];
  uint64_t elem_lo[kBatchBlock];
  uint8_t elem_rank[kBatchBlock];
  uint32_t surv_row[kBatchBlock];
  uint64_t surv_lo[kBatchBlock];
  uint8_t surv_rank[kBatchBlock];
  constexpr size_t kLookAhead = 8;
  while (n > 0) {
    const size_t nb = std::min(n, kBatchBlock);
    // Stage 1: SoA split + one SIMD pass over the block's flow keys. The
    // kernel's lo lane with the table's seed IS the bucket hash, so the
    // table never hashes a key itself on this path.
    {
      TRACE_SPAN("flow", "arena.flow_hash");
      for (size_t i = 0; i < nb; ++i) {
        flows[i] = packets[i].flow;
        elems[i] = packets[i].element;
      }
      BatchHashAndRank(flows, nb, FlowTable::kHashSeed, bucket_lo,
                       scratch_rank);
    }
    // Stage 2: table lookups with bucket prefetch running kLookAhead
    // lanes ahead, then gather each lane's seed offset and prefetch its
    // gate metadata + storage ref. Inserts all happen here, and eviction
    // waits for the block boundary, so the cached row ids stay valid for
    // the rest of the block.
    {
      TRACE_SPAN("flow", "arena.table_lookup");
      for (size_t i = 0; i < std::min(kLookAhead, nb); ++i) {
        table_.PrefetchBucket(bucket_lo[i]);
      }
      for (size_t i = 0; i < nb; ++i) {
        if (i + kLookAhead < nb) {
          table_.PrefetchBucket(bucket_lo[i + kLookAhead]);
        }
        rows[i] = FindOrCreateRow(flows[i], bucket_lo[i]);
        offsets[i] = seed_offsets_[rows[i]];
        __builtin_prefetch(meta_.data() + rows[i], 0, 3);
        __builtin_prefetch(slab_ref_.data() + rows[i], 0, 3);
      }
    }
    // Stage 3: one keyed SIMD pass hashes the block's elements, each lane
    // with its own flow's seed.
    {
      TRACE_SPAN("flow", "arena.elem_hash_keyed");
      BatchHashAndRankKeyed(elems, offsets, nb, elem_lo, elem_rank);
    }
    // Stage 4: gate-first compaction against each lane's current round +
    // storage prefetch for the survivors (the exact bitmap word on the
    // main slab; the position list base for nursery rows). Safe to gate
    // early: a flow's round only grows, so a lane rejected now would also
    // be rejected at its sequential turn; survivors are re-gated against
    // the live round in stage 5.
    size_t survivors = 0;
    {
      TRACE_SPAN("flow", "arena.gate_compact");
      for (size_t i = 0; i < nb; ++i) {
        const uint32_t round = meta_[rows[i]] >> kRoundShift;
        if (SMB_UNLIKELY(elem_rank[i] >= round)) {
          surv_row[survivors] = rows[i];
          surv_lo[survivors] = elem_lo[i];
          surv_rank[survivors] = elem_rank[i];
          const uint32_t ref = slab_ref_[rows[i]];
          if (ref & kNurseryFlag) {
            __builtin_prefetch(nursery_.SlotWords(ref & ~kNurseryFlag), 1, 3);
          } else {
            const size_t pos = FastRange64(elem_lo[i], config_.num_bits);
            __builtin_prefetch(arena_.SlotWords(ref) + (pos >> 6), 1, 3);
          }
          ++survivors;
        }
      }
    }
    // Stage 5: in-order apply. ApplyToRow re-gates against the live
    // metadata, so duplicate flows inside one block see each other's
    // probes and morphs exactly as a sequential Record() loop would.
    {
      TRACE_SPAN("flow", "arena.apply");
      for (size_t j = 0; j < survivors; ++j) {
        ApplyToRow(surv_row[j], surv_lo[j], surv_rank[j]);
      }
    }
    // Block boundary: nothing caches row ids across this point, so cold
    // rows can be reclaimed now.
    MaybeEvict();
    packets += nb;
    n -= nb;
  }
}

void ArenaSmbEngine::MaybeEvict() {
  if (!EvictionEnabled()) return;
  const size_t budget = config_.tuning.memory_budget_bytes;
  while (NumFlows() > 1 && LiveBytes() > budget) {
    if (!EvictOneRow()) break;
  }
}

bool ArenaSmbEngine::EvictOneRow() {
  const size_t rows = num_rows();
  if (rows == 0) return false;
  // 2Q drains the nursery first: newborn rows hold the least learned
  // state, so re-admitting one later costs almost nothing.
  const bool prefer_nursery =
      config_.tuning.eviction == ArenaEviction::k2Q && live_nursery_ > 0;
  // Two sweeps bound the scan: the first pass can at worst clear every
  // reference byte, the second must then find a victim.
  for (size_t scanned = 0; scanned < rows * 2; ++scanned) {
    if (clock_hand_ >= rows) clock_hand_ = 0;
    const uint32_t row = static_cast<uint32_t>(clock_hand_++);
    const uint32_t ref = slab_ref_[row];
    if (ref == kDeadRef) continue;
    if (prefer_nursery && (ref & kNurseryFlag) == 0) continue;
    if (ref_bits_[row] != 0) {
      ref_bits_[row] = 0;
      continue;
    }
    EvictRow(row);
    return true;
  }
  return false;
}

void ArenaSmbEngine::EvictRow(uint32_t row) {
  const uint32_t ref = slab_ref_[row];
  SMB_DCHECK(ref != kDeadRef);
  const uint64_t flow = flow_keys_[row];
  if (cold_ != nullptr) {
    // Freeze: the state stays queryable and revivable in-process, so
    // nothing is lost. Without the cold tier the state is dropped.
    const uint32_t meta = meta_[row];
    cold_->Freeze(flow, meta >> kRoundShift, meta & kFillMask,
                  MaterializedWords(row, &inspect_scratch_));
  }
  const bool erased = table_.Erase(flow, FlowTable::BucketHash(flow));
  SMB_DCHECK(erased);
  (void)erased;
  if (ref & kNurseryFlag) {
    nursery_.Free(ref & ~kNurseryFlag);
    --live_nursery_;
  } else {
    arena_.Free(ref);
    --live_main_;
  }
  slab_ref_[row] = kDeadRef;
  ref_bits_[row] = 0;
  row_free_.push_back(row);
  ++evicted_flows_;
  GlobalFlowInstruments().flows_evicted->Add();
  PublishResidency();
}

double ArenaSmbEngine::EstimateMeta(uint32_t round32, uint32_t ones32) const {
  // Same operations, operand values and order as
  // SelfMorphingBitmap::Estimate(), so results are bit-identical.
  const size_t round = round32;
  const double m_r =
      static_cast<double>(config_.num_bits - round * config_.threshold);
  const double v = std::min(static_cast<double>(ones32), m_r - 1.0);
  if (v <= 0.0) return s_table_[round];
  const double scale = std::ldexp(static_cast<double>(config_.num_bits),
                                  static_cast<int>(round));
  return s_table_[round] + scale * (-std::log1p(-v / m_r));
}

double ArenaSmbEngine::EstimateSlot(uint32_t row) const {
  const uint32_t meta = meta_[row];
  return EstimateMeta(meta >> kRoundShift, meta & kFillMask);
}

bool ArenaSmbEngine::FindMeta(uint64_t flow, uint32_t* meta) const {
  const FlowTable::Probe probe =
      table_.Find(flow, FlowTable::BucketHash(flow));
  if (probe.found) {
    *meta = meta_[probe.slot];
    return true;
  }
  uint32_t round = 0, ones = 0;
  if (cold_ == nullptr || !cold_->PeekMeta(flow, &round, &ones)) return false;
  *meta = (round << kRoundShift) | ones;
  return true;
}

double ArenaSmbEngine::Query(uint64_t flow) const {
  // The estimate is a pure function of (r, v), so a frozen flow answers
  // from its cold-tier header and its payload stays compressed.
  uint32_t meta = 0;
  if (!FindMeta(flow, &meta)) return 0.0;
  return EstimateMeta(meta >> kRoundShift, meta & kFillMask);
}

std::vector<uint64_t> ArenaSmbEngine::FlowsOver(double threshold) const {
  std::vector<uint64_t> out;
  for (uint32_t row = 0; row < flow_keys_.size(); ++row) {
    if (slab_ref_[row] == kDeadRef) continue;
    if (EstimateSlot(row) >= threshold) out.push_back(flow_keys_[row]);
  }
  if (cold_ != nullptr) {
    for (const uint64_t flow : cold_->SortedFlows()) {
      uint32_t round = 0, ones = 0;
      cold_->PeekMeta(flow, &round, &ones);
      if (EstimateMeta(round, ones) >= threshold) out.push_back(flow);
    }
  }
  return out;
}

void ArenaSmbEngine::ForEachFlow(
    const std::function<void(uint64_t, double)>& fn) const {
  for (uint32_t row = 0; row < flow_keys_.size(); ++row) {
    if (slab_ref_[row] == kDeadRef) continue;
    fn(flow_keys_[row], EstimateSlot(row));
  }
  if (cold_ != nullptr) {
    for (const uint64_t flow : cold_->SortedFlows()) {
      uint32_t round = 0, ones = 0;
      cold_->PeekMeta(flow, &round, &ones);
      fn(flow, EstimateMeta(round, ones));
    }
  }
}

std::span<const uint64_t> ArenaSmbEngine::MaterializedWords(
    uint32_t row, std::vector<uint64_t>* scratch) const {
  const uint32_t ref = slab_ref_[row];
  SMB_DCHECK(ref != kDeadRef);
  if ((ref & kNurseryFlag) == 0) {
    return {arena_.SlotWords(ref), words_per_slot_};
  }
  scratch->assign(words_per_slot_, 0);
  const uint32_t count = meta_[row] & kFillMask;
  const uint32_t* positions = NurseryPositions(ref);
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t pos = positions[i];
    (*scratch)[pos >> 6] |= uint64_t{1} << (pos & 63);
  }
  return {scratch->data(), words_per_slot_};
}

std::span<const uint64_t> ArenaSmbEngine::HeldWords(
    uint64_t flow, std::vector<uint64_t>* scratch) const {
  const FlowTable::Probe probe =
      table_.Find(flow, FlowTable::BucketHash(flow));
  if (probe.found) return MaterializedWords(probe.slot, scratch);
  SMB_DCHECK(cold_ != nullptr && cold_->Contains(flow));
  scratch->assign(words_per_slot_, 0);
  uint32_t round = 0, ones = 0;
  cold_->ReadState(flow, &round, &ones, *scratch);
  return {scratch->data(), words_per_slot_};
}

void ArenaSmbEngine::MergeFlowState(uint64_t flow,
                                    std::span<uint64_t> dst_words,
                                    uint32_t* dst_meta,
                                    std::span<const uint64_t> src_words,
                                    uint32_t src_meta,
                                    std::span<uint64_t> replay) const {
  const SmbMergeGeometry geometry{config_.num_bits, config_.threshold,
                                  max_round_, 2.0};
  // Exactly the salt the flow's standalone snapshot would use in
  // SelfMorphingBitmap::MergeFrom: fmix(per_flow_seed ^ merge salt).
  const uint64_t salt = Murmur3Fmix64(
      Murmur3Fmix64(config_.base_seed ^ flow) ^ kSmbMergeSalt);
  size_t round = *dst_meta >> kRoundShift;
  size_t fill = *dst_meta & kFillMask;
  const size_t src_round = src_meta >> kRoundShift;
  const size_t src_fill = src_meta & kFillMask;
  if (SmbMergePrefersSource(round, fill, src_round, src_fill)) {
    // The source is the coarser state: it becomes the base and the
    // destination's old bits are replayed into it.
    std::copy(dst_words.begin(), dst_words.end(), replay.begin());
    std::copy(src_words.begin(), src_words.end(), dst_words.begin());
    const size_t replay_round = round;
    const size_t replay_fill = fill;
    round = src_round;
    fill = src_fill;
    SmbReplayMergeBits(geometry, salt, dst_words, &round, &fill, replay,
                       replay_round, replay_fill);
  } else {
    SmbReplayMergeBits(geometry, salt, dst_words, &round, &fill, src_words,
                       src_round, src_fill);
  }
  *dst_meta = (static_cast<uint32_t>(round) << kRoundShift) |
              static_cast<uint32_t>(fill);
}

void ArenaSmbEngine::MergeFrom(const ArenaSmbEngine& other) {
  SMB_CHECK_MSG(CanMergeWith(other),
                "arena merge requires identical (num_bits, threshold, "
                "base_seed)");
  std::vector<uint64_t> replay(words_per_slot_);
  const auto merge_one = [&](uint64_t flow,
                             std::span<const uint64_t> src_words,
                             uint32_t src_meta) {
    const uint64_t bucket_hash = FlowTable::BucketHash(flow);
    // A frozen flow counts as known: FindOrCreateRow thaws it, so the
    // replay path below merges against its revived state.
    const bool existed = table_.Find(flow, bucket_hash).found ||
                         (cold_ != nullptr && cold_->Contains(flow));
    const uint32_t row = FindOrCreateRow(flow, bucket_hash);
    PromoteRow(row);  // merge results live on the main slab
    const std::span<uint64_t> dst_words(arena_.SlotWords(slab_ref_[row]),
                                        words_per_slot_);
    if (!existed) {
      // Flow unknown here: adopt the source state verbatim (the
      // merge-with-empty identity, without the replay detour).
      std::copy(src_words.begin(), src_words.end(), dst_words.begin());
      meta_[row] = src_meta;
      return;
    }
    MergeFlowState(flow, dst_words, &meta_[row], src_words, src_meta,
                   replay);
  };
  for (uint32_t src_row = 0; src_row < other.flow_keys_.size(); ++src_row) {
    if (other.slab_ref_[src_row] == kDeadRef) continue;
    // Materialized view (nursery rows included) — the merge replay works
    // on real bitmap words on both sides.
    merge_one(other.flow_keys_[src_row],
              other.MaterializedWords(src_row, &other.inspect_scratch_),
              other.meta_[src_row]);
  }
  if (other.cold_ != nullptr) {
    // The source's frozen flows are engine state too; materialize each
    // and merge it like any live row.
    std::vector<uint64_t> cold_words(words_per_slot_);
    for (const uint64_t flow : other.cold_->SortedFlows()) {
      uint32_t round = 0, ones = 0;
      other.cold_->ReadState(flow, &round, &ones, cold_words);
      merge_one(flow, cold_words, (round << kRoundShift) | ones);
    }
  }
  // Adopted flows may have pushed past the budget; reclaim at the merge
  // boundary (no cached row ids here).
  MaybeEvict();
}

double ArenaSmbEngine::QueryMerged(
    std::span<const ArenaSmbEngine* const> engines, uint64_t flow) {
  // One probe per engine finds the holders; the first holder's state is
  // what MergeFrom would adopt verbatim into the fresh engine.
  size_t first = engines.size();
  uint32_t acc_meta = 0;
  size_t holders = 0;
  for (size_t i = 0; i < engines.size(); ++i) {
    SMB_CHECK_MSG(engines[i]->CanMergeWith(*engines.front()),
                  "arena merge requires identical (num_bits, threshold, "
                  "base_seed)");
    uint32_t meta = 0;
    if (!engines[i]->FindMeta(flow, &meta)) continue;
    if (holders++ == 0) {
      first = i;
      acc_meta = meta;
    }
  }
  if (holders == 0) return 0.0;
  const ArenaSmbEngine& base = *engines[first];
  if (holders > 1) {
    const size_t words = base.words_per_slot_;
    std::vector<uint64_t> acc(words), scratch(words), replay(words);
    const std::span<const uint64_t> base_words =
        base.HeldWords(flow, &scratch);
    std::copy(base_words.begin(), base_words.end(), acc.begin());
    for (size_t i = first + 1; i < engines.size(); ++i) {
      uint32_t meta = 0;
      if (!engines[i]->FindMeta(flow, &meta)) continue;
      base.MergeFlowState(flow, acc, &acc_meta,
                          engines[i]->HeldWords(flow, &scratch), meta,
                          replay);
    }
  }
  return base.EstimateMeta(acc_meta >> kRoundShift, acc_meta & kFillMask);
}

size_t ArenaSmbEngine::ResidentBytes() const {
  return sizeof(*this) + table_.ResidentBytes() + arena_.ResidentBytes() +
         nursery_.ResidentBytes() + meta_.capacity() * sizeof(uint32_t) +
         seed_offsets_.capacity() * sizeof(uint64_t) +
         flow_keys_.capacity() * sizeof(uint64_t) +
         slab_ref_.capacity() * sizeof(uint32_t) +
         ref_bits_.capacity() * sizeof(uint8_t) +
         row_free_.capacity() * sizeof(uint32_t) +
         inspect_scratch_.capacity() * sizeof(uint64_t) +
         s_table_.capacity() * sizeof(double) +
         (cold_ != nullptr ? cold_->ResidentBytes() : 0);
}

ArenaSmbEngine::ArenaStats ArenaSmbEngine::Stats() const {
  ArenaStats stats;
  stats.live_flows = NumFlows();
  stats.nursery_flows = live_nursery_;
  stats.main_flows = live_main_;
  stats.recorded_flows = recorded_flows_;
  stats.evicted_flows = evicted_flows_;
  stats.promoted_flows = promoted_flows_;
  stats.live_bytes = LiveBytes();
  stats.budget_bytes = config_.tuning.memory_budget_bytes;
  stats.main_slots_high_water = arena_.high_water_slots();
  stats.main_slots_free = arena_.free_slots();
  stats.nursery_slots_high_water = nursery_.high_water_slots();
  stats.nursery_slots_free = nursery_.free_slots();
  stats.nursery_enabled = nursery_capacity_ > 0;
  if (cold_ != nullptr) {
    stats.cold_flows = cold_->NumFlows();
    stats.cold_encoded_bytes = cold_->EncodedBytes();
    stats.cold_raw_bytes = cold_->RawBytes();
    stats.cold_compactions = cold_->compactions();
  }
  stats.thawed_flows = thawed_flows_;
  stats.main_alloc = arena_.alloc_stats();
  stats.nursery_alloc = nursery_.alloc_stats();
  return stats;
}

std::optional<ArenaSmbEngine::FlowState> ArenaSmbEngine::Inspect(
    uint64_t flow) const {
  const FlowTable::Probe probe =
      table_.Find(flow, FlowTable::BucketHash(flow));
  if (!probe.found) {
    if (cold_ != nullptr) {
      inspect_scratch_.assign(words_per_slot_, 0);
      uint32_t round = 0, ones = 0;
      if (cold_->ReadState(flow, &round, &ones,
                           {inspect_scratch_.data(), words_per_slot_})) {
        FlowState state;
        state.round = round;
        state.ones_in_round = ones;
        state.words = {inspect_scratch_.data(), words_per_slot_};
        return state;
      }
    }
    return std::nullopt;
  }
  const uint32_t meta = meta_[probe.slot];
  FlowState state;
  state.round = meta >> kRoundShift;
  state.ones_in_round = meta & kFillMask;
  state.words = MaterializedWords(probe.slot, &inspect_scratch_);
  return state;
}

namespace {

// Snapshot image: the FLW1 layout (codec/flw1_layout.h), one record per
// flow in row order. Seed offsets are not stored — they are a pure
// function of (base_seed, flow key) and are rebuilt on load. Nursery rows
// are materialized on write, so the format is residency-agnostic.

// Reserves the whole image up front so every record is appended with
// bulk copies and no reallocation.
std::vector<uint8_t> BeginSnapshot(const ArenaSmbEngine::Config& config,
                                   size_t num_flows, size_t words_per_slot) {
  std::vector<uint8_t> out(std::begin(flw1::kMagic), std::end(flw1::kMagic));
  out.reserve(flw1::kHeaderBytes + num_flows * (2 + words_per_slot) * 8 +
              flw1::kChecksumBytes);
  for (const uint64_t field :
       {uint64_t{config.num_bits}, uint64_t{config.threshold},
        config.base_seed, uint64_t{num_flows}, uint64_t{words_per_slot}}) {
    AppendU64(&out, field);
  }
  return out;
}

void AppendRecord(std::vector<uint8_t>* out, uint64_t flow, uint64_t meta,
                  std::span<const uint64_t> words) {
  AppendU64(out, flow);
  AppendU64(out, meta);
  AppendU64s(out, words);
}

void SealSnapshot(std::vector<uint8_t>* out) {
  AppendU64(out, flw1::Checksum(out->data(), out->size()));
}

}  // namespace

std::vector<uint8_t> ArenaSmbEngine::Serialize() const {
  const size_t cold_flows = cold_ != nullptr ? cold_->NumFlows() : 0;
  std::vector<uint8_t> out =
      BeginSnapshot(config_, NumFlows() + cold_flows, words_per_slot_);
  std::vector<uint64_t> scratch(words_per_slot_);
  for (uint32_t row = 0; row < flow_keys_.size(); ++row) {
    if (slab_ref_[row] == kDeadRef) continue;
    AppendRecord(&out, flow_keys_[row], meta_[row],
                 MaterializedWords(row, &scratch));
  }
  if (cold_ != nullptr) {
    // Frozen flows ride the same snapshot, materialized, after the live
    // rows — ascending key so snapshot bytes are deterministic.
    for (const uint64_t flow : cold_->SortedFlows()) {
      uint32_t round = 0, ones = 0;
      cold_->ReadState(flow, &round, &ones, scratch);
      AppendRecord(&out, flow, (round << kRoundShift) | ones, scratch);
    }
  }
  SealSnapshot(&out);
  return out;
}

std::optional<ArenaSmbEngine> ArenaSmbEngine::Deserialize(
    const std::vector<uint8_t>& bytes, const ArenaTuning& tuning) {
  if (bytes.size() < flw1::kHeaderBytes + flw1::kChecksumBytes ||
      std::memcmp(bytes.data(), flw1::kMagic, sizeof(flw1::kMagic)) != 0) {
    return std::nullopt;
  }
  const uint8_t* header = bytes.data() + sizeof(flw1::kMagic);
  const uint64_t num_bits = LoadU64(header);
  const uint64_t threshold = LoadU64(header + 8);
  const uint64_t base_seed = LoadU64(header + 16);
  const uint64_t num_flows = LoadU64(header + 24);
  const uint64_t words_per_slot = LoadU64(header + 32);
  if (!Supports(num_bits, threshold)) return std::nullopt;
  if (words_per_slot != (num_bits + 63) / 64) return std::nullopt;
  // Exact size, by division so a huge num_flows cannot wrap the check:
  // truncation and trailing garbage after the checksum must not pass.
  const size_t record_bytes = (2 + words_per_slot) * 8;
  const size_t body_bytes =
      bytes.size() - flw1::kHeaderBytes - flw1::kChecksumBytes;
  if (body_bytes % record_bytes != 0 ||
      num_flows != body_bytes / record_bytes) {
    return std::nullopt;
  }
  if (flw1::Checksum(bytes.data(), bytes.size() - flw1::kChecksumBytes) !=
      LoadU64(bytes.data() + bytes.size() - flw1::kChecksumBytes)) {
    return std::nullopt;
  }

  Config config;
  config.num_bits = num_bits;
  config.threshold = threshold;
  config.base_seed = base_seed;
  config.tuning = tuning;
  ArenaSmbEngine engine(config);
  std::vector<uint64_t> words(words_per_slot);
  const uint8_t* record = bytes.data() + flw1::kHeaderBytes;
  for (uint64_t f = 0; f < num_flows; ++f, record += record_bytes) {
    const uint64_t key = LoadU64(record);
    const uint64_t meta_u64 = LoadU64(record + 8);
    if (meta_u64 > 0xFFFFFFFFull) return std::nullopt;
    const uint32_t meta = static_cast<uint32_t>(meta_u64);
    const uint32_t round = meta >> kRoundShift;
    const uint32_t ones = meta & kFillMask;
    std::memcpy(words.data(), record + 16, words.size() * 8);
    if (!SmbStateReachable(num_bits, threshold, round, ones, words)) {
      return std::nullopt;
    }
    bool created = false;
    const uint32_t row =
        engine.FindOrCreateRow(key, FlowTable::BucketHash(key), &created);
    if (!created) return std::nullopt;  // duplicate flow key
    const uint32_t ref = engine.slab_ref_[row];
    // Strict <: nursery residents always have v < capacity (promotion
    // fires at v == capacity), and a full position list would leave no
    // room for the next element's append.
    if ((ref & kNurseryFlag) != 0 && round == 0 &&
        ones < engine.nursery_capacity_) {
      // The flow fits the nursery: decode its set bits back into a
      // position list instead of spending a main-slab slot.
      uint32_t* positions = engine.NurseryPositions(ref);
      uint32_t count = 0;
      for (size_t w = 0; w < words.size(); ++w) {
        uint64_t word = words[w];
        while (word != 0) {
          positions[count++] = static_cast<uint32_t>(
              w * 64 + static_cast<size_t>(CountTrailingZeros64(word)));
          word &= word - 1;
        }
      }
      SMB_DCHECK(count == ones);
    } else {
      engine.PromoteRow(row);  // no-op when the nursery is disabled
      std::copy(words.begin(), words.end(),
                engine.arena_.SlotWords(engine.slab_ref_[row]));
    }
    engine.meta_[row] = meta;
  }
  // The snapshot may hold more state than the restored budget allows.
  engine.MaybeEvict();
  return engine;
}

std::vector<uint8_t> ArenaSmbEngine::SerializeFlows(
    std::span<const uint64_t> flows) const {
  // Callers may list a flow more than once; a duplicate record would make
  // the image fail Deserialize()'s duplicate-key check. Keep the first
  // occurrence so the image order still matches the caller's.
  std::vector<uint32_t> rows;
  rows.reserve(flows.size());
  std::vector<bool> listed(flow_keys_.size());
  for (const uint64_t flow : flows) {
    const FlowTable::Probe probe =
        table_.Find(flow, FlowTable::BucketHash(flow));
    if (!probe.found || listed[probe.slot]) continue;
    listed[probe.slot] = true;
    rows.push_back(probe.slot);
  }
  std::vector<uint8_t> out =
      BeginSnapshot(config_, rows.size(), words_per_slot_);
  std::vector<uint64_t> scratch(words_per_slot_);
  for (const uint32_t row : rows) {
    AppendRecord(&out, flow_keys_[row], meta_[row],
                 MaterializedWords(row, &scratch));
  }
  SealSnapshot(&out);
  return out;
}

bool ArenaSmbEngine::UpsertFlowState(uint64_t flow, uint32_t round,
                                     uint32_t ones,
                                     std::span<const uint64_t> words) {
  // Same reachability rules Deserialize() applies per record; a replica
  // must never hold state its own recording path could not have reached.
  if (!SmbStateReachable(config_.num_bits, config_.threshold, round, ones,
                         words)) {
    return false;
  }
  const uint32_t row = FindOrCreateRow(flow, FlowTable::BucketHash(flow));
  PromoteRow(row);  // replicated state lives on the main slab
  uint64_t* dst = arena_.SlotWords(slab_ref_[row]);
  std::copy(words.begin(), words.end(), dst);
  meta_[row] = (round << kRoundShift) | ones;
  MaybeEvict();
  return true;
}

void ArenaSmbEngine::ForEachFlowState(
    const std::function<void(uint64_t, uint32_t, uint32_t,
                             std::span<const uint64_t>)>& fn) const {
  for (uint32_t row = 0; row < flow_keys_.size(); ++row) {
    if (slab_ref_[row] == kDeadRef) continue;
    const uint32_t meta = meta_[row];
    fn(flow_keys_[row], meta >> kRoundShift, meta & kFillMask,
       MaterializedWords(row, &inspect_scratch_));
  }
  if (cold_ != nullptr) {
    std::vector<uint64_t> words(words_per_slot_);
    for (const uint64_t flow : cold_->SortedFlows()) {
      uint32_t round = 0, ones = 0;
      cold_->ReadState(flow, &round, &ones,
                       {words.data(), words_per_slot_});
      fn(flow, round, ones, {words.data(), words_per_slot_});
    }
  }
}

}  // namespace smb
