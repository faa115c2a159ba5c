#include "flow/arena_smb_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "codec/flw1_layout.h"
#include "codec/smbz1.h"
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
  telemetry::Counter* invariant_violations;
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
        registry.GetCounter("flow_invariant_violations_total"),
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
  const ArenaStats stats = Stats();
  ins.live_flows->Set(static_cast<int64_t>(stats.live_flows));
  ins.nursery_flows->Set(static_cast<int64_t>(stats.nursery_flows));
  ins.live_bytes->Set(static_cast<int64_t>(stats.live_bytes));
  ins.slab_bytes->Set(static_cast<int64_t>(stats.alloc.mapped_bytes));
  ins.hugepage_bytes->Set(static_cast<int64_t>(
      stats.alloc.hugetlb_bytes + stats.alloc.thp_advised_bytes));
  ins.cold_flows->Set(static_cast<int64_t>(stats.cold_flows));
  ins.cold_bytes->Set(static_cast<int64_t>(stats.cold_encoded_bytes));
  ins.cold_resident_bytes->Set(
      cold_ ? static_cast<int64_t>(cold_->tier.ResidentBytes()) : 0);
  ins.cold_ratio_milli->Set(
      stats.cold_encoded_bytes > 0
          ? static_cast<int64_t>(stats.cold_raw_bytes * 1000 /
                                 stats.cold_encoded_bytes)
          : 0);
}

namespace {

// Position lists hold exactly a flow's set bits. Class strides are
// multiples of kListBlockBytes, and every probe compares whole 32-byte
// blocks (two SSE2 compares) without reading past the slot.
//
// Short lists — slots of at most kShortListBytes — keep insertion order.
// Membership compares the whole list and masks the lanes past the end
// instead of branching on what it found: a data-dependent exit
// mispredicts about once per packet, which cost more than the compares.
// A new position is appended.
//
// Long lists are strictly ascending, so a long list row already is an
// SMBZ1 sparse payload without its varint framing, and a probe is a
// branch-free binary search down to one block: the positions below the
// probed one there give the insertion point, and the membership answer
// in one load after it. An insert shifts the tail up. A list entering
// the first long class is sorted once as it is copied, and a short list
// is sorted into a copy when it is encoded. Shifting short lists too
// cost more than their whole-list compare: the library move call slowed
// zipf_ingest's record path (DESIGN.md §15).
constexpr size_t kListBlockBytes = 32;
constexpr size_t kShortListBytes = 4 * kListBlockBytes;

template <typename Pos>
bool ShortListContainsOf(const Pos* list, uint32_t n, uint32_t pos) {
#if defined(__SSE2__)
  constexpr uint32_t kLanes = 16 / sizeof(Pos);
  const __m128i needle = sizeof(Pos) == 2
                             ? _mm_set1_epi16(static_cast<int16_t>(pos))
                             : _mm_set1_epi32(static_cast<int32_t>(pos));
  const auto match_bits = [&](const Pos* at) {
    const __m128i lanes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
    return static_cast<uint32_t>(_mm_movemask_epi8(
        sizeof(Pos) == 2 ? _mm_cmpeq_epi16(lanes, needle)
                         : _mm_cmpeq_epi32(lanes, needle)));
  };
  uint32_t hits = 0;
  for (uint32_t i = 0; i < n; i += 2 * kLanes) {
    uint32_t bits =
        match_bits(list + i) | (match_bits(list + i + kLanes) << 16);
    // One movemask bit per byte; keep the bytes that hold positions.
    const uint32_t bytes = (n - i) * static_cast<uint32_t>(sizeof(Pos));
    if (bytes < kListBlockBytes) bits &= (uint32_t{1} << bytes) - 1;
    hits |= bits;
  }
  return hits != 0;
#else
  bool found = false;
  for (uint32_t i = 0; i < n; ++i) found |= list[i] == pos;
  return found;
#endif
}

// The number of positions below `pos` in an ascending list of n >= one
// block of positions.
template <typename Pos>
uint32_t LongListCountBelowOf(const Pos* list, uint32_t n, uint32_t pos) {
  constexpr uint32_t kBlockLanes = kListBlockBytes / sizeof(Pos);
  // Narrow [lo, lo + len] around the count, reading list[lo + half - 1]
  // with a conditional move, until one block holds it; then take the
  // whole block inside the list that covers it (every position before
  // that block is below `pos`).
  uint32_t lo = 0;
  for (uint32_t len = n; len > kBlockLanes;) {
    const uint32_t half = len / 2;
    lo = list[lo + half - 1] < pos ? lo + half : lo;
    len -= half;
  }
  const Pos* block = list + std::min(lo, n - kBlockLanes);
  uint32_t below = 0;
#if defined(__SSE2__)
  constexpr uint32_t kLanes = 16 / sizeof(Pos);
  // Positions fit in 26 bits, so the uint32 compare may be signed; the
  // uint16 one is "needle - lane saturates to zero" (lane >= needle).
  const __m128i needle = sizeof(Pos) == 2
                             ? _mm_set1_epi16(static_cast<int16_t>(pos))
                             : _mm_set1_epi32(static_cast<int32_t>(pos));
  const auto below_bits = [&](const Pos* at) {
    const __m128i lanes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
    if constexpr (sizeof(Pos) == 2) {
      return 0xFFFFu & ~static_cast<uint32_t>(_mm_movemask_epi8(
                           _mm_cmpeq_epi16(_mm_subs_epu16(needle, lanes),
                                           _mm_setzero_si128())));
    } else {
      return static_cast<uint32_t>(
          _mm_movemask_epi8(_mm_cmplt_epi32(lanes, needle)));
    }
  };
  // The bytes below form a prefix of the block: count its ones.
  const uint32_t bits = below_bits(block) | (below_bits(block + kLanes) << 16);
  below = static_cast<uint32_t>(CountTrailingZeros64(~uint64_t{bits})) /
          static_cast<uint32_t>(sizeof(Pos));
#else
  for (uint32_t i = 0; i < kBlockLanes; ++i) below += block[i] < pos;
#endif
  return static_cast<uint32_t>(block - list) + below;
}

// Looks `pos` up in an ascending long list of n positions and, unless it
// is there or `insert` is false, inserts it in order (the slot must hold
// n + 1 positions). True when it was absent.
template <typename Pos>
bool LongListProbeOf(Pos* list, uint32_t n, uint32_t pos, bool insert) {
  const uint32_t at = LongListCountBelowOf(list, n, pos);
  if (at < n && list[at] == pos) return false;
  if (insert) {
    std::memmove(list + at + 1, list + at, (n - at) * sizeof(Pos));
    list[at] = static_cast<Pos>(pos);
  }
  return true;
}

// List slots hold uint16 positions when position_bytes is 2, else uint32.
bool ShortListContains(const uint64_t* slot, size_t position_bytes,
                       uint32_t n, uint32_t pos) {
  return position_bytes == 2
             ? ShortListContainsOf(reinterpret_cast<const uint16_t*>(slot),
                                   n, pos)
             : ShortListContainsOf(reinterpret_cast<const uint32_t*>(slot),
                                   n, pos);
}

bool LongListProbe(uint64_t* slot, size_t position_bytes, uint32_t n,
                   uint32_t pos, bool insert) {
  return position_bytes == 2
             ? LongListProbeOf(reinterpret_cast<uint16_t*>(slot), n, pos,
                               insert)
             : LongListProbeOf(reinterpret_cast<uint32_t*>(slot), n, pos,
                               insert);
}

// Sorts a list's n positions in place.
void SortList(uint64_t* slot, size_t position_bytes, uint32_t n) {
  if (position_bytes == 2) {
    auto* list = reinterpret_cast<uint16_t*>(slot);
    std::sort(list, list + n);
  } else {
    auto* list = reinterpret_cast<uint32_t*>(slot);
    std::sort(list, list + n);
  }
}

void ListSet(uint64_t* slot, size_t position_bytes, uint32_t i,
             uint32_t pos) {
  if (position_bytes == 2) {
    reinterpret_cast<uint16_t*>(slot)[i] = static_cast<uint16_t>(pos);
  } else {
    reinterpret_cast<uint32_t*>(slot)[i] = pos;
  }
}

// ORs a list's n positions into bitmap words.
void ListToWords(const uint64_t* slot, size_t position_bytes, uint32_t n,
                 uint64_t* words) {
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t pos = position_bytes == 2
                             ? reinterpret_cast<const uint16_t*>(slot)[i]
                             : reinterpret_cast<const uint32_t*>(slot)[i];
    words[pos >> 6] |= uint64_t{1} << (pos & 63);
  }
}

// Writes the set bits of `words` as a list, ascending.
void WordsToList(std::span<const uint64_t> words, size_t position_bytes,
                 uint64_t* slot) {
  uint32_t n = 0;
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint64_t word = words[w]; word != 0; word &= word - 1) {
      ListSet(slot, position_bytes, n++,
              static_cast<uint32_t>(w * 64 + static_cast<size_t>(
                                                 CountTrailingZeros64(word))));
    }
  }
}

// codec::EncodeSparseSlot for a list row of n positions: a long list is
// ascending in place, a short one is sorted into a copy first.
template <typename Pos>
bool EncodeListRecord(uint64_t num_bits, const uint64_t* slot, uint32_t n,
                      bool ascending, std::vector<uint8_t>* out) {
  const Pos* list = reinterpret_cast<const Pos*>(slot);
  if (ascending) {
    return codec::EncodeSparseSlot(num_bits, std::span<const Pos>(list, n),
                                   out);
  }
  std::array<Pos, kShortListBytes / sizeof(Pos)> sorted;
  SMB_DCHECK(n <= sorted.size());
  std::copy(list, list + n, sorted.begin());
  std::sort(sorted.begin(), sorted.begin() + n);
  return codec::EncodeSparseSlot(num_bits,
                                 std::span<const Pos>(sorted.data(), n), out);
}

// Reads the position count of a sparse record over the set bits whose
// header is `slot`, at *pos, with every check made before a position is
// read: the count is the popcount (r, v) calls for — so a list-class
// state's positions fit its class — and each position takes at least a
// byte, so a count the bytes left cannot hold fails here, before
// anything is sized from it.
bool ReadSetCount(std::span<const uint8_t> in, size_t* pos,
                  uint64_t num_bits, uint64_t threshold,
                  const codec::SlotHeader& slot, uint64_t* count) {
  return codec::ReadSparseCount(in, pos, num_bits, count) &&
         *count <= in.size() - *pos &&
         SmbStateReachableCounts(num_bits, threshold, slot.round, slot.ones,
                                 *count);
}

// Reads the `count` ascending positions of a sparse payload at *pos into
// a list slot of Pos entries.
template <typename Pos>
bool ReadListPositions(std::span<const uint8_t> in, size_t* pos,
                       uint64_t num_bits, uint64_t count, uint64_t* slot) {
  Pos* out = reinterpret_cast<Pos*>(slot);
  return codec::ReadSparsePositions(
      in, pos, num_bits, count,
      [&](uint64_t p) { *out++ = static_cast<Pos>(p); });
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
      position_bytes_(config.num_bits <= 65536 ? 2 : 4),
      s_table_(BuildSTable(config.num_bits, config.threshold)) {
  SMB_CHECK_MSG(Supports(config.num_bits, config.threshold),
                "(num_bits, threshold) outside the packed-metadata envelope");
  // List classes: powers of two from 16 positions up to the tuning's cap,
  // each strictly smaller than a bitmap slot, and none past the first
  // that reaches T (a round-0 fill morphs there).
  const size_t cap = config_.tuning.nursery_capacity;
  const size_t morph_fill =
      max_round_ > 0 ? config_.threshold : std::numeric_limits<size_t>::max();
  const SlabAllocOptions options{config_.tuning.try_hugepages};
  // Slabs map nothing until their first slot is taken.
  slabs_.reserve(kMaxListClasses + 1);
  for (size_t positions = std::min<size_t>(16, cap);
       positions > 0; positions = std::min(positions * 2, cap)) {
    const size_t words =
        RoundUp(positions * position_bytes_, kListBlockBytes) / 8;
    if (words >= words_per_slot_) break;
    SMB_CHECK(slabs_.size() < kMaxListClasses);
    class_positions_[slabs_.size()] = static_cast<uint32_t>(positions);
    slabs_.emplace_back(words, options);
    if (positions == cap || positions >= morph_fill) break;
  }
  bitmap_class_ = static_cast<uint32_t>(slabs_.size());
  long_class_ = 0;
  while (long_class_ < bitmap_class_ &&
         slabs_[long_class_].words_per_slot() * 8 <= kShortListBytes) {
    ++long_class_;
  }
  graduate_at_ =
      bitmap_class_ == 0
          ? 0
          : static_cast<uint32_t>(std::min<size_t>(
                class_positions_[bitmap_class_ - 1], morph_fill));
  slabs_.emplace_back(words_per_slot_, options);
  if (config_.tuning.cold_tier) {
    cold_ = std::make_unique<Cold>(config_.num_bits);
  }
}

uint32_t ArenaSmbEngine::AllocateIn(uint32_t cls) {
  const uint32_t slot = slabs_[cls].Allocate();
  SMB_CHECK_MSG(slot < kSlotMask, "residency class slab is full");
  live_bytes_ += ClassBytes(cls);
  return (cls << kClassShift) | slot;
}

void ArenaSmbEngine::FreeRef(uint32_t ref) {
  SMB_DCHECK(ref != kDeadRef);
  slabs_[RefClass(ref)].Free(ref & kSlotMask);
  live_bytes_ -= ClassBytes(RefClass(ref));
}

uint32_t ArenaSmbEngine::ClassFor(uint32_t meta) const {
  // The round sits above the fill in meta, so one compare covers both.
  if (meta >= graduate_at_) return bitmap_class_;
  uint32_t cls = 0;
  while (class_positions_[cls] <= meta) ++cls;
  return cls;
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
    slab_ref_[row] = AllocateIn(ClassFor(0));
    ++live_flows_;
    ++recorded_flows_;
    GlobalFlowInstruments().flows_created->Add();
    residency_changed_ = true;
    // Thaw-before-gate: a returning frozen flow resumes from its exact
    // evicted state, in the class that state calls for, so the bits it
    // records from here on are identical to a never-evicted engine's.
    // One tier lookup finds, stores and drops the record.
    if (cold_ != nullptr &&
        cold_->tier.Take(flow, [&](const ColdSketchTier::Record& record) {
          StoreRecord(row, record.bytes);
        })) {
      ++thawed_flows_;
    }
  }
  // CLOCK reference: any lookup — gate-rejected traffic included — marks
  // the flow recently-used.
  ref_bits_[row] = 1;
  if (created != nullptr) *created = inserted;
  return row;
}

uint32_t ArenaSmbEngine::SlotIn(uint32_t row, uint32_t cls) {
  uint32_t ref = slab_ref_[row];
  if (RefClass(ref) != cls) {
    FreeRef(ref);
    ref = AllocateIn(cls);
    slab_ref_[row] = ref;
    residency_changed_ = true;
  }
  return ref;
}

void ArenaSmbEngine::StoreState(uint32_t row, uint32_t meta,
                                std::span<const uint64_t> words) {
  const uint32_t cls = ClassFor(meta);
  const uint32_t ref = SlotIn(row, cls);
  if (cls == bitmap_class_) {
    std::copy(words.begin(), words.end(), SlotWords(ref));
  } else {
    WordsToList(words, position_bytes_, SlotWords(ref));
  }
  meta_[row] = meta;
}

template <typename Pos>
void ArenaSmbEngine::StoreState(uint32_t row, uint32_t meta,
                                std::span<const Pos> positions) {
  const uint32_t cls = ClassFor(meta);
  // A list row is round 0: its fill is its position count.
  SMB_DCHECK(cls == bitmap_class_ || meta == positions.size());
  uint64_t* slot = SlotWords(SlotIn(row, cls));
  if (cls == bitmap_class_) {
    std::fill_n(slot, words_per_slot_, uint64_t{0});
    for (const Pos pos : positions) {
      slot[pos >> 6] |= uint64_t{1} << (pos & 63);
    }
  } else if (position_bytes_ == 2) {
    std::transform(positions.begin(), positions.end(),
                   reinterpret_cast<uint16_t*>(slot),
                   [](Pos pos) { return static_cast<uint16_t>(pos); });
  } else {
    std::transform(positions.begin(), positions.end(),
                   reinterpret_cast<uint32_t*>(slot),
                   [](Pos pos) { return static_cast<uint32_t>(pos); });
  }
  meta_[row] = meta;
}

void ArenaSmbEngine::StoreRecord(uint32_t row,
                                 std::span<const uint8_t> record) {
  size_t pos = 0;
  codec::SlotHeader header;
  const bool header_ok = codec::ReadSlotHeader(record, &pos, &header);
  SMB_CHECK_MSG(header_ok, "slot record failed to decode");
  const uint32_t meta = (header.round << kRoundShift) | header.ones;
  const uint32_t cls = ClassFor(meta);
  if (cls != bitmap_class_ && header.mode == codec::SlotMode::kSparse &&
      !header.zeros_listed) {
    // A list-class state's set positions go straight into its list slot,
    // ascending, with the checks an SMBZ1 reader makes.
    uint64_t count = 0;
    bool ok = ReadSetCount(record, &pos, config_.num_bits, config_.threshold,
                           header, &count);
    if (ok) {
      uint64_t* slot = SlotWords(SlotIn(row, cls));
      ok = position_bytes_ == 2
               ? ReadListPositions<uint16_t>(record, &pos, config_.num_bits,
                                             count, slot)
               : ReadListPositions<uint32_t>(record, &pos, config_.num_bits,
                                             count, slot);
    }
    SMB_CHECK_MSG(ok && pos == record.size(), "slot record failed to decode");
    meta_[row] = meta;
  } else if (cls == bitmap_class_) {
    DecodeRecord(record, {SlotWords(SlotIn(row, cls)), words_per_slot_});
    meta_[row] = meta;
  } else {
    inspect_scratch_.resize(words_per_slot_);
    DecodeRecord(record, inspect_scratch_);
    StoreState(row, meta, inspect_scratch_);
  }
}

void ArenaSmbEngine::DecodeRecord(std::span<const uint8_t> record,
                                  std::span<uint64_t> words) const {
  size_t pos = 0;
  codec::DecodedSlot slot;
  const bool ok =
      codec::DecodeSlot(record, &pos, config_.num_bits, &slot, words) &&
      pos == record.size() &&
      SmbStateReachableCounts(config_.num_bits, config_.threshold, slot.round,
                              slot.ones, slot.set_bits);
  SMB_CHECK_MSG(ok, "slot record failed to decode");
}

uint32_t ArenaSmbEngine::MoveList(uint32_t row, uint32_t cls) {
  const uint32_t old_ref = slab_ref_[row];
  const uint32_t ref = AllocateIn(cls);
  // List rows are round 0, so the meta IS the position count.
  if (cls == bitmap_class_) {
    ListToWords(SlotWords(old_ref), position_bytes_, meta_[row],
                SlotWords(ref));
    ++promoted_flows_;
    GlobalFlowInstruments().flows_promoted->Add();
  } else {
    std::memcpy(SlotWords(ref), SlotWords(old_ref),
                meta_[row] * position_bytes_);
    // A short list becomes a long one: put it in order, once.
    if (cls == long_class_) {
      SortList(SlotWords(ref), position_bytes_, meta_[row]);
    }
  }
  FreeRef(old_ref);
  slab_ref_[row] = ref;
  residency_changed_ = true;
  return ref;
}

inline void ArenaSmbEngine::ApplyToRow(uint32_t row, uint64_t lo,
                                       uint32_t rank) {
  const uint32_t meta = meta_[row];
  uint32_t round = meta >> kRoundShift;
  // Geometric gate (Algorithm 1 step 1) — touches only the metadata SoA,
  // never the slabs.
  if (SMB_LIKELY(rank < round)) return;
  const size_t pos = FastRange64(lo, config_.num_bits);
  uint32_t ref = slab_ref_[row];
  if (IsList(ref)) {
    // Round 0: the meta is the fill, which is the list length. The
    // list probe stands in for the bitmap's word & mask check; a new
    // position below the graduation fill joins the list.
    const uint32_t p = static_cast<uint32_t>(pos);
    const bool insert = meta + 1 < graduate_at_;
    uint64_t* list = SlotWords(ref);
    if (RefClass(ref) < long_class_) {
      if (ShortListContains(list, position_bytes_, meta, p)) return;
      if (insert) ListSet(list, position_bytes_, meta, p);
    } else if (!LongListProbe(list, position_bytes_, meta, p, insert)) {
      return;
    }
    if (insert) {
      meta_[row] = meta + 1;
      if (meta + 1 == class_positions_[RefClass(ref)]) {
        MoveList(row, RefClass(ref) + 1);
      }
      return;
    }
    // The fill reaches the last class's capacity or T: graduate BEFORE
    // recording, so the bitmap step below sets the bit and morphs
    // exactly as it would have for a row born on a bitmap.
    ref = MoveList(row, bitmap_class_);
  }
  uint64_t& word = BitmapWords(ref)[pos >> 6];
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
  SettleBoundary();
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
    // storage prefetch for the survivors (the exact bitmap word, or the
    // first lines of a list the scan will read). Safe to gate
    // early: a flow's round only grows, so a lane rejected now would also
    // be rejected at its sequential turn; survivors are re-gated against
    // the live round in stage 5.
    size_t survivors = 0;
    {
      TRACE_SPAN("flow", "arena.gate_compact");
      for (size_t i = 0; i < nb; ++i) {
        const uint32_t meta = meta_[rows[i]];
        if (SMB_UNLIKELY(elem_rank[i] >= (meta >> kRoundShift))) {
          surv_row[survivors] = rows[i];
          surv_lo[survivors] = elem_lo[i];
          surv_rank[survivors] = elem_rank[i];
          const uint32_t ref = slab_ref_[rows[i]];
          if (IsList(ref)) {
            // The first line and, once the list reaches it, the second
            // — or the middle one, where a long list's binary search
            // starts; no loop.
            const char* list = reinterpret_cast<const char*>(SlotWords(ref));
            const size_t bytes = meta * position_bytes_;
            const size_t second = RefClass(ref) < long_class_
                                      ? std::min<size_t>(bytes, 64)
                                      : bytes / 2;
            __builtin_prefetch(list, 1, 3);
            __builtin_prefetch(list + second, 1, 3);
          } else {
            const size_t pos = FastRange64(elem_lo[i], config_.num_bits);
            __builtin_prefetch(BitmapWords(ref) + (pos >> 6), 1, 3);
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
    SettleBoundary();
    packets += nb;
    n -= nb;
  }
}

void ArenaSmbEngine::SettleBoundary() {
  const size_t budget = config_.tuning.memory_budget_bytes;
  if (budget > 0 && config_.tuning.eviction != ArenaEviction::kOff &&
      NumFlows() > 1 && LiveBytes() > budget) {
    TRACE_SPAN("flow", "arena.evict");
    while (NumFlows() > 1 && LiveBytes() > budget && EvictOneRow()) continue;
  }
  // The accounting identities, re-derived from the class slabs' own slot
  // counts.
  size_t rows = 0, bytes = 0;
  for (uint32_t cls = 0; cls < slabs_.size(); ++cls) {
    rows += slabs_[cls].num_slots();
    bytes += slabs_[cls].num_slots() * ClassBytes(cls);
  }
  const bool ok = rows == live_flows_ && bytes == live_bytes_ &&
                  recorded_flows_ == live_flows_ + evicted_flows_;
  if (SMB_UNLIKELY(!ok)) {
    GlobalFlowInstruments().invariant_violations->Add();
  }
  SMB_DCHECK(ok);
  if (residency_changed_) {
    residency_changed_ = false;
    PublishResidency();
  }
}

bool ArenaSmbEngine::EvictOneRow() {
  const size_t rows = flow_keys_.size();
  if (rows == 0) return false;
  // 2Q drains list rows first: newborn rows hold the least learned
  // state, so re-admitting one later costs almost nothing.
  const bool prefer_lists = config_.tuning.eviction == ArenaEviction::k2Q &&
                            slabs_[bitmap_class_].num_slots() < live_flows_;
  // Two sweeps bound the scan: the first pass can at worst clear every
  // reference byte, the second must then find a victim.
  for (size_t scanned = 0; scanned < rows * 2; ++scanned) {
    if (clock_hand_ >= rows) clock_hand_ = 0;
    const uint32_t row = static_cast<uint32_t>(clock_hand_++);
    const uint32_t ref = slab_ref_[row];
    if (ref == kDeadRef) continue;
    if (prefer_lists && !IsList(ref)) continue;
    if (ref_bits_[row] != 0) {
      ref_bits_[row] = 0;
      continue;
    }
    const uint64_t flow = flow_keys_[row];
    if (cold_ != nullptr) {
      // Freeze: the state stays queryable and revivable in-process, so
      // nothing is lost. Without the cold tier the state is dropped.
      const uint32_t meta = meta_[row];
      cold_->record.clear();
      AppendSlotRecord(row, &inspect_scratch_, &cold_->record);
      cold_->tier.Freeze(flow, meta >> kRoundShift, meta & kFillMask,
                         cold_->record);
    }
    const bool erased = table_.Erase(flow, FlowTable::BucketHash(flow));
    SMB_DCHECK(erased);
    (void)erased;
    FreeRef(ref);
    --live_flows_;
    slab_ref_[row] = kDeadRef;
    ref_bits_[row] = 0;
    row_free_.push_back(row);
    ++evicted_flows_;
    GlobalFlowInstruments().flows_evicted->Add();
    residency_changed_ = true;
    return true;
  }
  return false;
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

SMB_CACHELINE_ALIGNED bool ArenaSmbEngine::FindMeta(uint64_t flow,
                                                   uint32_t* meta) const {
  const FlowTable::Probe probe =
      table_.Find(flow, FlowTable::BucketHash(flow));
  if (probe.found) {
    *meta = meta_[probe.slot];
    return true;
  }
  if (cold_ == nullptr) return false;
  const std::optional<ColdSketchTier::Record> record = cold_->tier.Find(flow);
  if (!record.has_value()) return false;
  *meta = (record->round << kRoundShift) | record->ones;
  return true;
}

SMB_CACHELINE_ALIGNED double ArenaSmbEngine::Query(uint64_t flow) const {
  // The estimate is a pure function of (r, v), so a frozen flow answers
  // from its cold-tier header and its payload stays compressed.
  uint32_t meta = 0;
  if (!FindMeta(flow, &meta)) return 0.0;
  return EstimateMeta(meta >> kRoundShift, meta & kFillMask);
}

std::vector<uint64_t> ArenaSmbEngine::FlowsOver(double threshold) const {
  std::vector<uint64_t> out;
  ForEachFlowMeta([&](uint64_t flow, uint32_t, uint32_t, double estimate) {
    if (estimate >= threshold) out.push_back(flow);
  });
  return out;
}

void ArenaSmbEngine::ForEachFlow(
    const std::function<void(uint64_t, double)>& fn) const {
  ForEachFlowMeta([&](uint64_t flow, uint32_t, uint32_t, double estimate) {
    fn(flow, estimate);
  });
}

std::span<const uint64_t> ArenaSmbEngine::MaterializedWords(
    uint32_t row, std::vector<uint64_t>* scratch) const {
  const uint32_t ref = slab_ref_[row];
  SMB_DCHECK(ref != kDeadRef);
  if (!IsList(ref)) return {SlotWords(ref), words_per_slot_};
  scratch->assign(words_per_slot_, 0);
  ListToWords(SlotWords(ref), position_bytes_, meta_[row], scratch->data());
  return {scratch->data(), words_per_slot_};
}

std::span<const uint64_t> ArenaSmbEngine::HeldWords(
    uint64_t flow, std::vector<uint64_t>* scratch) const {
  const FlowTable::Probe probe =
      table_.Find(flow, FlowTable::BucketHash(flow));
  if (probe.found) return MaterializedWords(probe.slot, scratch);
  SMB_DCHECK(cold_ != nullptr && cold_->tier.Contains(flow));
  scratch->resize(words_per_slot_);
  DecodeRecord(cold_->tier.Find(flow)->bytes, *scratch);
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
  std::vector<uint64_t> replay(words_per_slot_), merged(words_per_slot_),
      scratch(words_per_slot_);
  // A frozen flow counts as held: FindOrCreateRow thaws it, so the replay
  // below merges against its revived state.
  const auto held = [&](uint64_t flow, uint64_t bucket_hash) {
    return table_.Find(flow, bucket_hash).found ||
           (cold_ != nullptr && cold_->tier.Contains(flow));
  };
  const auto merge_held = [&](uint64_t flow, uint64_t bucket_hash,
                              std::span<const uint64_t> src_words,
                              uint32_t src_meta) {
    const uint32_t row = FindOrCreateRow(flow, bucket_hash);
    const uint32_t ref = slab_ref_[row];
    if (!IsList(ref)) {
      // A merge never shrinks a state, so a bitmap row stays one: merge
      // in place.
      MergeFlowState(flow, {SlotWords(ref), words_per_slot_}, &meta_[row],
                     src_words, src_meta, replay);
      SMB_DCHECK(ClassFor(meta_[row]) == bitmap_class_);
      return;
    }
    MaterializedWords(row, &merged);  // a list row materializes in place
    uint32_t meta = meta_[row];
    MergeFlowState(flow, merged, &meta, src_words, src_meta, replay);
    StoreState(row, meta, merged);
  };
  // Live source rows in row order. A flow unknown here is adopted
  // verbatim (the merge-with-empty identity) straight from the source
  // slot: a list's positions, a bitmap's words.
  for (uint32_t src = 0; src < other.flow_keys_.size(); ++src) {
    const uint32_t ref = other.slab_ref_[src];
    if (ref == kDeadRef) continue;
    const uint64_t flow = other.flow_keys_[src];
    const uint32_t meta = other.meta_[src];
    const uint64_t bucket_hash = FlowTable::BucketHash(flow);
    if (held(flow, bucket_hash)) {
      merge_held(flow, bucket_hash, other.MaterializedWords(src, &scratch),
                 meta);
      continue;
    }
    const uint32_t row = FindOrCreateRow(flow, bucket_hash);
    const uint64_t* slot = other.SlotWords(ref);
    if (!other.IsList(ref)) {
      StoreState(row, meta, {slot, words_per_slot_});
      continue;
    }
    // A short list is in insertion order, which only a short class may
    // keep, and it lands in no other list class under any tuning: the
    // class picked for its fill holds at most the next power of two
    // above it, a short capacity (or the fill goes to the bitmap).
    SMB_DCHECK(RefClass(ref) >= other.long_class_ ||
               ClassFor(meta) < long_class_ ||
               ClassFor(meta) == bitmap_class_);
    if (position_bytes_ == 2) {
      StoreState(row, meta, std::span<const uint16_t>(
                                reinterpret_cast<const uint16_t*>(slot), meta));
    } else {
      StoreState(row, meta, std::span<const uint32_t>(
                                reinterpret_cast<const uint32_t*>(slot), meta));
    }
  }
  // Frozen source flows from the source's cold tier, by ascending key:
  // a held one is decoded and replay-merged, an unheld one adopted
  // straight from its record (a set-sparse list-class record as its
  // positions).
  if (other.cold_ != nullptr) {
    other.cold_->tier.ForEachSorted(
        [&](uint64_t flow, const ColdSketchTier::Record& record) {
          const uint64_t bucket_hash = FlowTable::BucketHash(flow);
          if (held(flow, bucket_hash)) {
            other.DecodeRecord(record.bytes, scratch);
            merge_held(flow, bucket_hash, scratch,
                       (record.round << kRoundShift) | record.ones);
          } else {
            StoreRecord(FindOrCreateRow(flow, bucket_hash), record.bytes);
          }
        });
  }
  // Adopted flows may have pushed past the budget; reclaim at the merge
  // boundary (no cached row ids here).
  SettleBoundary();
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
  size_t slab_bytes = 0;
  for (const SlabArena& slab : slabs_) slab_bytes += slab.ResidentBytes();
  return sizeof(*this) + table_.ResidentBytes() + slab_bytes +
         slabs_.capacity() * sizeof(SlabArena) +
         meta_.capacity() * sizeof(uint32_t) +
         seed_offsets_.capacity() * sizeof(uint64_t) +
         flow_keys_.capacity() * sizeof(uint64_t) +
         slab_ref_.capacity() * sizeof(uint32_t) +
         ref_bits_.capacity() * sizeof(uint8_t) +
         row_free_.capacity() * sizeof(uint32_t) +
         inspect_scratch_.capacity() * sizeof(uint64_t) +
         s_table_.capacity() * sizeof(double) +
         (cold_ != nullptr ? cold_->tier.ResidentBytes() +
                                 sizeof(cold_->record) +
                                 cold_->record.capacity()
                           : 0);
}

ArenaSmbEngine::ArenaStats ArenaSmbEngine::Stats() const {
  ArenaStats stats;
  stats.live_flows = NumFlows();
  stats.main_flows = slabs_[bitmap_class_].num_slots();
  stats.nursery_flows = NumFlows() - stats.main_flows;
  stats.recorded_flows = recorded_flows_;
  stats.evicted_flows = evicted_flows_;
  stats.promoted_flows = promoted_flows_;
  stats.live_bytes = LiveBytes();
  stats.budget_bytes = config_.tuning.memory_budget_bytes;
  stats.nursery_enabled = bitmap_class_ > 0;
  for (uint32_t cls = 0; cls < slabs_.size(); ++cls) {
    const SlabArena& slab = slabs_[cls];
    ArenaStats::ResidencyClass entry;
    entry.positions = cls < bitmap_class_ ? class_positions_[cls] : 0;
    entry.slot_bytes = slab.words_per_slot() * 8;
    entry.live_flows = slab.num_slots();
    stats.classes.push_back(entry);
    stats.alloc.mapped_bytes += slab.alloc_stats().mapped_bytes;
    stats.alloc.hugetlb_bytes += slab.alloc_stats().hugetlb_bytes;
    stats.alloc.thp_advised_bytes += slab.alloc_stats().thp_advised_bytes;
  }
  if (cold_ != nullptr) {
    stats.cold_flows = cold_->tier.NumFlows();
    stats.cold_encoded_bytes = cold_->tier.EncodedBytes();
    stats.cold_raw_bytes = cold_->tier.RawBytes();
    stats.cold_compactions = cold_->tier.compactions();
  }
  stats.thawed_flows = thawed_flows_;
  return stats;
}

std::optional<ArenaSmbEngine::FlowState> ArenaSmbEngine::Inspect(
    uint64_t flow) const {
  uint32_t meta = 0;
  if (!FindMeta(flow, &meta)) return std::nullopt;
  FlowState state;
  state.round = meta >> kRoundShift;
  state.ones_in_round = meta & kFillMask;
  state.words = HeldWords(flow, &inspect_scratch_);
  return state;
}

bool ArenaSmbEngine::ListsWellFormed() const {
  std::vector<uint32_t> positions;
  for (uint32_t row = 0; row < flow_keys_.size(); ++row) {
    const uint32_t ref = slab_ref_[row];
    if (ref == kDeadRef || !IsList(ref)) continue;
    positions.resize(meta_[row]);
    for (uint32_t i = 0; i < meta_[row]; ++i) {
      positions[i] =
          position_bytes_ == 2
              ? reinterpret_cast<const uint16_t*>(SlotWords(ref))[i]
              : reinterpret_cast<const uint32_t*>(SlotWords(ref))[i];
    }
    if (RefClass(ref) < long_class_) {
      std::sort(positions.begin(), positions.end());
    }
    for (size_t i = 0; i < positions.size(); ++i) {
      if (positions[i] >= config_.num_bits ||
          (i > 0 && positions[i - 1] >= positions[i])) {
        return false;
      }
    }
  }
  return true;
}

namespace {

// Snapshot image: the FLW1 layout (codec/flw1_layout.h), one record per
// flow in row order. Seed offsets are not stored — they are a pure
// function of (base_seed, flow key) and are rebuilt on load. List rows
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
  // Frozen flows ride the same snapshot, materialized, after the live
  // rows — ascending key so snapshot bytes are deterministic.
  const size_t cold_flows = cold_ != nullptr ? cold_->tier.NumFlows() : 0;
  std::vector<uint8_t> out =
      BeginSnapshot(config_, NumFlows() + cold_flows, words_per_slot_);
  ForEachFlowState([&](uint64_t flow, uint32_t round, uint32_t ones,
                       std::span<const uint64_t> words) {
    AppendRecord(&out, flow, (round << kRoundShift) | ones, words);
  });
  SealSnapshot(&out);
  return out;
}

std::optional<ArenaSmbEngine> ArenaSmbEngine::Deserialize(
    const std::vector<uint8_t>& bytes, const ArenaTuning& tuning) {
  const std::optional<flw1::Header> header = flw1::ReadHeader(bytes);
  if (!header.has_value() || !Supports(header->num_bits, header->threshold)) {
    return std::nullopt;
  }
  const auto [num_bits, threshold, base_seed, num_flows, words_per_slot] =
      *header;
  const size_t record_bytes = header->RecordBytes();

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
    std::memcpy(words.data(), record + 16, words.size() * 8);
    if (!SmbStateReachable(num_bits, threshold, meta >> kRoundShift,
                           meta & kFillMask, words)) {
      return std::nullopt;
    }
    bool created = false;
    const uint32_t row =
        engine.FindOrCreateRow(key, FlowTable::BucketHash(key), &created);
    if (!created) return std::nullopt;  // duplicate flow key
    engine.StoreState(row, meta, words);
  }
  // The snapshot may hold more state than the restored budget allows.
  engine.SettleBoundary();
  return engine;
}

std::vector<uint32_t> ArenaSmbEngine::ListedRows(
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
  return rows;
}

std::vector<uint8_t> ArenaSmbEngine::SerializeFlows(
    std::span<const uint64_t> flows) const {
  const std::vector<uint32_t> rows = ListedRows(flows);
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

namespace {

// Walks the records of an SMBZ1 container whose framing ReadContainer
// passed, checking each with the one reachability rule, and hands it on;
// false at the first defect (a callback returning false included), and
// when bytes follow the last record. A sparse record over the set bits
// is read as its positions, appended to *positions, never as words:
// on_positions(key, meta, count), the record's positions being the last
// `count` of *positions. Every other record — raw, rle, sparse over the
// zero bits — is decoded into `words` (the decoder vouches for the tail
// and counts the set bits): on_words(key, meta, offset of its slot
// record in `records`).
template <typename PositionsFn, typename WordsFn>
bool ForEachSmbz1Record(std::span<const uint8_t> records,
                        const codec::ContainerHeader& header,
                        std::vector<uint32_t>* positions,
                        std::span<uint64_t> words, PositionsFn on_positions,
                        WordsFn on_words) {
  size_t pos = 0;
  for (uint64_t f = 0; f < header.num_flows; ++f) {
    uint64_t key = 0;
    if (!ReadU64(records, &pos, &key)) return false;
    const size_t record = pos;
    codec::SlotHeader slot;
    if (!codec::ReadSlotHeader(records, &pos, &slot)) return false;
    const uint32_t meta = (slot.round << kRoundShift) | slot.ones;
    if (slot.mode == codec::SlotMode::kSparse && !slot.zeros_listed) {
      uint64_t count = 0;
      if (!ReadSetCount(records, &pos, header.num_bits, header.threshold,
                        slot, &count)) {
        return false;
      }
      const size_t base = positions->size();
      positions->resize(base + static_cast<size_t>(count));
      uint32_t* out = positions->data() + base;
      if (!codec::ReadSparsePositions(
              records, &pos, header.num_bits, count,
              [&](uint64_t p) { *out++ = static_cast<uint32_t>(p); }) ||
          !on_positions(key, meta, static_cast<uint32_t>(count))) {
        return false;
      }
      continue;
    }
    pos = record;
    codec::DecodedSlot decoded;
    if (!codec::DecodeSlot(records, &pos, header.num_bits, &decoded, words) ||
        !SmbStateReachableCounts(header.num_bits, header.threshold,
                                 decoded.round, decoded.ones,
                                 decoded.set_bits) ||
        !on_words(key, meta, record)) {
      return false;
    }
  }
  return pos == records.size();
}

codec::ContainerHeader Smbz1Header(const ArenaSmbEngine::Config& config,
                                   size_t num_flows, size_t words_per_slot) {
  return {config.num_bits, config.threshold, config.base_seed, num_flows,
          words_per_slot};
}

}  // namespace

void ArenaSmbEngine::AppendSlotRecord(uint32_t row,
                                      std::vector<uint64_t>* scratch,
                                      std::vector<uint8_t>* out) const {
  const uint32_t ref = slab_ref_[row];
  const uint32_t meta = meta_[row];
  if (IsList(ref)) {
    // A list row is round 0 with `meta` positions.
    const bool ascending = RefClass(ref) >= long_class_;
    const bool sparse =
        position_bytes_ == 2
            ? EncodeListRecord<uint16_t>(config_.num_bits, SlotWords(ref),
                                         meta, ascending, out)
            : EncodeListRecord<uint32_t>(config_.num_bits, SlotWords(ref),
                                         meta, ascending, out);
    if (sparse) return;
  }
  codec::SlotState state;
  state.round = meta >> kRoundShift;
  state.ones = meta & kFillMask;
  state.words = MaterializedWords(row, scratch);
  codec::EncodeSlot(config_.num_bits, state, out);
}

std::vector<uint8_t> ArenaSmbEngine::SerializeSmbz1() const {
  // The same records in the same order as Serialize(): live rows, then
  // frozen flows by ascending key, whose records are copied as they are
  // (re-encoding a decoded record gives its bytes).
  const size_t cold_flows = cold_ != nullptr ? cold_->tier.NumFlows() : 0;
  std::vector<uint8_t> out;
  codec::BeginContainer(
      Smbz1Header(config_, NumFlows() + cold_flows, words_per_slot_), &out);
  std::vector<uint64_t> scratch(words_per_slot_);
  for (uint32_t row = 0; row < flow_keys_.size(); ++row) {
    if (slab_ref_[row] == kDeadRef) continue;
    AppendU64(&out, flow_keys_[row]);
    AppendSlotRecord(row, &scratch, &out);
  }
  if (cold_ != nullptr) {
    cold_->tier.ForEachSorted(
        [&](uint64_t flow, const ColdSketchTier::Record& record) {
          AppendU64(&out, flow);
          out.insert(out.end(), record.bytes.begin(), record.bytes.end());
        });
  }
  codec::SealContainer(&out);
  return out;
}

std::vector<uint8_t> ArenaSmbEngine::SerializeSmbz1(
    std::span<const uint64_t> flows) const {
  const std::vector<uint32_t> rows = ListedRows(flows);
  std::vector<uint8_t> out;
  codec::BeginContainer(Smbz1Header(config_, rows.size(), words_per_slot_),
                        &out);
  std::vector<uint64_t> scratch(words_per_slot_);
  for (const uint32_t row : rows) {
    AppendU64(&out, flow_keys_[row]);
    AppendSlotRecord(row, &scratch, &out);
  }
  codec::SealContainer(&out);
  return out;
}

std::optional<ArenaSmbEngine> ArenaSmbEngine::DeserializeSmbz1(
    std::span<const uint8_t> bytes, const ArenaTuning& tuning) {
  std::span<const uint8_t> records;
  const std::optional<codec::ContainerHeader> header =
      codec::ReadContainer(bytes, &records);
  if (!header.has_value() || !Supports(header->num_bits, header->threshold)) {
    return std::nullopt;
  }
  Config config;
  config.num_bits = header->num_bits;
  config.threshold = header->threshold;
  config.base_seed = header->base_seed;
  config.tuning = tuning;
  ArenaSmbEngine engine(config);
  std::vector<uint32_t> positions;
  std::vector<uint64_t> words(engine.words_per_slot_);
  // A new row per record; a key seen before is a duplicate.
  const auto new_row = [&](uint64_t key, uint32_t* row) {
    bool created = false;
    *row = engine.FindOrCreateRow(key, FlowTable::BucketHash(key), &created);
    return created;
  };
  const bool ok = ForEachSmbz1Record(
      records, *header, &positions, words,
      [&](uint64_t key, uint32_t meta, uint32_t) {
        uint32_t row = 0;
        if (!new_row(key, &row)) return false;
        engine.StoreState(row, meta, std::span<const uint32_t>(positions));
        positions.clear();
        return true;
      },
      [&](uint64_t key, uint32_t meta, size_t) {
        uint32_t row = 0;
        if (!new_row(key, &row)) return false;
        engine.StoreState(row, meta, words);
        return true;
      });
  if (!ok) return std::nullopt;
  // The snapshot may hold more state than the restored budget allows.
  engine.SettleBoundary();
  return engine;
}

bool ArenaSmbEngine::ApplySmbz1(std::span<const uint8_t> bytes) {
  std::span<const uint8_t> records;
  const std::optional<codec::ContainerHeader> header =
      codec::ReadContainer(bytes, &records);
  if (!header.has_value() || header->num_bits != config_.num_bits ||
      header->threshold != config_.threshold ||
      header->base_seed != config_.base_seed) {
    return false;
  }
  // Validate every record, and that no key repeats, before any row is
  // touched. The validating pass stages each sparse record's set
  // positions in one flat buffer (at most four bytes per payload byte),
  // so the store pass copies or sets them; any other record it decodes
  // into words again.
  struct Staged {
    uint64_t key;
    uint32_t meta;
    uint32_t count;  // staged positions
    bool decode;     // decoded into words again, from its record offset
    size_t at;       // its first staged position, or that offset
  };
  std::vector<Staged> staged;
  staged.reserve(static_cast<size_t>(header->num_flows));
  std::vector<uint32_t> positions;
  std::vector<uint64_t> words(words_per_slot_);
  if (!ForEachSmbz1Record(
          records, *header, &positions, words,
          [&](uint64_t key, uint32_t meta, uint32_t count) {
            staged.push_back(
                {key, meta, count, false, positions.size() - count});
            return true;
          },
          [&](uint64_t key, uint32_t meta, size_t record) {
            staged.push_back({key, meta, 0, true, record});
            return true;
          })) {
    return false;
  }
  std::vector<uint64_t> keys(staged.size());
  std::transform(staged.begin(), staged.end(), keys.begin(),
                 [](const Staged& record) { return record.key; });
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    return false;
  }
  // UpsertFlowState settles after every flow; that matters only when a
  // budget can evict between two upserts.
  const bool evicting = config_.tuning.memory_budget_bytes > 0 &&
                        config_.tuning.eviction != ArenaEviction::kOff;
  for (const Staged& record : staged) {
    const uint32_t row =
        FindOrCreateRow(record.key, FlowTable::BucketHash(record.key));
    if (record.decode) {
      size_t pos = record.at;
      codec::DecodedSlot decoded;
      const bool decoded_again = codec::DecodeSlot(
          records, &pos, header->num_bits, &decoded, words);
      SMB_DCHECK(decoded_again);
      (void)decoded_again;
      StoreState(row, record.meta, words);
    } else {
      StoreState(row, record.meta,
                 std::span<const uint32_t>(positions.data() + record.at,
                                           record.count));
    }
    if (evicting) SettleBoundary();
  }
  SettleBoundary();
  return true;
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
  StoreState(row, (round << kRoundShift) | ones, words);
  SettleBoundary();
  return true;
}

void ArenaSmbEngine::ForEachFlowState(
    const std::function<void(uint64_t, uint32_t, uint32_t,
                             std::span<const uint64_t>)>& fn) const {
  std::vector<uint64_t> scratch(words_per_slot_);
  for (uint32_t row = 0; row < flow_keys_.size(); ++row) {
    if (slab_ref_[row] == kDeadRef) continue;
    const uint32_t meta = meta_[row];
    fn(flow_keys_[row], meta >> kRoundShift, meta & kFillMask,
       MaterializedWords(row, &scratch));
  }
  if (cold_ != nullptr) {
    cold_->tier.ForEachSorted(
        [&](uint64_t flow, const ColdSketchTier::Record& record) {
          DecodeRecord(record.bytes, scratch);
          fn(flow, record.round, record.ones, scratch);
        });
  }
}

}  // namespace smb
