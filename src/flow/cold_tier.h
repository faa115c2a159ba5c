// ColdSketchTier — SMBZ1-compressed storage for evicted flows
// (DESIGN.md §17).
//
// Without this tier eviction is terminal: a flow reclaimed by the memory
// budget vanishes, and a later packet restarts it from scratch. The cold tier keeps the evicted
// state in-process instead, one SMBZ1 slot record per flow (mode byte,
// varint (r, v), compressed payload — codec/smbz1.h), so:
//
//   * a returning flow THAWS — its exact frozen state is stored back
//     into a slab slot before the geometric gate runs, making the
//     engine's recorded bits identical to a never-evicted oracle;
//   * a query for a frozen flow answers from the cached (r, v) alone
//     (the estimate is a pure function of (r, v)), no decode needed;
//   * snapshots still cover frozen flows: an SMBZ1 snapshot copies the
//     record bytes as they are.
//
// The tier neither encodes nor decodes: it stores the record bytes the
// engine hands it, with their (r, v), and hands them back. The engine
// writes a list row's record straight from its positions and reads a
// sparse record's positions straight into a list slot, so a round-0
// flow never becomes bitmap words on its way through here.
//
// Storage is a chunked append-only byte log plus a flow -> record index
// that caches each record's (r, v). Freezing appends; thawing and
// re-freezing strand dead bytes, which a compaction pass copies away
// once they outweigh the live bytes. Chunks are plain heap vectors —
// this tier trades CPU (one record write per freeze, one read per
// thaw) for memory, typically 2-10x less than the slab bytes the same
// flows would pin.
//
// Not thread-safe; owned and serialized by one ArenaSmbEngine.

#ifndef SMBCARD_FLOW_COLD_TIER_H_
#define SMBCARD_FLOW_COLD_TIER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace smb {

class ColdSketchTier {
 public:
  explicit ColdSketchTier(size_t num_bits);

  ColdSketchTier(ColdSketchTier&&) = default;
  ColdSketchTier& operator=(ColdSketchTier&&) = default;
  ColdSketchTier(const ColdSketchTier&) = delete;
  ColdSketchTier& operator=(const ColdSketchTier&) = delete;

  // One frozen flow: its (r, v) and its SMBZ1 slot record. The bytes
  // stay valid until the tier's next mutation.
  struct Record {
    uint32_t round = 0;
    uint32_t ones = 0;
    std::span<const uint8_t> bytes;
  };

  // Stores one flow's slot record, whose header holds (round, ones).
  // Re-freezing a flow replaces its record (the old bytes become dead
  // until compaction).
  void Freeze(uint64_t flow, uint32_t round, uint32_t ones,
              std::span<const uint8_t> record);

  // The flow's record; nullopt when the flow is not frozen.
  std::optional<Record> Find(uint64_t flow) const;

  bool Contains(uint64_t flow) const {
    return index_.find(flow) != index_.end();
  }

  // Hands the flow's record to fn(record) and then removes the flow,
  // with one index lookup; false (fn not called) when the flow is not
  // frozen. The record's bytes are valid only inside fn: the removal
  // may compact the log.
  template <typename Fn>
  bool Take(uint64_t flow, Fn&& fn) {
    const auto it = index_.find(flow);
    if (it == index_.end()) return false;
    fn(RecordOf(it->second));
    Remove(it);
    return true;
  }

  // Calls fn(flow, record) for every frozen flow in index bucket order:
  // the same for the same history of freezes and removals, but not key
  // order. For readers that need no order, such as estimate walks. Each
  // bucket's chain starts from the bucket array, so its loads do not
  // wait on the previous bucket's as a walk down the node list does
  // (3x faster at 500k frozen flows). It reads every bucket, and the
  // bucket array stays at the index's peak size. fn must not mutate the
  // tier.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const size_t buckets = index_.bucket_count();
    for (size_t b = 0; b < buckets; ++b) {
      for (auto it = index_.begin(b); it != index_.end(b); ++it) {
        fn(it->first, RecordOf(it->second));
      }
    }
  }

  // Calls fn(flow, record) for every frozen flow in ascending key order
  // — snapshot bytes and merge order depend on it — sorting the index
  // once. fn must not mutate the tier.
  template <typename Fn>
  void ForEachSorted(Fn&& fn) const {
    std::vector<std::pair<uint64_t, const Entry*>> sorted;
    sorted.reserve(index_.size());
    for (const auto& [flow, entry] : index_) sorted.emplace_back(flow, &entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [flow, entry] : sorted) fn(flow, RecordOf(*entry));
  }

  size_t NumFlows() const { return index_.size(); }
  // Bytes of live (indexed) records.
  size_t EncodedBytes() const { return live_bytes_; }
  // What the same flows would cost uncompressed: one materialized slot
  // plus its packed meta each, the FLW1 per-flow payload.
  size_t RawBytes() const {
    return index_.size() * (words_per_slot_ * 8 + 8);
  }
  // Heap footprint: chunk capacity + index nodes.
  size_t ResidentBytes() const;
  // Lifetime compaction passes (test/telemetry introspection).
  uint64_t compactions() const { return compactions_; }
  size_t num_bits() const { return num_bits_; }

 private:
  struct Entry {
    uint32_t chunk = 0;
    uint32_t offset = 0;
    uint32_t length = 0;
    // Header cache so estimates never touch the log.
    uint32_t round = 0;
    uint32_t ones = 0;
  };
  using Index = std::unordered_map<uint64_t, Entry>;

  Record RecordOf(const Entry& entry) const {
    return {entry.round, entry.ones,
            std::span<const uint8_t>(
                chunks_[entry.chunk].data() + entry.offset, entry.length)};
  }
  // Copies `record` to the end of the log and points `entry` at it.
  void Append(std::span<const uint8_t> record, Entry* entry);
  // Drops an indexed flow; its bytes become dead.
  void Remove(Index::iterator it);
  void MaybeCompact();

  size_t num_bits_;
  size_t words_per_slot_;
  std::vector<std::vector<uint8_t>> chunks_;
  Index index_;
  size_t live_bytes_ = 0;
  size_t dead_bytes_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace smb

#endif  // SMBCARD_FLOW_COLD_TIER_H_
