// ColdSketchTier — SMBZ1-compressed storage for evicted flows
// (DESIGN.md §17).
//
// Without this tier eviction is terminal: a flow reclaimed by the memory
// budget vanishes, and a later packet restarts it from scratch. The cold tier keeps the evicted
// state in-process instead, one SMBZ1 slot record per flow (mode byte,
// varint (r, v), compressed payload — codec/smbz1.h), so:
//
//   * a returning flow THAWS — its exact frozen state is decoded back
//     into a slab slot before the geometric gate runs, making the
//     engine's recorded bits identical to a never-evicted oracle;
//   * a query for a frozen flow answers from the slot header alone
//     (the estimate is a pure function of (r, v)), no decode needed;
//   * snapshots still cover frozen flows, because the tier can
//     materialize any record on demand.
//
// Storage is a chunked append-only byte log plus a flow -> record index
// that caches each record's (r, v). Freezing appends; thawing and
// re-freezing strand dead bytes, which a compaction pass copies away
// once they outweigh the live bytes. Chunks are plain heap vectors —
// this tier trades CPU (one slot decode per thaw) for memory, typically
// 2-10x less than the slab bytes the same flows would pin.
//
// Not thread-safe; owned and serialized by one ArenaSmbEngine.

#ifndef SMBCARD_FLOW_COLD_TIER_H_
#define SMBCARD_FLOW_COLD_TIER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace smb {

class ColdSketchTier {
 public:
  explicit ColdSketchTier(size_t num_bits);

  ColdSketchTier(ColdSketchTier&&) = default;
  ColdSketchTier& operator=(ColdSketchTier&&) = default;
  ColdSketchTier(const ColdSketchTier&) = delete;
  ColdSketchTier& operator=(const ColdSketchTier&) = delete;

  // Encodes one flow's state into the log. `words` must span exactly
  // (num_bits + 63) / 64 words. Re-freezing a flow replaces its record
  // (the old bytes become dead until compaction).
  void Freeze(uint64_t flow, uint32_t round, uint32_t ones,
              std::span<const uint64_t> words);

  // Decodes the flow's frozen state into `words` (fully overwritten)
  // and removes it from the tier. False when the flow is not frozen.
  bool Thaw(uint64_t flow, uint32_t* round, uint32_t* ones,
            std::span<uint64_t> words);

  // Decodes without removing — snapshot/iteration support.
  bool ReadState(uint64_t flow, uint32_t* round, uint32_t* ones,
                 std::span<uint64_t> words) const;

  // The cached (r, v) from the record header; no payload decode. This
  // is all an estimate needs.
  bool PeekMeta(uint64_t flow, uint32_t* round, uint32_t* ones) const;

  bool Contains(uint64_t flow) const {
    return index_.find(flow) != index_.end();
  }

  // Drops a frozen flow without decoding it.
  void Erase(uint64_t flow);

  // Frozen flow keys in ascending order — snapshot determinism.
  std::vector<uint64_t> SortedFlows() const;

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

  void AppendRecord(uint64_t flow, uint32_t round, uint32_t ones,
                    std::span<const uint8_t> record);
  void MaybeCompact();

  size_t num_bits_;
  size_t words_per_slot_;
  std::vector<std::vector<uint8_t>> chunks_;
  std::unordered_map<uint64_t, Entry> index_;
  size_t live_bytes_ = 0;
  size_t dead_bytes_ = 0;
  uint64_t compactions_ = 0;
  std::vector<uint8_t> scratch_;
};

}  // namespace smb

#endif  // SMBCARD_FLOW_COLD_TIER_H_
