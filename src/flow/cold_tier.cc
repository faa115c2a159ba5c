#include "flow/cold_tier.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "trace/span_tracer.h"

namespace smb {
namespace {

// Append granularity of the record log. Large enough that chunk
// bookkeeping is noise, small enough that compaction moves at cache
// friendly strides.
constexpr size_t kChunkBytes = 64 * 1024;

}  // namespace

ColdSketchTier::ColdSketchTier(size_t num_bits)
    : num_bits_(num_bits), words_per_slot_((num_bits + 63) / 64) {
  SMB_CHECK_MSG(num_bits >= 8, "cold tier needs a real bitmap width");
}

void ColdSketchTier::Append(std::span<const uint8_t> record, Entry* entry) {
  if (chunks_.empty() ||
      chunks_.back().size() + record.size() >
          std::max(kChunkBytes, record.size())) {
    chunks_.emplace_back();
    chunks_.back().reserve(std::max(kChunkBytes, record.size()));
  }
  std::vector<uint8_t>& chunk = chunks_.back();
  entry->chunk = static_cast<uint32_t>(chunks_.size() - 1);
  entry->offset = static_cast<uint32_t>(chunk.size());
  entry->length = static_cast<uint32_t>(record.size());
  chunk.insert(chunk.end(), record.begin(), record.end());
}

void ColdSketchTier::Freeze(uint64_t flow, uint32_t round, uint32_t ones,
                            std::span<const uint8_t> record) {
  Entry& entry = index_[flow];
  // Replacement: the old record bytes rot in place until compaction.
  live_bytes_ -= entry.length;
  dead_bytes_ += entry.length;
  entry.round = round;
  entry.ones = ones;
  Append(record, &entry);
  live_bytes_ += record.size();
  MaybeCompact();
}

std::optional<ColdSketchTier::Record> ColdSketchTier::Find(
    uint64_t flow) const {
  const auto it = index_.find(flow);
  if (it == index_.end()) return std::nullopt;
  return RecordOf(it->second);
}

void ColdSketchTier::Remove(Index::iterator it) {
  live_bytes_ -= it->second.length;
  dead_bytes_ += it->second.length;
  index_.erase(it);
  MaybeCompact();
}

size_t ColdSketchTier::ResidentBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& chunk : chunks_) bytes += chunk.capacity();
  // Rough unordered_map node cost: entry + key + two pointers.
  bytes += index_.size() * (sizeof(Entry) + sizeof(uint64_t) + 16);
  return bytes;
}

void ColdSketchTier::MaybeCompact() {
  // Compact only once the dead bytes outweigh the live ones AND amount
  // to at least a chunk — small tiers never churn.
  if (dead_bytes_ < kChunkBytes || dead_bytes_ < live_bytes_) return;
  TRACE_SPAN("flow", "cold.compact");
  // Live records move into fresh chunks; each index entry is rewritten
  // in place, so no index node is reallocated.
  const std::vector<std::vector<uint8_t>> old_chunks = std::move(chunks_);
  chunks_.clear();
  for (auto& [flow, entry] : index_) {
    (void)flow;
    const std::vector<uint8_t>& chunk = old_chunks[entry.chunk];
    Append(std::span<const uint8_t>(chunk.data() + entry.offset,
                                    entry.length),
           &entry);
  }
  dead_bytes_ = 0;
  ++compactions_;
}

}  // namespace smb
