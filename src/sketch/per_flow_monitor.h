// Per-flow cardinality monitoring — the deployment model of the paper's
// introduction and Section V-F: one estimator instance per data stream
// (flow), allocated lazily on the flow's first packet, each with an
// independently evolving sampling probability.
//
// Two interchangeable engines sit behind this API:
//   kArena     — flow/arena_smb_engine.h: flat flow table + SoA morph
//                metadata + contiguous bitmap slab, with a keyed SIMD
//                batch path. The default whenever the spec is an SMB
//                whose (m, T) fits the packed 32-bit metadata.
//   kLegacyMap — the original unordered_map<flow, unique_ptr<estimator>>;
//                any estimator kind, any geometry.
// Both produce bit-identical estimates for the same spec and stream (the
// arena engine derives per-flow seeds exactly the way this class always
// has); the equivalence suite pins this.

#ifndef SMBCARD_SKETCH_PER_FLOW_MONITOR_H_
#define SMBCARD_SKETCH_PER_FLOW_MONITOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/self_morphing_bitmap.h"
#include "estimators/estimator_factory.h"
#include "flow/arena_smb_engine.h"
#include "stream/trace_gen.h"

namespace smb {

class PerFlowMonitor {
 public:
  enum class Engine {
    // Arena when the spec supports it, legacy map otherwise.
    kAuto,
    kLegacyMap,
    kArena,  // requires ArenaSmbEngine::ConfigForSpec(spec) to succeed
  };

  // Every flow's estimator is created from `spec` (same memory budget and
  // design cardinality), with a per-flow-decorrelated hash seed.
  // `tuning` configures the arena engine's memory budget/eviction,
  // position lists and page placement (flow/arena_smb_engine.h); it never
  // changes estimates and is ignored by the legacy map engine.
  explicit PerFlowMonitor(const EstimatorSpec& spec,
                          Engine engine = Engine::kAuto,
                          const ArenaTuning& tuning = {});

  PerFlowMonitor(const PerFlowMonitor&) = delete;
  PerFlowMonitor& operator=(const PerFlowMonitor&) = delete;
  PerFlowMonitor(PerFlowMonitor&&) = default;
  PerFlowMonitor& operator=(PerFlowMonitor&&) = default;

  // Records one (flow, element) observation.
  void Record(uint64_t flow, uint64_t element);

  void RecordPacket(const Packet& packet) {
    Record(packet.flow, packet.element);
  }

  // Batch recording; on the arena engine this is the prefetch-pipelined
  // keyed SIMD path. Bit-identical to per-packet Record() in order.
  void RecordBatch(const Packet* packets, size_t n);
  void RecordBatch(std::span<const Packet> packets) {
    RecordBatch(packets.data(), packets.size());
  }

  // Estimated spread of `flow`; 0 for never-seen flows.
  double Query(uint64_t flow) const;

  size_t NumFlows() const;

  // True memory footprint of the monitor in bits: sketch storage PLUS the
  // container machinery holding it (hash-table buckets, per-flow heap
  // nodes and allocator overhead for the legacy map; flow table, metadata
  // arrays and slab for the arena). Equals 8 * ResidentBytes(). The old
  // implementation summed estimator MemoryBits() only — that figure is
  // now SketchBits().
  size_t TotalMemoryBits() const { return ResidentBytes() * 8; }

  // Logical sketch bits only (sum of per-flow estimator MemoryBits()).
  size_t SketchBits() const;

  // Best-effort resident byte count of the whole monitor. Exact for the
  // arena engine's owned arrays; for the legacy map the per-node and
  // per-object allocator overheads are modeled constants.
  size_t ResidentBytes() const;

  // Flows whose current estimate is >= threshold (the scan/DDoS detection
  // primitive).
  std::vector<uint64_t> FlowsOver(double threshold) const;

  // Calls fn(flow, estimate) for every tracked flow. Iteration order is
  // unspecified. This replaces the old mutable-internals table() accessor.
  void ForEachFlow(
      const std::function<void(uint64_t flow, double estimate)>& fn) const;

  // Deep snapshot of one flow's sketch as a standalone SelfMorphingBitmap
  // (the flow's decorrelated hash seed baked in); nullopt for never-seen
  // flows. Requires an SMB spec. The arena and legacy engines produce
  // identical snapshots for the same spec and stream, so snapshots taken
  // from different engines (or loaded from different snapshot formats)
  // remain merge-compatible.
  std::optional<SelfMorphingBitmap> SnapshotFlowSmb(uint64_t flow) const;

  // Two monitors can merge when they share the full spec (kind, memory,
  // design cardinality, hash seed) and run the same engine.
  bool CanMergeWith(const PerFlowMonitor& other) const;

  // Morph-aware approximate union merge (DESIGN.md §13): afterwards this
  // monitor tracks, for every flow either monitor had seen, the merge of
  // the two per-flow sketches — flows unknown here are adopted verbatim.
  // Requires CanMergeWith(other) and an SMB spec.
  void MergeFrom(const PerFlowMonitor& other);

  const EstimatorSpec& spec() const { return spec_; }

  // The engine actually in use (never kAuto).
  Engine engine() const { return engine_; }

  // The backing arena engine when engine() == kArena (for read-only
  // inspection, e.g. the health probe); nullptr on the legacy map.
  const ArenaSmbEngine* arena_engine() const {
    return arena_.has_value() ? &*arena_ : nullptr;
  }

 private:
  EstimatorSpec spec_;
  Engine engine_ = Engine::kLegacyMap;
  std::optional<ArenaSmbEngine> arena_;
  std::unordered_map<uint64_t, std::unique_ptr<CardinalityEstimator>> table_;
};

}  // namespace smb

#endif  // SMBCARD_SKETCH_PER_FLOW_MONITOR_H_
