// ShardedFlowMonitor — K independent ArenaSmbEngine shards partitioned by
// flow key, the packet sink of the shard pipeline
// (parallel/shard_pipeline.h).
//
// Sharding preserves bit-identity with a single engine: every shard is
// constructed with the same base seed, a flow's per-flow hash seed
// depends only on (base_seed, flow), and ShardOf routes all packets of a
// flow to one shard — so each flow's (r, v, bitmap) evolves exactly as it
// would in one unsharded engine fed the same per-flow packet order.
// ShardOf uses an independent mix of the flow key (different from both
// the table's bucket hash and the per-flow item seed), so shard skew and
// probe behaviour stay uncorrelated.

#ifndef SMBCARD_FLOW_SHARDED_FLOW_MONITOR_H_
#define SMBCARD_FLOW_SHARDED_FLOW_MONITOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "flow/arena_smb_engine.h"
#include "stream/trace_gen.h"

namespace smb {

class ShardedFlowMonitor {
 public:
  // `config.tuning` is interpreted monitor-wide and translated per shard:
  // a memory budget is split evenly across shards (each shard evicts
  // against its slice).
  ShardedFlowMonitor(const ArenaSmbEngine::Config& config,
                     size_t num_shards);

  ShardedFlowMonitor(ShardedFlowMonitor&&) = default;
  ShardedFlowMonitor& operator=(ShardedFlowMonitor&&) = default;
  ShardedFlowMonitor(const ShardedFlowMonitor&) = delete;
  ShardedFlowMonitor& operator=(const ShardedFlowMonitor&) = delete;

  size_t num_shards() const { return shards_.size(); }
  size_t ShardOf(uint64_t flow) const;

  // Direct shard access; each shard must be touched by at most one
  // thread at a time.
  ArenaSmbEngine* shard(size_t k) { return &shards_[k]; }
  const ArenaSmbEngine* shard(size_t k) const { return &shards_[k]; }

  // ShardPipeline sink: packets route by flow, a drained run records
  // through shard k's keyed batch path, and the degrade gate ranks a
  // packet exactly as the flow's own sampling gate will.
  using Item = Packet;
  size_t ShardOf(const Packet& packet) const { return ShardOf(packet.flow); }
  void RecordShardRun(size_t k, std::span<const Packet> run) {
    shards_[k].RecordBatch(run);
  }
  int GateRank(size_t k, const Packet& packet) const {
    return shards_[k].GateRank(packet.flow, packet.element);
  }

  // Single-threaded convenience paths (route + record).
  void Record(uint64_t flow, uint64_t element) {
    shards_[ShardOf(flow)].Record(flow, element);
  }
  void RecordBatch(const Packet* packets, size_t n);

  double Query(uint64_t flow) const {
    return shards_[ShardOf(flow)].Query(flow);
  }
  size_t NumFlows() const;
  std::vector<uint64_t> FlowsOver(double threshold) const;
  void ForEachFlow(
      const std::function<void(uint64_t flow, double estimate)>& fn) const;
  size_t ResidentBytes() const;

  // Aggregate of every shard's lifetime/occupancy counters.
  ArenaSmbEngine::ArenaStats Stats() const;

 private:
  std::vector<ArenaSmbEngine> shards_;
};

}  // namespace smb

#endif  // SMBCARD_FLOW_SHARDED_FLOW_MONITOR_H_
