#include "flow/sharded_flow_monitor.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/macros.h"
#include "hash/batch_hash.h"
#include "hash/murmur3.h"

namespace smb {
namespace {

// Shard-routing salt; decorrelates ShardOf from the flow table's bucket
// hash and from the per-flow item seeds.
constexpr uint64_t kShardSalt = 0x8AD93F10B2C66E45ULL;

}  // namespace

ShardedFlowMonitor::ShardedFlowMonitor(const ArenaSmbEngine::Config& config,
                                       size_t num_shards) {
  SMB_CHECK_MSG(num_shards >= 1, "need at least one shard");
  // Even budget split; the first (total % shards) shards carry the
  // remainder byte each so shard budgets sum to the monitor budget.
  const size_t total_budget = config.tuning.memory_budget_bytes;
  shards_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    ArenaSmbEngine::Config shard_config = config;
    if (total_budget > 0) {
      shard_config.tuning.memory_budget_bytes =
          total_budget / num_shards + (k < total_budget % num_shards ? 1 : 0);
    }
    shards_.emplace_back(shard_config);
  }
}

size_t ShardedFlowMonitor::ShardOf(uint64_t flow) const {
  return static_cast<size_t>(
      FastRange64(Murmur3Fmix64(flow ^ kShardSalt), shards_.size()));
}

void ShardedFlowMonitor::RecordBatch(const Packet* packets, size_t n) {
  if (shards_.size() == 1) {
    shards_[0].RecordBatch(packets, n);
    return;
  }
  // Route into per-shard runs, flushing each run through the shard's
  // batch path once it fills a kernel block. Per-flow packet order is
  // preserved (a flow always lands in the same run), so results are
  // bit-identical to an unsharded RecordBatch.
  std::vector<std::vector<Packet>> runs(shards_.size());
  for (auto& run : runs) run.reserve(kBatchBlock);
  for (size_t i = 0; i < n; ++i) {
    const size_t k = ShardOf(packets[i].flow);
    runs[k].push_back(packets[i]);
    if (runs[k].size() == kBatchBlock) {
      shards_[k].RecordBatch(runs[k].data(), runs[k].size());
      runs[k].clear();
    }
  }
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (!runs[k].empty()) shards_[k].RecordBatch(runs[k].data(), runs[k].size());
  }
}

size_t ShardedFlowMonitor::NumFlows() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard.NumFlows();
  return total;
}

std::vector<uint64_t> ShardedFlowMonitor::FlowsOver(double threshold) const {
  std::vector<uint64_t> out;
  for (const auto& shard : shards_) {
    const std::vector<uint64_t> flows = shard.FlowsOver(threshold);
    out.insert(out.end(), flows.begin(), flows.end());
  }
  return out;
}

void ShardedFlowMonitor::ForEachFlow(
    const std::function<void(uint64_t, double)>& fn) const {
  for (const auto& shard : shards_) shard.ForEachFlow(fn);
}

size_t ShardedFlowMonitor::ResidentBytes() const {
  size_t total = sizeof(*this);
  for (const auto& shard : shards_) total += shard.ResidentBytes();
  return total;
}

ArenaSmbEngine::ArenaStats ShardedFlowMonitor::Stats() const {
  ArenaSmbEngine::ArenaStats total;
  const auto add_alloc = [](SlabAllocStats* into, const SlabAllocStats& s) {
    into->mapped_bytes += s.mapped_bytes;
    into->hugetlb_bytes += s.hugetlb_bytes;
    into->thp_advised_bytes += s.thp_advised_bytes;
  };
  for (const auto& shard : shards_) {
    const ArenaSmbEngine::ArenaStats s = shard.Stats();
    total.live_flows += s.live_flows;
    total.nursery_flows += s.nursery_flows;
    total.main_flows += s.main_flows;
    total.recorded_flows += s.recorded_flows;
    total.evicted_flows += s.evicted_flows;
    total.promoted_flows += s.promoted_flows;
    total.live_bytes += s.live_bytes;
    total.budget_bytes += s.budget_bytes;
    total.main_slots_high_water += s.main_slots_high_water;
    total.main_slots_free += s.main_slots_free;
    total.nursery_slots_high_water += s.nursery_slots_high_water;
    total.nursery_slots_free += s.nursery_slots_free;
    total.nursery_enabled = total.nursery_enabled || s.nursery_enabled;
    add_alloc(&total.main_alloc, s.main_alloc);
    add_alloc(&total.nursery_alloc, s.nursery_alloc);
  }
  return total;
}

}  // namespace smb
