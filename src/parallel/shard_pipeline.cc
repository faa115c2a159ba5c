#include "parallel/shard_pipeline.h"

#include <algorithm>
#include <string>

#include "telemetry/metrics_registry.h"
#include "trace/flight_recorder.h"

namespace smb {

ShardPipelineStats& ShardPipelineStats::operator+=(
    const ShardPipelineStats& other) {
  items_recorded += other.items_recorded;
  items_dropped += other.items_dropped;
  degrade_events += other.degrade_events;
  ring_full_stalls += other.ring_full_stalls;
  ring_full_retries += other.ring_full_retries;
  return *this;
}

namespace pipeline_internal {

// Registration is idempotent, so repeat Record calls keep accumulating
// into the same instruments.
RunLedger::RunLedger(size_t num_shards)
    : num_shards_(num_shards), total_(NewTally()) {
  auto& registry = telemetry::MetricsRegistry::Global();
  shards_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    const telemetry::Labels labels = {{"shard", std::to_string(k)}};
    shards_.push_back(
        {registry.GetCounter("recorder_items_routed_total", labels),
         registry.GetCounter("recorder_ring_full_stalls_total", labels),
         registry.GetCounter("recorder_ring_full_retries_total", labels),
         registry.GetCounter("recorder_items_dropped_total", labels),
         registry.GetCounter("recorder_degrade_events_total", labels)});
  }
  batch_items_ = registry.GetHistogram("recorder_batch_items");
  apply_ns_ = registry.GetHistogram("recorder_add_batch_ns");
}

void RunLedger::CountHandOff(size_t shard, size_t requested, size_t pushed,
                             const OverloadCounters& delta,
                             Tally* tally) const {
  tally->stats.items_recorded += pushed;
  tally->stats.items_dropped += delta.items_dropped;
  tally->stats.degrade_events += delta.degrade_events;
  tally->stats.ring_full_stalls += delta.ring_full_stalls;
  tally->stats.ring_full_retries += delta.ring_full_retries;
  tally->routed[shard] += pushed;
  const ShardInstruments& ins = shards_[shard];
  ins.items_routed->Add(pushed);
  if (delta.ring_full_stalls > 0) {
    ins.ring_full_stalls->Add(delta.ring_full_stalls);
  }
  if (delta.ring_full_retries > 0) {
    ins.ring_full_retries->Add(delta.ring_full_retries);
  }
  if (delta.items_dropped > 0) ins.items_dropped->Add(delta.items_dropped);
  if (delta.degrade_events > 0) {
    ins.degrade_events->Add(delta.degrade_events);
  }
  batch_items_->Record(requested);
}

void RunLedger::Merge(const Tally& tally) {
  std::lock_guard<std::mutex> lock(mutex_);
  total_.stats += tally.stats;
  for (size_t k = 0; k < num_shards_; ++k) total_.routed[k] += tally.routed[k];
}

void RunLedger::ApplyEnd(uint64_t begin_ns) const {
  apply_ns_->Record(trace::TraceNowNanos() - begin_ns);
}

ShardPipelineStats RunLedger::Finish(OverloadPolicy policy) const {
  const ShardPipelineStats& stats = total_.stats;
  // Black-box record of an overloaded run: the policy that was active and
  // what it cost. One event per run, only when the policy actually acted.
  if (stats.items_dropped > 0 || stats.degrade_events > 0 ||
      stats.ring_full_stalls > 0) {
    trace::FlightRecorder::Global().Record(
        trace::FlightEventType::kOverloadAction,
        static_cast<uint64_t>(policy), stats.items_dropped,
        stats.degrade_events);
  }
  // The pipeline routes items straight into shards, bypassing the sink's
  // own routing tallies, so it publishes the skew gauge itself: 1000 *
  // (most loaded shard) / (mean shard load).
  uint64_t routed_sum = 0;
  uint64_t routed_max = 0;
  for (const uint64_t n : total_.routed) {
    routed_sum += n;
    routed_max = std::max(routed_max, n);
  }
  if (routed_sum > 0) {
    telemetry::MetricsRegistry::Global()
        .GetGauge("sharded_shard_skew_permille")
        ->Set(static_cast<int64_t>(routed_max * 1000 * num_shards_ /
                                   routed_sum));
  }
  return stats;
}

}  // namespace pipeline_internal
}  // namespace smb
