// ShardPipeline — the thread-per-shard concurrent recording driver, one
// template for every sharded sink (DESIGN.md §8).
//
// Topology: N producer threads × K shard consumer threads, connected by
// N·K single-producer/single-consumer rings (one per pair), so the hot
// path takes no locks anywhere:
//
//   producer p:  item -> sink->ShardOf(item) -> local run -> ring[p][k]
//   consumer k:  drain ring[0..N)[k] in order -> sink->RecordShardRun(k, run)
//
// Determinism: an SMB's final state depends on item order (the morph
// schedule does). Producers split the input into contiguous ranges and
// consumer k drains producer 0's ring to completion, then producer 1's,
// and so on, so every shard replays its items in exact input order: under
// the default kBlock overload policy a pipeline run is bit-identical to a
// single-threaded pass, for any producer count.
//
// A Sink is any sharded recorder with these members (no virtual
// interface; ShardedEstimator and ShardedFlowMonitor are the two):
//
//   using Item = ...;                          // trivially copyable
//   size_t num_shards() const;
//   size_t ShardOf(const Item&) const;
//   void RecordShardRun(size_t k, std::span<const Item> run);
//   int GateRank(size_t k, const Item&) const; // shard k's gate rank
//
// Each shard is touched by exactly one consumer thread, so the sink needs
// no synchronization of its own beyond RecordShardRun being safe for
// distinct shards concurrently.

#ifndef SMBCARD_PARALLEL_SHARD_PIPELINE_H_
#define SMBCARD_PARALLEL_SHARD_PIPELINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "hash/batch_hash.h"
#include "parallel/overload_policy.h"
#include "parallel/spsc_ring.h"
#include "telemetry/metrics.h"
#include "trace/span_tracer.h"

namespace smb {

struct ShardPipelineOptions {
  size_t num_producers = 1;
  // Items each (producer, shard) ring can buffer (rounded up to a power
  // of two). Bounds how far a producer can run ahead of its consumers.
  size_t ring_capacity = 1 << 14;
  // What a producer does when a ring stays full (overload_policy.h). The
  // default kBlock never drops and keeps recording bit-identical to a
  // sequential pass.
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
};

// What one Record call did under ingest pressure. Counted unconditionally
// (per-producer locals merged once per run, nothing on the hot path), so
// callers can report drops even in SMB_TELEMETRY=OFF builds.
struct ShardPipelineStats {
  // Items handed to shards (total minus items_dropped).
  uint64_t items_recorded = 0;
  uint64_t items_dropped = 0;
  uint64_t degrade_events = 0;
  uint64_t ring_full_stalls = 0;
  uint64_t ring_full_retries = 0;

  ShardPipelineStats& operator+=(const ShardPipelineStats& other);
};

namespace pipeline_internal {

// The sink-independent half of one Record run: the per-shard `recorder_*`
// instruments, the merged stats, the skew gauge and the overload flight
// event. Producers tally locally and merge once; consumers only bracket
// their applies.
class RunLedger {
 public:
  struct Tally {
    ShardPipelineStats stats;
    std::vector<uint64_t> routed;  // items pushed per shard
  };

  explicit RunLedger(size_t num_shards);

  Tally NewTally() const { return {{}, std::vector<uint64_t>(num_shards_)}; }
  // One producer hand-off: `requested` items offered to `shard`, `pushed`
  // of them reached its ring, `delta` is what the overload policy did.
  void CountHandOff(size_t shard, size_t requested, size_t pushed,
                    const OverloadCounters& delta, Tally* tally) const;
  void Merge(const Tally& tally);
  // Brackets one consumer apply for the drain latency histogram.
  uint64_t ApplyBegin() const {
    return telemetry::kEnabled ? telemetry::MonotonicNanos() : 0;
  }
  void ApplyEnd(uint64_t begin_ns) const;
  // Called once every thread has joined.
  ShardPipelineStats Finish(OverloadPolicy policy) const;

 private:
  struct ShardInstruments {
    telemetry::Counter* items_routed;
    telemetry::Counter* ring_full_stalls;
    telemetry::Counter* ring_full_retries;
    telemetry::Counter* items_dropped;
    telemetry::Counter* degrade_events;
  };

  size_t num_shards_;
  std::vector<ShardInstruments> shards_;
  telemetry::LatencyHistogram* batch_items_;
  telemetry::LatencyHistogram* apply_ns_;
  std::mutex mutex_;
  Tally total_;
};

}  // namespace pipeline_internal

template <typename Sink>
class ShardPipeline {
 public:
  using Item = typename Sink::Item;
  using Options = ShardPipelineOptions;

  // `sink` must outlive the pipeline and must not be touched by other
  // threads while a Record call is running.
  ShardPipeline(Sink* sink, const Options& options)
      : sink_(sink), options_(options) {
    SMB_CHECK_MSG(sink != nullptr, "ShardPipeline needs a sink");
    SMB_CHECK_MSG(options.num_producers >= 1, "need at least one producer");
  }

  ShardPipeline(const ShardPipeline&) = delete;
  ShardPipeline& operator=(const ShardPipeline&) = delete;

  // Records every element of `items`, split contiguously across the
  // producers. Blocks until every item is recorded or, under a
  // non-blocking overload policy, dropped (see the returned stats).
  ShardPipelineStats Record(std::span<const Item> items);

  const Options& options() const { return options_; }

 private:
  // Consumer-side drain granularity: a whole multiple of the SIMD batch
  // block, so every drained chunk feeds the sink's batch path full
  // blocks (no scalar tails except a run's last).
  static constexpr size_t kDrainChunk = 1024;
  static_assert(kDrainChunk % kBatchBlock == 0,
                "drain chunks must tile the batch kernel's block size");

  Sink* sink_;
  Options options_;
};

template <typename Sink>
ShardPipelineStats ShardPipeline<Sink>::Record(std::span<const Item> items) {
  if (items.empty()) return {};
  const size_t num_producers = options_.num_producers;
  const size_t num_shards = sink_->num_shards();
  OverloadParams params;
  params.policy = options_.overload_policy;
  pipeline_internal::RunLedger ledger(num_shards);

  // One SPSC ring per (producer, shard) pair. deque because the ring's
  // atomics make it immovable.
  std::deque<SpscRingOf<Item>> rings;
  for (size_t i = 0; i < num_producers * num_shards; ++i) {
    rings.emplace_back(options_.ring_capacity);
  }
  std::vector<std::atomic<bool>> producer_done(num_producers);
  for (auto& flag : producer_done) flag.store(false, std::memory_order_relaxed);

  auto producer_main = [&](size_t p) {
    // Contiguous range split: per shard, producer p's items are exactly
    // the input's items with indices in [begin, end), in order — the
    // ordered drain below relies on this.
    const size_t begin = items.size() * p / num_producers;
    const size_t end = items.size() * (p + 1) / num_producers;
    std::vector<std::vector<Item>> runs(num_shards);
    for (auto& run : runs) run.reserve(kBatchBlock);
    pipeline_internal::RunLedger::Tally tally = ledger.NewTally();
    auto hand_off = [&](size_t shard) {
      std::vector<Item>& run = runs[shard];
      const size_t requested = run.size();
      OverloadCounters delta;
      const size_t pushed = PushWithOverloadPolicy(
          &rings[p * num_shards + shard], &run, params,
          [&](const Item& item) { return sink_->GateRank(shard, item); },
          &delta);
      ledger.CountHandOff(shard, requested, pushed, delta, &tally);
      run.clear();
    };
    for (size_t i = begin; i < end; ++i) {
      const size_t shard = sink_->ShardOf(items[i]);
      runs[shard].push_back(items[i]);
      if (runs[shard].size() == kBatchBlock) hand_off(shard);
    }
    for (size_t shard = 0; shard < num_shards; ++shard) {
      if (!runs[shard].empty()) hand_off(shard);
    }
    ledger.Merge(tally);
    producer_done[p].store(true, std::memory_order_release);
  };

  auto consumer_main = [&](size_t k) {
    std::vector<Item> chunk(kDrainChunk);
    // Drain producers in index order. Producer p's ring is finished once
    // its done flag was up BEFORE a pop that came back empty.
    for (size_t p = 0; p < num_producers; ++p) {
      SpscRingOf<Item>& ring = rings[p * num_shards + k];
      while (true) {
        const bool done = producer_done[p].load(std::memory_order_acquire);
        const size_t n = ring.TryPop(chunk.data(), chunk.size());
        if (n > 0) {
          TRACE_SPAN("parallel", "pipeline.drain_chunk");
          const uint64_t begin_ns = ledger.ApplyBegin();
          sink_->RecordShardRun(k, std::span<const Item>(chunk.data(), n));
          ledger.ApplyEnd(begin_ns);
        } else if (done) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_shards + num_producers);
  for (size_t k = 0; k < num_shards; ++k) {
    threads.emplace_back(consumer_main, k);
  }
  for (size_t p = 0; p < num_producers; ++p) {
    threads.emplace_back(producer_main, p);
  }
  for (auto& thread : threads) thread.join();
  return ledger.Finish(options_.overload_policy);
}

}  // namespace smb

#endif  // SMBCARD_PARALLEL_SHARD_PIPELINE_H_
