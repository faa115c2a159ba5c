// Sharded mode (--threads/--shards): split the memory budget across K
// shard estimators and drive them through the concurrent shard pipeline.
// Lines are keyed by their 64-bit Murmur3 hash, so the stream's distinct
// line count is preserved; the estimate may differ slightly from the
// single mode's, which hashes lines with a different function.

#include <algorithm>
#include <span>

#include "hash/murmur3.h"
#include "parallel/shard_pipeline.h"
#include "parallel/sharded_estimator.h"
#include "smbcard_cli/runners.h"

namespace smb::cli {

int RunSharded(const CliOptions& options) {
  const size_t shards = options.shards > 0 ? options.shards : 8;
  const size_t threads = options.threads > 0 ? options.threads : 1;
  const auto kind = EstimatorKindFromName(options.algo);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", options.algo.c_str());
    return 2;
  }
  // The factory requires >= 128 bits per estimator; turn that contract
  // into a usage error instead of an SMB_CHECK abort.
  if (options.memory_bits / shards < 128) {
    std::fprintf(stderr,
                 "--memory %llu split across %zu shards leaves %llu bits "
                 "per shard; estimators need at least 128\n",
                 static_cast<unsigned long long>(options.memory_bits), shards,
                 static_cast<unsigned long long>(options.memory_bits / shards));
    return 2;
  }
  ShardedEstimator::Config config;
  config.shard_spec.kind = *kind;
  config.shard_spec.memory_bits = options.memory_bits / shards;
  config.shard_spec.design_cardinality =
      std::max<uint64_t>(options.design_cardinality / shards, 1);
  config.shard_spec.hash_seed = options.seed;
  config.num_shards = shards;
  config.shard_seed = options.seed;
  std::optional<ShardedEstimator> estimator;
  estimator.emplace(config);

  Checkpointer checkpoints;
  const bool opened = checkpoints.Open(
      options, *kind, [&](const std::vector<uint8_t>& payload) {
        auto resumed = ShardedEstimator::Deserialize(payload);
        if (!resumed.has_value() ||
            resumed->config().num_shards != config.num_shards ||
            resumed->config().shard_spec.kind != config.shard_spec.kind) {
          return false;
        }
        estimator.emplace(std::move(*resumed));
        return true;
      });
  if (!opened) return 2;

  ShardPipelineOptions pipeline_options;
  pipeline_options.num_producers = threads;
  pipeline_options.overload_policy = options.overload_policy;
  ShardPipeline<ShardedEstimator> pipeline(&*estimator, pipeline_options);

  // Input is recorded slice by slice as it arrives, so a live stream's
  // metrics move while it runs and memory holds one slice of keys; a
  // slice still partial at a stdin deadline (FeedAllInputs) is recorded
  // then. Periodic checkpoints happen between slices — the pipeline owns
  // the estimator while a slice runs, so the slice size bounds how stale
  // a checkpoint can get.
  constexpr size_t kSliceItems = size_t{1} << 16;
  std::vector<uint64_t> keys;
  keys.reserve(kSliceItems);
  ShardPipelineStats stats;
  const auto record_slice = [&] {
    stats += pipeline.Record(std::span<const uint64_t>(keys));
    keys.clear();
    if (checkpoints.Due()) checkpoints.Write(estimator->Serialize());
  };
  const uint64_t lines = FeedAllInputs(
      options,
      [&](const std::string& s) {
        keys.push_back(Murmur3_64(s));
        if (keys.size() == kSliceItems) record_slice();
      },
      [&] {
        if (!keys.empty()) record_slice();
      });
  if (!keys.empty()) record_slice();
  if (stats.items_dropped > 0) {
    std::fprintf(stderr,
                 "overload: dropped %llu of %llu items "
                 "(%llu degrade events); the estimate undercounts\n",
                 static_cast<unsigned long long>(stats.items_dropped),
                 static_cast<unsigned long long>(lines),
                 static_cast<unsigned long long>(stats.degrade_events));
  }

  const bool checkpoint_ok =
      !checkpoints.enabled() || checkpoints.Write(estimator->Serialize());
  std::printf("%.0f\n", estimator->Estimate());
  return checkpoint_ok ? 0 : 1;
}

}  // namespace smb::cli
