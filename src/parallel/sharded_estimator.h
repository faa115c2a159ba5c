// ShardedEstimator — element-hash partitioning of one logical cardinality
// estimator across K independent shard estimators.
//
// A dedicated shard hash (seeded independently of every shard's item hash)
// maps each element to exactly one shard, so the K shards observe DISJOINT
// subsets of the stream's distinct elements and
//     total cardinality = sum of per-shard cardinalities
// holds exactly; Estimate() returns the sum of shard estimates. Duplicates
// of an element always route to the same shard, so duplicate-insensitivity
// is inherited from the shard estimator.
//
// This is the decomposition that makes SMB parallel despite being
// non-mergeable: shard states never need to be combined bit-wise, they are
// only ever summed at query time or shipped whole (Serialize/ReplaceShard)
// between processes. As a ShardPipeline sink (parallel/shard_pipeline.h)
// it gets one recording thread per shard; the class itself is
// single-threaded (external synchronization is the pipeline's job).

#ifndef SMBCARD_PARALLEL_SHARDED_ESTIMATOR_H_
#define SMBCARD_PARALLEL_SHARDED_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "estimators/estimator_factory.h"
#include "telemetry/telemetry_config.h"

namespace smb {

class ShardedEstimator {
 public:
  struct Config {
    // Per-shard estimator spec. memory_bits and design_cardinality are PER
    // SHARD (a stream of n distinct elements puts ~n/K on each shard).
    // spec.hash_seed is the base from which the K shard seeds are derived.
    EstimatorSpec shard_spec;
    size_t num_shards = 8;
    // Seed of the dedicated element-to-shard hash. Mixed with a constant
    // distinct from ItemHash128's, so even a value equal to a shard's item
    // hash seed cannot correlate routing with in-shard placement.
    uint64_t shard_seed = 0;
  };

  explicit ShardedEstimator(const Config& config);

  ShardedEstimator(const ShardedEstimator&) = delete;
  ShardedEstimator& operator=(const ShardedEstimator&) = delete;
  ShardedEstimator(ShardedEstimator&&) = default;
  ShardedEstimator& operator=(ShardedEstimator&&) = default;

  // Recording ---------------------------------------------------------------
  size_t ShardOf(uint64_t item) const;
  size_t ShardOfBytes(std::string_view item) const;
  void Add(uint64_t item) {
    const size_t shard = ShardOf(item);
#if SMB_TELEMETRY_ENABLED
    ++telem_shard_items_[shard];
#endif
    shards_[shard]->Add(item);
  }
  void AddBytes(std::string_view item) {
    const size_t shard = ShardOfBytes(item);
#if SMB_TELEMETRY_ENABLED
    ++telem_shard_items_[shard];
#endif
    shards_[shard]->AddBytes(item);
  }
  // Routes a block into per-shard runs, then records each run through the
  // shard's AddBatch fast path. Equivalent to an Add() loop.
  void AddBatch(std::span<const uint64_t> items);

  // Query -------------------------------------------------------------------
  // Sum of shard estimates (exact decomposition: shards hold disjoint
  // distinct-element subsets).
  double Estimate() const;
  size_t MemoryBits() const;
  void Reset();

  // Introspection -----------------------------------------------------------
  size_t num_shards() const { return shards_.size(); }
  const Config& config() const { return config_; }
  CardinalityEstimator* shard(size_t index) { return shards_[index].get(); }
  const CardinalityEstimator* shard(size_t index) const {
    return shards_[index].get();
  }
  // The item-hash seed shard `index` was constructed with.
  uint64_t ShardSeed(size_t index) const;

  // ShardPipeline sink ------------------------------------------------------
  using Item = uint64_t;
  // Records a routed run into shard k only (AddBatch fast path).
  void RecordShardRun(size_t k, std::span<const uint64_t> run) {
    shards_[k]->AddBatch(run);
  }
  // The geometric rank shard k's sampling gate computes for `item`:
  // GeometricRank(ItemHash128(item, ShardSeed(k)).hi).
  int GateRank(size_t k, uint64_t item) const;

  // Distribution ------------------------------------------------------------
  // Full-state snapshot (config header + every shard's snapshot). Only
  // available when the shard kind supports serialization (SMB, HLL++);
  // nullopt otherwise.
  std::optional<std::vector<uint8_t>> Serialize() const;
  // Reconstructs from Serialize() output; nullopt on malformed input,
  // unknown kind, or shard snapshots inconsistent with the header.
  static std::optional<ShardedEstimator> Deserialize(
      const std::vector<uint8_t>& bytes);

  // Installs a serialized shard state at `index` — the cross-process merge
  // primitive for non-mergeable shard kinds: worker i records the elements
  // of shard i, ships SerializeEstimator(shard) bytes, and the coordinator
  // reassembles the full estimator shard by shard. Rejects snapshots whose
  // configuration (size, seed) differs from what this estimator would have
  // built at `index`. Returns false and leaves the shard untouched on any
  // mismatch.
  bool ReplaceShard(size_t index, const std::vector<uint8_t>& bytes);

  // For shard kinds with a lossless union merge (HLL++): merges `other`
  // shard-by-shard. Returns false (and changes nothing) for non-mergeable
  // kinds such as SMB or when configurations differ.
  bool CanMergeWith(const ShardedEstimator& other) const;
  bool MergeFrom(const ShardedEstimator& other);

 private:
#if SMB_TELEMETRY_ENABLED
  // Publishes the shard-skew gauge from telem_shard_items_.
  void UpdateSkewGauge() const;
#endif

  Config config_;
  uint64_t routing_key_;  // mixed shard_seed actually used by ShardOf
  std::vector<std::unique_ptr<CardinalityEstimator>> shards_;
  // Per-shard routing runs reused across AddBatch calls (the class is
  // single-threaded by contract, so a member scratch is safe).
  std::vector<std::vector<uint64_t>> scratch_;
#if SMB_TELEMETRY_ENABLED
  // Items routed to each shard, feeding the sharded_shard_skew_permille
  // gauge (single-threaded by the class contract, so plain integers).
  std::vector<uint64_t> telem_shard_items_;
#endif
};

}  // namespace smb

#endif  // SMBCARD_PARALLEL_SHARDED_ESTIMATOR_H_
