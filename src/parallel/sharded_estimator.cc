#include "parallel/sharded_estimator.h"

#include <cstring>
#include <utility>

#include "common/bit_util.h"
#include "common/le_bytes.h"
#include "common/macros.h"
#include "core/self_morphing_bitmap.h"
#include "estimators/hyperloglog_pp.h"
#include "hash/geometric.h"
#include "hash/murmur3.h"
#include "telemetry/metrics_registry.h"

namespace smb {
namespace {

// Additive constant of the routing hash. Distinct from ItemHash128's
// constants, so routing and in-shard placement stay decorrelated even for
// pathological seed choices (see hash/murmur3.h on the fmix-offset
// independence argument).
constexpr uint64_t kRoutingSalt = 0x5348415244533144ULL;  // "SHARDS1D"

// Per-shard item-hash seeds: decorrelated from the base seed and from each
// other the same way the accuracy benches decorrelate their runs.
uint64_t DeriveShardSeed(uint64_t base_seed, size_t index) {
  return Murmur3Fmix64(base_seed +
                       (static_cast<uint64_t>(index) + 1) *
                           0xBF58476D1CE4E5B9ULL);
}

// Serialization layout (little-endian):
//   magic "SHD1" (4 bytes)
//   u64 kind, u64 memory_bits, u64 design_cardinality, u64 base hash_seed,
//   u64 shard_seed, u64 num_shards,
//   per shard: u64 snapshot length + snapshot bytes,
//   u64 checksum (Murmur3_64 of every preceding byte).
constexpr char kShardedMagic[4] = {'S', 'H', 'D', '1'};
constexpr uint64_t kShardedChecksumSeed = 0x53484431u;  // "SHD1"

std::optional<EstimatorKind> KindFromIndex(uint64_t index) {
  for (EstimatorKind kind : AllEstimatorKinds()) {
    if (static_cast<uint64_t>(kind) == index) return kind;
  }
  return std::nullopt;
}

}  // namespace

ShardedEstimator::ShardedEstimator(const Config& config)
    : config_(config),
      routing_key_(Murmur3Fmix64(config.shard_seed + kRoutingSalt)) {
  SMB_CHECK_MSG(config.num_shards >= 1,
                "ShardedEstimator needs at least one shard");
  shards_.reserve(config.num_shards);
  for (size_t k = 0; k < config.num_shards; ++k) {
    EstimatorSpec spec = config.shard_spec;
    spec.hash_seed = ShardSeed(k);
    shards_.push_back(CreateEstimator(spec));
  }
  telem_shard_items_.assign(config.num_shards, 0);
}

// Skew gauge: 1000 * (most loaded shard) / (mean shard load). 1000 means a
// perfectly balanced partition; the element-hash routing should keep this
// within a few percent of that for non-adversarial streams.
void ShardedEstimator::UpdateSkewGauge() const {
  uint64_t total = 0;
  uint64_t max_items = 0;
  for (uint64_t items : telem_shard_items_) {
    total += items;
    if (items > max_items) max_items = items;
  }
  if (total == 0) return;
  static telemetry::Gauge* const gauge =
      telemetry::MetricsRegistry::Global().GetGauge(
          "sharded_shard_skew_permille");
  gauge->Set(static_cast<int64_t>(
      max_items * 1000 * telem_shard_items_.size() / total));
}

uint64_t ShardedEstimator::ShardSeed(size_t index) const {
  return DeriveShardSeed(config_.shard_spec.hash_seed, index);
}

int ShardedEstimator::GateRank(size_t k, uint64_t item) const {
  return GeometricRank(ItemHash128(item, ShardSeed(k)).hi);
}

size_t ShardedEstimator::ShardOf(uint64_t item) const {
  return FastRange64(Murmur3Fmix64(item + routing_key_), shards_.size());
}

size_t ShardedEstimator::ShardOfBytes(std::string_view item) const {
  return FastRange64(Murmur3_64(item, routing_key_), shards_.size());
}

void ShardedEstimator::AddBatch(std::span<const uint64_t> items) {
  // Route into per-shard runs so each shard sees one contiguous block and
  // its AddBatch fast path gets full-sized blocks to hash ahead.
  constexpr size_t kRunCapacity = 256;
  if (scratch_.size() != shards_.size()) {
    scratch_.assign(shards_.size(), {});
    for (auto& run : scratch_) run.reserve(kRunCapacity);
  }
  for (uint64_t item : items) {
    const size_t routed = ShardOf(item);
    ++telem_shard_items_[routed];
    std::vector<uint64_t>& run = scratch_[routed];
    run.push_back(item);
    if (run.size() == kRunCapacity) {
      const size_t shard = static_cast<size_t>(&run - scratch_.data());
      shards_[shard]->AddBatch(run);
      run.clear();
    }
  }
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (!scratch_[k].empty()) {
      shards_[k]->AddBatch(scratch_[k]);
      scratch_[k].clear();
    }
  }
  UpdateSkewGauge();
}

double ShardedEstimator::Estimate() const {
  // Queries are rare relative to records; refresh the skew gauge here so
  // the Add()/AddBytes() item paths stay store-free.
  UpdateSkewGauge();
  double sum = 0.0;
  for (const auto& shard : shards_) sum += shard->Estimate();
  return sum;
}

size_t ShardedEstimator::MemoryBits() const {
  size_t bits = 0;
  for (const auto& shard : shards_) bits += shard->MemoryBits();
  return bits;
}

void ShardedEstimator::Reset() {
  for (auto& shard : shards_) shard->Reset();
  telem_shard_items_.assign(shards_.size(), 0);
}

std::optional<std::vector<uint8_t>> ShardedEstimator::Serialize() const {
  if (!KindSupportsSerialization(config_.shard_spec.kind)) {
    return std::nullopt;
  }
  std::vector<uint8_t> out(std::begin(kShardedMagic),
                           std::end(kShardedMagic));
  AppendU64(&out, static_cast<uint64_t>(config_.shard_spec.kind));
  AppendU64(&out, config_.shard_spec.memory_bits);
  AppendU64(&out, config_.shard_spec.design_cardinality);
  AppendU64(&out, config_.shard_spec.hash_seed);
  AppendU64(&out, config_.shard_seed);
  AppendU64(&out, shards_.size());
  for (const auto& shard : shards_) {
    const auto snapshot = SerializeEstimator(*shard);
    if (!snapshot.has_value()) return std::nullopt;
    AppendU64(&out, snapshot->size());
    out.insert(out.end(), snapshot->begin(), snapshot->end());
  }
  AppendU64(&out, Murmur3_128(out.data(), out.size(),
                              kShardedChecksumSeed).lo);
  return out;
}

std::optional<ShardedEstimator> ShardedEstimator::Deserialize(
    const std::vector<uint8_t>& bytes) {
  constexpr size_t kHeaderBytes = 4 + 6 * 8 + 8;  // magic + fields + checksum
  if (bytes.size() < kHeaderBytes ||
      std::memcmp(bytes.data(), kShardedMagic, 4) != 0) {
    return std::nullopt;
  }
  if (LoadU64(bytes.data() + bytes.size() - 8) !=
      Murmur3_128(bytes.data(), bytes.size() - 8, kShardedChecksumSeed).lo) {
    return std::nullopt;
  }
  size_t pos = 4;
  uint64_t kind_index, memory_bits, design_cardinality, base_seed, shard_seed,
      num_shards;
  if (!ReadU64(bytes, &pos, &kind_index) ||
      !ReadU64(bytes, &pos, &memory_bits) ||
      !ReadU64(bytes, &pos, &design_cardinality) ||
      !ReadU64(bytes, &pos, &base_seed) ||
      !ReadU64(bytes, &pos, &shard_seed) ||
      !ReadU64(bytes, &pos, &num_shards)) {
    return std::nullopt;
  }
  const auto kind = KindFromIndex(kind_index);
  if (!kind.has_value() || !KindSupportsSerialization(*kind)) {
    return std::nullopt;
  }
  if (num_shards < 1 || num_shards > bytes.size() / 8) return std::nullopt;
  if (memory_bits < 128) return std::nullopt;

  Config config;
  config.shard_spec.kind = *kind;
  config.shard_spec.memory_bits = memory_bits;
  config.shard_spec.design_cardinality = design_cardinality;
  config.shard_spec.hash_seed = base_seed;
  config.num_shards = num_shards;
  config.shard_seed = shard_seed;
  std::optional<ShardedEstimator> out;
  out.emplace(config);

  for (size_t k = 0; k < num_shards; ++k) {
    uint64_t length = 0;
    if (!ReadU64(bytes, &pos, &length) || length > bytes.size() - pos) {
      return std::nullopt;
    }
    std::vector<uint8_t> snapshot(bytes.begin() + static_cast<long>(pos),
                                  bytes.begin() +
                                      static_cast<long>(pos + length));
    pos += length;
    if (!out->ReplaceShard(k, snapshot)) return std::nullopt;
  }
  if (pos + 8 != bytes.size()) return std::nullopt;  // trailing garbage
  return out;
}

bool ShardedEstimator::ReplaceShard(size_t index,
                                    const std::vector<uint8_t>& bytes) {
  if (index >= shards_.size()) return false;
  std::unique_ptr<CardinalityEstimator> restored =
      DeserializeEstimator(config_.shard_spec.kind, bytes);
  if (restored == nullptr) return false;
  // The snapshot carries its own configuration; accept it only if it is
  // exactly what this estimator would have built at `index`.
  const CardinalityEstimator& current = *shards_[index];
  if (restored->hash_seed() != ShardSeed(index) ||
      restored->MemoryBits() != current.MemoryBits() ||
      restored->Name() != current.Name()) {
    return false;
  }
  // SMB's threshold is invisible to MemoryBits(); a snapshot with the same
  // m but a different T would silently change the morph schedule.
  if (const auto* restored_smb =
          dynamic_cast<const SelfMorphingBitmap*>(restored.get())) {
    const auto* current_smb =
        dynamic_cast<const SelfMorphingBitmap*>(&current);
    if (current_smb == nullptr ||
        restored_smb->num_bits() != current_smb->num_bits() ||
        restored_smb->threshold() != current_smb->threshold()) {
      return false;
    }
  }
  shards_[index] = std::move(restored);
  return true;
}

bool ShardedEstimator::CanMergeWith(const ShardedEstimator& other) const {
  return config_.shard_spec.kind == other.config_.shard_spec.kind &&
         config_.shard_spec.kind == EstimatorKind::kHllPp &&
         config_.shard_spec.memory_bits ==
             other.config_.shard_spec.memory_bits &&
         config_.shard_spec.hash_seed == other.config_.shard_spec.hash_seed &&
         config_.num_shards == other.config_.num_shards &&
         config_.shard_seed == other.config_.shard_seed;
}

bool ShardedEstimator::MergeFrom(const ShardedEstimator& other) {
  if (!CanMergeWith(other)) return false;
  for (size_t k = 0; k < shards_.size(); ++k) {
    auto* mine = dynamic_cast<HyperLogLogPP*>(shards_[k].get());
    const auto* theirs =
        dynamic_cast<const HyperLogLogPP*>(other.shards_[k].get());
    if (mine == nullptr || theirs == nullptr ||
        !mine->CanMergeWith(*theirs)) {
      return false;
    }
  }
  for (size_t k = 0; k < shards_.size(); ++k) {
    dynamic_cast<HyperLogLogPP*>(shards_[k].get())
        ->MergeFrom(*dynamic_cast<const HyperLogLogPP*>(other.shards_[k].get()));
  }
  return true;
}

}  // namespace smb
