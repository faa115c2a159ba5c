// BatchHashAndRank — the shared multi-lane entry point of the block
// recording pipeline.
//
// One call hashes a block of 64-bit item keys and derives, per item, the
// two values every bitmap-family estimator consumes:
//   lo[i]   — the position hash, ItemHash128(items[i], seed).lo
//             (feed to FastRange64 to pick a bit)
//   rank[i] — the geometric sampling rank, GeometricRank(hash.hi)
//             (SMB's gate value / MRB's component level)
//
// The heavy lifting is done by a SIMD kernel selected once per process by
// runtime CPU dispatch (simd/simd_dispatch.h): AVX2 or SSE2 on x86-64,
// NEON on AArch64, a SWAR scalar loop anywhere else. Every variant is
// bit-for-bit identical to calling ItemHash128 + GeometricRank per item,
// so batch callers stay exactly equivalent to their scalar Add() loops.
//
// Callers: SelfMorphingBitmap::AddBatch (gate-first lane compaction),
// LinearCounting::AddBatch (positions only), MultiResolutionBitmap::
// AddBatch (rank = component level), and — through those — the shard
// pipeline's drain path.

#ifndef SMBCARD_HASH_BATCH_HASH_H_
#define SMBCARD_HASH_BATCH_HASH_H_

#include <cstddef>
#include <cstdint>

namespace smb {

// Block size the batch recording paths process per kernel invocation.
// Large enough to amortize the dispatch load and fill the SIMD pipeline,
// small enough that per-block lane buffers (~7 KB total) live on the
// stack. It is the shard pipeline's producer hand-off size, and its drain
// chunk is a multiple of it.
inline constexpr size_t kBatchBlock = 256;

// Fills lo_out[0..n) and rank_out[0..n) as described above. `items` must
// not alias either output; outputs must hold at least n elements. Safe for
// any n (including 0); concurrent calls from multiple threads are fine.
void BatchHashAndRank(const uint64_t* items, size_t n, uint64_t seed,
                      uint64_t* lo_out, uint8_t* rank_out);

// Pre-folds a hash seed into the additive offset the keyed batch path
// consumes: ItemHash128(item, seed) == ItemHash128(item + offset, 0) with
// offset = seed * phi (mod 2^64), because that product is the only place
// the seed enters the hash. Lets one kernel call hash lanes that belong to
// many differently seeded estimators (the per-flow engine's batch path).
inline constexpr uint64_t ItemSeedOffset(uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ULL;
}

// Keyed counterpart of BatchHashAndRank: lane i is hashed with its own
// seed, supplied as seed_offsets[i] == ItemSeedOffset(seed_i). Outputs are
// bit-for-bit what BatchHashAndRank(items + i, 1, seed_i, ...) would
// produce per lane. Same aliasing/size rules as the unkeyed entry.
void BatchHashAndRankKeyed(const uint64_t* items,
                           const uint64_t* seed_offsets, size_t n,
                           uint64_t* lo_out, uint8_t* rank_out);

}  // namespace smb

#endif  // SMBCARD_HASH_BATCH_HASH_H_
