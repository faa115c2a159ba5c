// google-benchmark micro suite: per-operation record and query costs of
// every estimator, plus the raw hash primitives. Complements the
// table-level benches with statistically managed ns/op numbers.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/self_morphing_bitmap.h"
#include "estimators/estimator_factory.h"
#include "hash/batch_hash.h"
#include "hash/murmur3.h"
#include "hash/xxhash64.h"
#include "io/crc32c.h"
#include "simd/simd_dispatch.h"

namespace smb::bench {
namespace {

constexpr size_t kMemory = 10000;

std::unique_ptr<CardinalityEstimator> MakeLoaded(EstimatorKind kind,
                                                 uint64_t preload) {
  EstimatorSpec spec;
  spec.kind = kind;
  spec.memory_bits = kMemory;
  spec.design_cardinality = 10000000;
  spec.hash_seed = 21;
  auto estimator = CreateEstimator(spec);
  for (uint64_t i = 0; i < preload; ++i) {
    estimator->Add(NthItem(5, i));
  }
  return estimator;
}

void BM_Record(benchmark::State& state) {
  const auto kind = static_cast<EstimatorKind>(state.range(0));
  auto estimator = MakeLoaded(kind, 1000000);
  uint64_t i = 0;
  for (auto _ : state) {
    estimator->Add(NthItem(7, i++));
  }
  state.SetLabel(std::string(EstimatorKindName(kind)) +
                 " (preloaded n=10^6)");
}

void BM_Query(benchmark::State& state) {
  const auto kind = static_cast<EstimatorKind>(state.range(0));
  auto estimator = MakeLoaded(kind, 100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator->Estimate());
  }
  state.SetLabel(std::string(EstimatorKindName(kind)));
}

void RegisterPerKind() {
  for (EstimatorKind kind : AllEstimatorKinds()) {
    const std::string name(EstimatorKindName(kind));
    benchmark::RegisterBenchmark(("BM_Record/" + name).c_str(), BM_Record)
        ->Arg(static_cast<int>(kind));
    benchmark::RegisterBenchmark(("BM_Query/" + name).c_str(), BM_Query)
        ->Arg(static_cast<int>(kind));
  }
}

// Per-kernel cost of the batch hash-and-rank primitive itself: one block
// of items through the forced kernel, reported as items/second.
void BM_BatchHashAndRank(benchmark::State& state) {
  const auto kind = static_cast<BatchKernelKind>(state.range(0));
  ForceBatchKernelForTesting(kind);
  std::vector<uint64_t> items(kBatchBlock);
  for (size_t i = 0; i < items.size(); ++i) items[i] = NthItem(3, i);
  std::vector<uint64_t> lo(items.size());
  std::vector<uint8_t> rank(items.size());
  for (auto _ : state) {
    BatchHashAndRank(items.data(), items.size(), 21, lo.data(), rank.data());
    benchmark::DoNotOptimize(lo.data());
    benchmark::DoNotOptimize(rank.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(items.size()));
  ResetBatchKernelDispatch();
}

// End-to-end SMB AddBatch with each compiled kernel forced, preloaded to
// n=10^6 so the geometric gate rejects most lanes (the regime where the
// gate-first compaction pays).
void BM_SmbAddBatch(benchmark::State& state) {
  const auto kind = static_cast<BatchKernelKind>(state.range(0));
  ForceBatchKernelForTesting(kind);
  auto estimator = MakeLoaded(EstimatorKind::kSmb, 1000000);
  std::vector<uint64_t> chunk(4 * kBatchBlock);
  uint64_t next = 0;
  for (auto _ : state) {
    for (auto& item : chunk) item = NthItem(7, next++);
    estimator->AddBatch(chunk);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(chunk.size()));
  state.SetLabel("kernel=" + std::string(BatchKernelKindName(kind)) +
                 " (preloaded n=10^6)");
  ResetBatchKernelDispatch();
}

void RegisterPerKernel() {
  for (BatchKernelKind kind : RunnableBatchKernels()) {
    const std::string name(BatchKernelKindName(kind));
    benchmark::RegisterBenchmark(("BM_BatchHashAndRank/" + name).c_str(),
                                 BM_BatchHashAndRank)
        ->Arg(static_cast<int>(kind));
    benchmark::RegisterBenchmark(("BM_SmbAddBatch/" + name).c_str(),
                                 BM_SmbAddBatch)
        ->Arg(static_cast<int>(kind));
  }
}

void BM_Murmur3U64(benchmark::State& state) {
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Murmur3_128_U64(i++, 3));
  }
}
BENCHMARK(BM_Murmur3U64);

void BM_Murmur3String128(benchmark::State& state) {
  const std::string payload(128, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Murmur3_128(payload, 3));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_Murmur3String128);

void BM_XxHash64String128(benchmark::State& state) {
  const std::string payload(128, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(XxHash64(payload, 3));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_XxHash64String128);

// CRC-32C per kernel (the portable table, and SSE4.2 where the CPU has
// it) over a frame-sized, a page-sized and a chunk-sized buffer,
// reported as bytes/second.
void BM_Crc32c(benchmark::State& state, io::Crc32cFn kernel) {
  std::vector<uint8_t> bytes(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(NthItem(9, i));
  }
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = kernel(bytes.data(), bytes.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

void RegisterCrc32cKernels() {
  std::vector<std::pair<std::string, io::Crc32cFn>> kernels = {
      {"table", &io::Crc32cTable}};
  if (io::Crc32cSse42Kernel() != nullptr) {
    kernels.emplace_back("sse4.2", io::Crc32cSse42Kernel());
  }
  for (const auto& [name, kernel] : kernels) {
    benchmark::RegisterBenchmark(("BM_Crc32c/" + name).c_str(), BM_Crc32c,
                                 kernel)
        ->Arg(64)
        ->Arg(4 << 10)
        ->Arg(64 << 10);
  }
}

}  // namespace
}  // namespace smb::bench

int main(int argc, char** argv) {
  // Environment blob up front so saved logs carry the dispatch context
  // next to the numbers (google-benchmark owns the rest of the output).
  {
    smb::JsonWriter env(smb::JsonWriter::kCompact);
    smb::bench::WriteEnvironmentJson(&env);
    std::printf("environment %s\n", env.str().c_str());
  }
  smb::bench::RegisterPerKind();
  smb::bench::RegisterPerKernel();
  smb::bench::RegisterCrc32cKernels();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
