#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <span>
#include <thread>

#include "common/build_info.h"
#include "hash/batch_hash.h"
#include "hash/murmur3.h"
#include "simd/simd_dispatch.h"

namespace smb::bench {

namespace {

// "512M" / "2G" / "4096" -> bytes (binary suffixes); 0 on parse failure.
size_t ParseByteSize(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || value < 0) return 0;
  double scale = 1.0;
  switch (*end) {
    case 'k':
    case 'K':
      scale = 1024.0;
      break;
    case 'm':
    case 'M':
      scale = 1024.0 * 1024.0;
      break;
    case 'g':
    case 'G':
      scale = 1024.0 * 1024.0 * 1024.0;
      break;
    case '\0':
      break;
    default:
      return 0;
  }
  return static_cast<size_t>(value * scale);
}

}  // namespace

BenchScale ParseScale(int argc, char** argv) {
  BenchScale scale;
  const char* full_env = std::getenv("SMB_BENCH_FULL");
  if (full_env != nullptr && full_env[0] == '1') scale.full = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) scale.full = true;
    constexpr const char kJsonFlag[] = "--json=";
    if (std::strncmp(argv[i], kJsonFlag, sizeof(kJsonFlag) - 1) == 0) {
      scale.json_path = argv[i] + sizeof(kJsonFlag) - 1;
    }
    constexpr const char kSpeedupFlag[] = "--assert-batch-speedup=";
    if (std::strncmp(argv[i], kSpeedupFlag, sizeof(kSpeedupFlag) - 1) == 0) {
      scale.assert_batch_speedup =
          std::strtod(argv[i] + sizeof(kSpeedupFlag) - 1, nullptr);
    }
    constexpr const char kPlainSpeedupFlag[] = "--assert-speedup=";
    if (std::strncmp(argv[i], kPlainSpeedupFlag,
                     sizeof(kPlainSpeedupFlag) - 1) == 0) {
      scale.assert_speedup =
          std::strtod(argv[i] + sizeof(kPlainSpeedupFlag) - 1, nullptr);
    }
    constexpr const char kBytesDropFlag[] = "--assert-bytes-drop=";
    if (std::strncmp(argv[i], kBytesDropFlag, sizeof(kBytesDropFlag) - 1) ==
        0) {
      scale.assert_bytes_drop =
          std::strtod(argv[i] + sizeof(kBytesDropFlag) - 1, nullptr);
    }
    constexpr const char kWalkRatioFlag[] = "--assert-walk-ratio=";
    if (std::strncmp(argv[i], kWalkRatioFlag, sizeof(kWalkRatioFlag) - 1) ==
        0) {
      scale.assert_walk_ratio =
          std::strtod(argv[i] + sizeof(kWalkRatioFlag) - 1, nullptr);
    }
    constexpr const char kDenseRatioFlag[] = "--assert-dense-ratio=";
    if (std::strncmp(argv[i], kDenseRatioFlag,
                     sizeof(kDenseRatioFlag) - 1) == 0) {
      scale.assert_dense_ratio =
          std::strtod(argv[i] + sizeof(kDenseRatioFlag) - 1, nullptr);
    }
    constexpr const char kSparseRatioFlag[] = "--assert-sparse-ratio=";
    if (std::strncmp(argv[i], kSparseRatioFlag,
                     sizeof(kSparseRatioFlag) - 1) == 0) {
      scale.assert_sparse_ratio =
          std::strtod(argv[i] + sizeof(kSparseRatioFlag) - 1, nullptr);
    }
    constexpr const char kDecodeMbpsFlag[] = "--assert-decode-mbps=";
    if (std::strncmp(argv[i], kDecodeMbpsFlag,
                     sizeof(kDecodeMbpsFlag) - 1) == 0) {
      scale.assert_decode_mbps =
          std::strtod(argv[i] + sizeof(kDecodeMbpsFlag) - 1, nullptr);
    }
    constexpr const char kEncodeMbpsFlag[] = "--assert-encode-mbps=";
    if (std::strncmp(argv[i], kEncodeMbpsFlag,
                     sizeof(kEncodeMbpsFlag) - 1) == 0) {
      scale.assert_encode_mbps =
          std::strtod(argv[i] + sizeof(kEncodeMbpsFlag) - 1, nullptr);
    }
    constexpr const char kEncodeCrcRatioFlag[] = "--assert-encode-crc-ratio=";
    if (std::strncmp(argv[i], kEncodeCrcRatioFlag,
                     sizeof(kEncodeCrcRatioFlag) - 1) == 0) {
      scale.assert_encode_crc_ratio =
          std::strtod(argv[i] + sizeof(kEncodeCrcRatioFlag) - 1, nullptr);
    }
    constexpr const char kDirectEncodeRatioFlag[] =
        "--assert-direct-encode-ratio=";
    if (std::strncmp(argv[i], kDirectEncodeRatioFlag,
                     sizeof(kDirectEncodeRatioFlag) - 1) == 0) {
      scale.assert_direct_encode_ratio = std::strtod(
          argv[i] + sizeof(kDirectEncodeRatioFlag) - 1, nullptr);
    }
    constexpr const char kDirectDecodeRatioFlag[] =
        "--assert-direct-decode-ratio=";
    if (std::strncmp(argv[i], kDirectDecodeRatioFlag,
                     sizeof(kDirectDecodeRatioFlag) - 1) == 0) {
      scale.assert_direct_decode_ratio = std::strtod(
          argv[i] + sizeof(kDirectDecodeRatioFlag) - 1, nullptr);
    }
    constexpr const char kTraceOutFlag[] = "--trace-out=";
    if (std::strncmp(argv[i], kTraceOutFlag, sizeof(kTraceOutFlag) - 1) ==
        0) {
      scale.trace_out = argv[i] + sizeof(kTraceOutFlag) - 1;
    }
    constexpr const char kFlowsFlag[] = "--flows=";
    if (std::strncmp(argv[i], kFlowsFlag, sizeof(kFlowsFlag) - 1) == 0) {
      scale.flows = static_cast<size_t>(
          std::strtoull(argv[i] + sizeof(kFlowsFlag) - 1, nullptr, 10));
    }
    constexpr const char kZipfFlag[] = "--zipf=";
    if (std::strncmp(argv[i], kZipfFlag, sizeof(kZipfFlag) - 1) == 0) {
      scale.zipf = std::strtod(argv[i] + sizeof(kZipfFlag) - 1, nullptr);
    }
    constexpr const char kBudgetFlag[] = "--memory-budget=";
    if (std::strncmp(argv[i], kBudgetFlag, sizeof(kBudgetFlag) - 1) == 0) {
      scale.memory_budget_bytes =
          ParseByteSize(argv[i] + sizeof(kBudgetFlag) - 1);
    }
  }
  scale.runs = scale.full ? 100 : 10;
  if (const char* runs_env = std::getenv("SMB_BENCH_RUNS")) {
    const long parsed = std::strtol(runs_env, nullptr, 10);
    if (parsed > 0) scale.runs = static_cast<size_t>(parsed);
  }
  return scale;
}

uint64_t NthItem(uint64_t seed, uint64_t i) {
  return Murmur3Fmix64(seed * 0x9E3779B97F4A7C15ULL + i + 1);
}

Throughput MeasureRecording(CardinalityEstimator* estimator, uint64_t n,
                            uint64_t seed) {
  WallTimer timer;
  for (uint64_t i = 0; i < n; ++i) {
    estimator->Add(NthItem(seed, i));
  }
  Throughput out;
  out.ops = n;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Throughput MeasureRecordingBatched(CardinalityEstimator* estimator,
                                   uint64_t n, uint64_t seed) {
  // 4 kernel blocks per chunk: big enough to amortize the batch setup,
  // small enough to stay in L1 alongside the bitmap words it touches.
  constexpr size_t kChunk = 4 * kBatchBlock;
  std::vector<uint64_t> chunk(kChunk);
  WallTimer timer;
  for (uint64_t base = 0; base < n; base += kChunk) {
    const size_t len =
        static_cast<size_t>(n - base < kChunk ? n - base : kChunk);
    for (size_t i = 0; i < len; ++i) {
      chunk[i] = NthItem(seed, base + i);
    }
    estimator->AddBatch(std::span<const uint64_t>(chunk.data(), len));
  }
  Throughput out;
  out.ops = n;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

void WriteEnvironmentJson(JsonWriter* json) {
  json->BeginObject();
  json->Key("hardware_concurrency");
  json->Uint(std::thread::hardware_concurrency());
  json->Key("batch_dispatch");
  json->String(BatchDispatchTargetName());
  // Provenance: when and from what this artifact was produced, so a
  // BENCH_*.json pulled out of CI months later still identifies its
  // source revision and build configuration.
  char timestamp[32] = {0};
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    std::strftime(timestamp, sizeof(timestamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
  }
  json->Key("timestamp_utc");
  json->String(timestamp);
  json->Key("git_sha");
  json->String(SMB_BUILD_GIT_SHA);
  json->Key("build_type");
  json->String(SMB_BUILD_TYPE);
  json->EndObject();
}

bool WriteBenchJson(const std::string& path, const JsonWriter& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string& blob = json.str();
  const bool ok = std::fwrite(blob.data(), 1, blob.size(), f) == blob.size()
                  && std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (ok) std::printf("wrote %s\n", path.c_str());
  return ok;
}

Throughput MeasureQueries(const CardinalityEstimator* estimator,
                          uint64_t queries) {
  WallTimer timer;
  double sink = 0.0;
  for (uint64_t q = 0; q < queries; ++q) {
    sink += estimator->Estimate();
  }
  DoNotOptimize(sink);
  Throughput out;
  out.ops = queries;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

ErrorStats MeasureAccuracy(const EstimatorSpec& base_spec, uint64_t n,
                           size_t runs) {
  std::vector<double> estimates;
  std::vector<double> truths;
  estimates.reserve(runs);
  truths.reserve(runs);
  for (size_t run = 0; run < runs; ++run) {
    EstimatorSpec spec = base_spec;
    spec.hash_seed = Murmur3Fmix64(base_spec.hash_seed + run * 2 + 1);
    auto estimator = CreateEstimator(spec);
    const uint64_t stream_seed = Murmur3Fmix64(run * 2 + 2);
    for (uint64_t i = 0; i < n; ++i) {
      estimator->Add(NthItem(stream_seed, i));
    }
    estimates.push_back(estimator->Estimate());
    truths.push_back(static_cast<double>(n));
  }
  return ComputeErrorStats(estimates, truths);
}

std::vector<uint64_t> FigureCardinalityGrid(bool full) {
  if (full) {
    return {10000,  50000,  100000, 200000, 300000, 400000, 500000,
            600000, 700000, 800000, 900000, 1000000};
  }
  return {10000, 50000, 100000, 200000, 400000, 700000, 1000000};
}

std::string CountLabel(uint64_t n) {
  uint64_t v = n;
  int exp = 0;
  while (v >= 10 && v % 10 == 0) {
    v /= 10;
    ++exp;
  }
  if (v == 1 && exp >= 3) return "10^" + std::to_string(exp);
  return std::to_string(n);
}

}  // namespace smb::bench
