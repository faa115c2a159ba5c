// Overhead guard: telemetry must never perturb the estimator.
//
// The comparison works via a golden constant: the bit pattern of an SMB
// estimate after a fixed 1M-item stream, fixed before the instruments
// existed. Any telemetry- or tracing-induced drift in recording behaviour
// flips the golden bits.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/self_morphing_bitmap.h"
#include "telemetry/metrics_registry.h"
#include "trace/span_tracer.h"

namespace smb {
namespace {

constexpr size_t kNumBits = 10000;
constexpr size_t kThreshold = 500;
constexpr uint64_t kSeed = 42;
constexpr uint64_t kStreamLength = 1000000;

// Bit pattern of Estimate() after the stream below, captured from a
// telemetry-OFF build. The ON build must reproduce it exactly.
constexpr uint64_t kGoldenEstimateBits = 0x412e37f0ae132238;

SelfMorphingBitmap MakeGuardSmb() {
  SelfMorphingBitmap::Config config;
  config.num_bits = kNumBits;
  config.threshold = kThreshold;
  config.hash_seed = kSeed;
  return SelfMorphingBitmap(config);
}

TEST(OverheadGuardTest, EstimateBitsMatchGoldenInEveryTelemetryMode) {
  SelfMorphingBitmap smb = MakeGuardSmb();
  for (uint64_t i = 0; i < kStreamLength; ++i) smb.Add(i);
  EXPECT_EQ(std::bit_cast<uint64_t>(smb.Estimate()), kGoldenEstimateBits)
      << "estimate drifted to " << smb.Estimate();
}

TEST(OverheadGuardTest, AddAndAddBatchStayBitIdentical) {
  SelfMorphingBitmap one_by_one = MakeGuardSmb();
  SelfMorphingBitmap batched = MakeGuardSmb();
  for (uint64_t i = 0; i < kStreamLength; ++i) one_by_one.Add(i);
  std::vector<uint64_t> block(4096);
  for (uint64_t base = 0; base < kStreamLength; base += block.size()) {
    const size_t len = static_cast<size_t>(
        kStreamLength - base < block.size() ? kStreamLength - base
                                            : block.size());
    for (size_t i = 0; i < len; ++i) block[i] = base + i;
    batched.AddBatch(std::span<const uint64_t>(block.data(), len));
  }
  EXPECT_EQ(one_by_one.round(), batched.round());
  EXPECT_EQ(one_by_one.ones_in_round(), batched.ones_in_round());
  EXPECT_EQ(std::bit_cast<uint64_t>(one_by_one.Estimate()),
            std::bit_cast<uint64_t>(batched.Estimate()));
  EXPECT_EQ(one_by_one.Serialize(), batched.Serialize());
}

// The same golden discipline for the span tracer: an active capture must
// not perturb recording either. AddBatch drives the instrumented batch
// pipeline (golden-equivalent to Add by the test above) while its spans
// record.
TEST(OverheadGuardTest, EstimateBitsMatchGoldenWhileSpanCaptureActive) {
  trace::StartCapture();
  SelfMorphingBitmap smb = MakeGuardSmb();
  std::vector<uint64_t> block(4096);
  for (uint64_t base = 0; base < kStreamLength; base += block.size()) {
    const size_t len = static_cast<size_t>(
        kStreamLength - base < block.size() ? kStreamLength - base
                                            : block.size());
    for (size_t i = 0; i < len; ++i) block[i] = base + i;
    smb.AddBatch(std::span<const uint64_t>(block.data(), len));
  }
  const uint64_t bits = std::bit_cast<uint64_t>(smb.Estimate());
  trace::StopCapture();
  EXPECT_EQ(bits, kGoldenEstimateBits)
      << "estimate drifted under active span capture to " << smb.Estimate();
  // And the capture was real, not accidentally idle.
  EXPECT_GT(trace::CaptureStats().total_recorded, 0u);
}

// The instrumentation must also be *accurate*: gate accepts + rejects
// account for every item offered, and the morph counter matches the round
// the bitmap ended up in. Delta-based so other tests' traffic in this
// process cannot interfere.
TEST(OverheadGuardTest, CountersAccountForEveryItem) {
  auto& registry = telemetry::MetricsRegistry::Global();
  const uint64_t accepts0 =
      registry.GetCounter("smb_gate_accepts_total")->Value();
  const uint64_t rejects0 =
      registry.GetCounter("smb_gate_rejects_total")->Value();
  const uint64_t morphs0 = registry.GetCounter("smb_morphs_total")->Value();

  SelfMorphingBitmap smb = MakeGuardSmb();
  for (uint64_t i = 0; i < kStreamLength; ++i) smb.Add(i);

  const uint64_t accepts =
      registry.GetCounter("smb_gate_accepts_total")->Value() - accepts0;
  const uint64_t rejects =
      registry.GetCounter("smb_gate_rejects_total")->Value() - rejects0;
  const uint64_t morphs =
      registry.GetCounter("smb_morphs_total")->Value() - morphs0;
  EXPECT_EQ(accepts + rejects, kStreamLength);
  EXPECT_EQ(morphs, smb.round());
  EXPECT_EQ(smb.telemetry_items_seen(), kStreamLength);
  // In round r the gate samples at 2^-r, so rejects only exist past round 0.
  if (smb.round() > 0) {
    EXPECT_GT(rejects, 0u);
  }
}

TEST(OverheadGuardTest, BatchedCountersMatchUnbatchedCounters) {
  auto& registry = telemetry::MetricsRegistry::Global();
  auto deltas = [&](auto&& feed) {
    const uint64_t accepts0 =
        registry.GetCounter("smb_gate_accepts_total")->Value();
    const uint64_t duplicates0 =
        registry.GetCounter("smb_duplicate_bits_total")->Value();
    feed();
    return std::pair<uint64_t, uint64_t>(
        registry.GetCounter("smb_gate_accepts_total")->Value() - accepts0,
        registry.GetCounter("smb_duplicate_bits_total")->Value() -
            duplicates0);
  };
  const auto unbatched = deltas([] {
    SelfMorphingBitmap smb = MakeGuardSmb();
    for (uint64_t i = 0; i < 100000; ++i) smb.Add(i);
  });
  const auto batched = deltas([] {
    SelfMorphingBitmap smb = MakeGuardSmb();
    std::vector<uint64_t> block(1024);
    for (uint64_t base = 0; base < 100000; base += block.size()) {
      const size_t len = static_cast<size_t>(
          100000 - base < block.size() ? 100000 - base : block.size());
      for (size_t i = 0; i < len; ++i) block[i] = base + i;
      smb.AddBatch(std::span<const uint64_t>(block.data(), len));
    }
  });
  EXPECT_EQ(unbatched, batched);
}

}  // namespace
}  // namespace smb
