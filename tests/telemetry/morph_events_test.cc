// Morph events in the flight recorder. The paper's accuracy analysis
// hinges on the morph firing exactly when v == T; these tests pin the
// kMorph events (a = instance id, b = round entered, c = items seen) to
// that contract: an SMB in round r has emitted exactly r events, rounds
// 1, 2, 3... in order, and items_seen / timestamps are non-decreasing.
// (items_seen is block-granular under AddBatch, so non-decreasing is the
// guarantee, not strictly increasing.)

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/self_morphing_bitmap.h"
#include "trace/flight_recorder.h"

namespace smb {
namespace {

using trace::FlightEvent;
using trace::FlightEventType;
using trace::FlightRecorder;

SelfMorphingBitmap::Config SmallConfig() {
  SelfMorphingBitmap::Config config;
  config.num_bits = 1024;
  config.threshold = 64;
  config.hash_seed = 7;
  return config;
}

// This instance's kMorph events (oldest first) out of the global ring.
std::vector<FlightEvent> EventsFor(const SelfMorphingBitmap& smb) {
  std::vector<FlightEvent> mine;
  for (const FlightEvent& event : FlightRecorder::Global().Events()) {
    if (event.type == FlightEventType::kMorph &&
        event.a == smb.telemetry_instance_id()) {
      mine.push_back(event);
    }
  }
  return mine;
}

void CheckInvariants(const SelfMorphingBitmap& smb) {
  const std::vector<FlightEvent> events = EventsFor(smb);
  // Exactly r events once the bitmap is in round r.
  ASSERT_EQ(events.size(), smb.round());
  uint64_t prev_items = 0;
  uint64_t prev_ns = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& event = events[i];
    EXPECT_EQ(event.b, i + 1);
    EXPECT_GE(event.c, prev_items);
    EXPECT_LE(event.c, smb.telemetry_items_seen());
    EXPECT_GE(event.timestamp_ns, prev_ns);
    prev_items = event.c;
    prev_ns = event.timestamp_ns;
  }
}

TEST(MorphTracerTest, InstanceIdsAreUniqueAndNonZero) {
  SelfMorphingBitmap first(SmallConfig());
  SelfMorphingBitmap second(SmallConfig());
  EXPECT_GE(first.telemetry_instance_id(), 1u);
  EXPECT_GT(second.telemetry_instance_id(), first.telemetry_instance_id());
}

TEST(MorphTracerTest, SmbAddEmitsOneEventPerMorph) {
  FlightRecorder::Global().Clear();
  SelfMorphingBitmap smb(SmallConfig());
  for (uint64_t i = 0; i < 20000; ++i) {
    const size_t round = smb.round();
    const size_t ones = smb.ones_in_round();
    smb.Add(i);
    if (smb.round() == round) continue;
    // A morph fires on the item that completes the round's T fresh bits
    // (so round r has set exactly r * T bits), and its event carries the
    // exact item count.
    EXPECT_EQ(smb.round(), round + 1);
    EXPECT_EQ(ones + 1, smb.threshold());
    EXPECT_EQ(smb.ones_in_round(), 0u);
    const std::vector<FlightEvent> events = EventsFor(smb);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().b, smb.round());
    EXPECT_EQ(events.back().c, i + 1);
  }
  ASSERT_GE(smb.round(), 3u) << "stream too small to exercise morphs";
  EXPECT_EQ(smb.telemetry_items_seen(), 20000u);
  CheckInvariants(smb);
}

TEST(MorphTracerTest, SmbAddBatchEmitsOneEventPerMorph) {
  FlightRecorder::Global().Clear();
  SelfMorphingBitmap smb(SmallConfig());
  std::vector<uint64_t> block(512);
  for (uint64_t base = 0; base < 20000; base += block.size()) {
    for (size_t i = 0; i < block.size(); ++i) block[i] = base + i;
    smb.AddBatch(block);
  }
  ASSERT_GE(smb.round(), 3u);
  CheckInvariants(smb);
}

TEST(MorphTracerTest, ResetDoesNotEraseHistoryButRestartsItemCount) {
  FlightRecorder::Global().Clear();
  SelfMorphingBitmap::Config config;
  config.num_bits = 256;
  config.threshold = 32;
  SelfMorphingBitmap smb(config);
  for (uint64_t i = 0; i < 5000; ++i) smb.Add(i);
  const size_t events_before = EventsFor(smb).size();
  ASSERT_GE(events_before, 1u);
  smb.Reset();
  EXPECT_EQ(smb.telemetry_items_seen(), 0u);
  // The recorded history is an audit log; Reset of the estimator keeps it.
  EXPECT_EQ(EventsFor(smb).size(), events_before);
  // Morphs after the reset count items from zero again.
  for (uint64_t i = 0; i < 5000; ++i) smb.Add(i + 5000);
  const std::vector<FlightEvent> events = EventsFor(smb);
  ASSERT_GT(events.size(), events_before);
  EXPECT_EQ(events[events_before].b, 1u);
  EXPECT_LE(events[events_before].c, 5000u);
}

}  // namespace
}  // namespace smb
