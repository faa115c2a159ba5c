// Span tracer semantics: capture gating, ring-wrap accounting and
// ordering, the multi-thread record path (this file is part of the TSan
// CI workload — writers are spawned after StartCapture and joined before
// the control-plane reads, exactly the quiescence contract the header
// documents), and the exported document's schema.

#include "trace/span_tracer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "trace/chrome_trace.h"

namespace smb::trace {
namespace {

TEST(SpanTracerTest, CaptureGatesRecording) {
  EXPECT_FALSE(IsCapturing());
  { TRACE_SPAN("test", "before_capture"); }
  StartCapture();
  EXPECT_TRUE(IsCapturing());
  { TRACE_SPAN("test", "during_capture"); }
  TRACE_INSTANT("test", "instant_during_capture");
  StopCapture();
  EXPECT_FALSE(IsCapturing());
  { TRACE_SPAN("test", "after_capture"); }

  const std::vector<ChromeTraceEvent> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  size_t scoped = 0;
  size_t instants = 0;
  for (const ChromeTraceEvent& span : spans) {
    EXPECT_EQ(span.category, "test");
    if (span.name == "during_capture") ++scoped;
    if (span.name == "instant_during_capture") {
      ++instants;
      EXPECT_EQ(span.duration_ns, 0u);
    }
  }
  EXPECT_EQ(scoped, 1u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(CaptureStats().total_recorded, 2u);
  EXPECT_EQ(CaptureStats().dropped_on_wrap, 0u);
}

TEST(SpanTracerTest, StartCaptureResetsPriorCapture) {
  StartCapture();
  for (int i = 0; i < 10; ++i) {
    TRACE_SPAN("test", "first_capture");
  }
  StopCapture();
  StartCapture();
  { TRACE_SPAN("test", "second_capture"); }
  StopCapture();
  const std::vector<ChromeTraceEvent> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "second_capture");
  EXPECT_EQ(CaptureStats().total_recorded, 1u);
}

TEST(SpanTracerTest, CollectedSpansAreSortedByStartTime) {
  StartCapture();
  for (int i = 0; i < 100; ++i) {
    TRACE_SPAN("test", "ordered");
  }
  StopCapture();
  const std::vector<ChromeTraceEvent> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 100u);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
  }
}

TEST(SpanTracerTest, RingWrapKeepsNewestSpansAndCountsDrops) {
  constexpr uint64_t kOverflow = 100;
  StartCapture();
  for (uint64_t i = 0; i < kSpanRingCapacity; ++i) {
    TRACE_SPAN("test", "wrap_old");
  }
  for (uint64_t i = 0; i < kOverflow; ++i) {
    TRACE_SPAN("test", "wrap_new");
  }
  StopCapture();

  const SpanStats stats = CaptureStats();
  EXPECT_EQ(stats.total_recorded, kSpanRingCapacity + kOverflow);
  EXPECT_EQ(stats.dropped_on_wrap, kOverflow);

  // The ring holds the tail of the run: all of the late spans, the
  // oldest kOverflow overwritten.
  const std::vector<ChromeTraceEvent> spans = CollectSpans();
  ASSERT_EQ(spans.size(), kSpanRingCapacity);
  size_t late = 0;
  for (const ChromeTraceEvent& span : spans) {
    if (span.name == "wrap_new") ++late;
  }
  EXPECT_EQ(late, kOverflow);
  EXPECT_EQ(spans.back().name, "wrap_new");
  EXPECT_EQ(spans.front().name, "wrap_old");
}

TEST(SpanTracerTest, ConcurrentWritersAreAccountedExactly) {
  constexpr size_t kThreads = 4;
  constexpr uint64_t kSpansPerThread = 5000;
  static_assert(kSpansPerThread <= kSpanRingCapacity,
                "per-thread count must fit one ring for exact accounting");

  StartCapture();
  // Writers spawned after StartCapture, joined before any control-plane
  // read — the contract that makes the export race-free under TSan.
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (uint64_t i = 0; i < kSpansPerThread; ++i) {
        TRACE_SPAN("test", "stress");
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  StopCapture();

  const SpanStats stats = CaptureStats();
  EXPECT_EQ(stats.total_recorded, kThreads * kSpansPerThread);
  EXPECT_EQ(stats.dropped_on_wrap, 0u);
  EXPECT_GE(stats.threads, kThreads);

  const std::vector<ChromeTraceEvent> spans = CollectSpans();
  ASSERT_EQ(spans.size(), kThreads * kSpansPerThread);
  // Each writer's ring keeps per-thread order; the merged view is sorted
  // by start time across threads.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
  }
}

TEST(SpanTracerTest, ExportedTraceValidatesAgainstTheSchema) {
  StartCapture();
  for (int i = 0; i < 32; ++i) {
    TRACE_SPAN("test", "export");
  }
  StopCapture();
  const std::string text = ExportChromeTrace();
  std::string error;
  size_t num_events = 0;
  EXPECT_TRUE(ValidateChromeTrace(text, &error, &num_events)) << error;
  EXPECT_EQ(num_events, 32u);
  EXPECT_NE(text.find("export"), std::string::npos);
}

}  // namespace
}  // namespace smb::trace
