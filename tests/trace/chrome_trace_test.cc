// Chrome trace-event formatter/validator round-trip. FormatChromeTrace
// and ValidateChromeTrace are two halves of one schema contract: every
// document the formatter can emit must validate, and the validator must
// reject documents that are not traces with an error naming the broken
// part.

#include "trace/chrome_trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace smb::trace {
namespace {

TEST(ChromeTraceTest, EmptyTraceValidatesWithZeroEvents) {
  const std::string text = FormatChromeTrace({}, 0, 0);
  std::string error;
  size_t num_events = 999;
  EXPECT_TRUE(ValidateChromeTrace(text, &error, &num_events)) << error;
  EXPECT_EQ(num_events, 0u);
  // The wrapper object and capture accounting are present even when no
  // event was retained.
  EXPECT_NE(text.find("traceEvents"), std::string::npos);
  EXPECT_NE(text.find("total_recorded"), std::string::npos);
  EXPECT_NE(text.find("dropped_on_wrap"), std::string::npos);
}

TEST(ChromeTraceTest, FormattedEventsRoundTripThroughValidator) {
  std::vector<ChromeTraceEvent> events;
  events.push_back(ChromeTraceEvent{"smb.apply", "core", 1, 1234, 567});
  events.push_back(ChromeTraceEvent{"arena.flow_hash", "flow", 2, 2000, 0});
  events.push_back(ChromeTraceEvent{"checkpoint.write", "io", 1,
                                    UINT64_C(9000000000), 125});
  const std::string text = FormatChromeTrace(events, /*total_recorded=*/40,
                                             /*dropped_on_wrap=*/37);
  std::string error;
  size_t num_events = 0;
  EXPECT_TRUE(ValidateChromeTrace(text, &error, &num_events)) << error;
  EXPECT_EQ(num_events, events.size());
  // Nanosecond timestamps are carried as microseconds with three
  // fractional digits: 1234 ns -> 1.234 us.
  EXPECT_NE(text.find("1.234"), std::string::npos);
  EXPECT_NE(text.find("smb.apply"), std::string::npos);
  EXPECT_NE(text.find("\"X\""), std::string::npos);
}

TEST(ChromeTraceTest, ValidatorToleratesMissingErrorAndCountOut) {
  EXPECT_TRUE(
      ValidateChromeTrace(FormatChromeTrace({}, 0, 0), nullptr, nullptr));
  EXPECT_FALSE(ValidateChromeTrace("not json", nullptr, nullptr));
}

TEST(ChromeTraceTest, RejectsNonJsonAndWrongRoots) {
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace("][", &error, nullptr));
  EXPECT_EQ(error, "document is not valid JSON");
  EXPECT_FALSE(ValidateChromeTrace("[]", &error, nullptr));
  EXPECT_EQ(error, "root is not an object");
  EXPECT_FALSE(ValidateChromeTrace("{}", &error, nullptr));
  EXPECT_EQ(error, "missing traceEvents member");
  EXPECT_FALSE(ValidateChromeTrace("{\"traceEvents\": 5}", &error, nullptr));
  EXPECT_EQ(error, "traceEvents is not an array");
}

// A well-formed single-event document the corruption tests below mutate.
std::string OneEventTrace() {
  return FormatChromeTrace(
      {ChromeTraceEvent{"smb.apply", "core", 1, 1000, 10}}, 1, 0);
}

TEST(ChromeTraceTest, RejectsMalformedEventsNamingTheIndex) {
  std::string error;

  EXPECT_FALSE(ValidateChromeTrace("{\"traceEvents\": [42]}", &error,
                                   nullptr));
  EXPECT_NE(error.find("traceEvents[0]"), std::string::npos) << error;

  // Second event broken: the index in the error must say so.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\": ["
      "{\"name\": \"a\", \"cat\": \"c\", \"ph\": \"X\", \"pid\": 1,"
      " \"tid\": 1, \"ts\": 0, \"dur\": 0},"
      "{\"cat\": \"c\"}]}",
      &error, nullptr));
  EXPECT_NE(error.find("traceEvents[1]"), std::string::npos) << error;
  EXPECT_NE(error.find("name"), std::string::npos) << error;

  // Empty name is as invalid as a missing one.
  std::string text = OneEventTrace();
  const size_t name_at = text.find("smb.apply");
  ASSERT_NE(name_at, std::string::npos);
  text.erase(name_at, 9);
  EXPECT_FALSE(ValidateChromeTrace(text, &error, nullptr));
  EXPECT_NE(error.find("missing or empty string name"), std::string::npos)
      << error;
}

TEST(ChromeTraceTest, RejectsWrongPhaseAndNegativeTimestamps) {
  std::string error;
  std::string text = OneEventTrace();
  const size_t ph_at = text.find("\"X\"");
  ASSERT_NE(ph_at, std::string::npos);
  std::string begin_phase = text;
  begin_phase.replace(ph_at, 3, "\"B\"");
  EXPECT_FALSE(ValidateChromeTrace(begin_phase, &error, nullptr));
  EXPECT_NE(error.find("ph is not \"X\""), std::string::npos) << error;

  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\": ["
      "{\"name\": \"a\", \"cat\": \"c\", \"ph\": \"X\", \"pid\": 1,"
      " \"tid\": 1, \"ts\": -1.5, \"dur\": 0}]}",
      &error, nullptr));
  EXPECT_NE(error.find("negative ts/dur"), std::string::npos) << error;

  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\": ["
      "{\"name\": \"a\", \"cat\": \"c\", \"ph\": \"X\", \"pid\": 1,"
      " \"tid\": 1, \"dur\": 0}]}",
      &error, nullptr));
  EXPECT_NE(error.find("missing numeric ts/dur"), std::string::npos) << error;
}

}  // namespace
}  // namespace smb::trace
