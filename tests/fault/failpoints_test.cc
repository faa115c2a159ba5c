// FailpointRegistry semantics: arming, firing, skip/limit/probability
// modifiers, the env-string grammar, determinism under reseeding, and the
// contract that an unarmed point is a miss.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/failpoints.h"

namespace smb::fault {
namespace {

TEST(FailpointsBuildMode, MacroIsAlwaysSafeToCall) {
  // A site whose point nobody armed reports a plain miss.
  const auto hit = SMB_FAILPOINT("test.nonexistent.point");
  EXPECT_FALSE(hit.fired);
  EXPECT_EQ(hit.action, FailpointAction::kOff);
  EXPECT_EQ(hit.arg, 0u);
}

class FailpointsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().ClearAll();
    FailpointRegistry::Global().Reseed(0);
  }
  void TearDown() override { FailpointRegistry::Global().ClearAll(); }
};

TEST_F(FailpointsTest, UnarmedPointNeverFires) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(SMB_FAILPOINT("test.unarmed").fired);
  }
  EXPECT_EQ(FailpointRegistry::Global().EvalCount("test.unarmed"), 0u);
}

TEST_F(FailpointsTest, ArmedPointFiresWithActionAndArg) {
  auto& registry = FailpointRegistry::Global();
  FailpointSpec spec;
  spec.action = FailpointAction::kPartialIo;
  spec.arg = 17;
  registry.Set("test.partial", spec);
  const auto hit = SMB_FAILPOINT("test.partial");
  EXPECT_TRUE(hit.fired);
  EXPECT_EQ(hit.action, FailpointAction::kPartialIo);
  EXPECT_EQ(hit.arg, 17u);
  EXPECT_EQ(registry.EvalCount("test.partial"), 1u);
  EXPECT_EQ(registry.FireCount("test.partial"), 1u);
}

TEST_F(FailpointsTest, ClearDisarms) {
  auto& registry = FailpointRegistry::Global();
  FailpointSpec spec;
  spec.action = FailpointAction::kReturnError;
  registry.Set("test.cleared", spec);
  EXPECT_TRUE(SMB_FAILPOINT("test.cleared").fired);
  registry.Clear("test.cleared");
  EXPECT_FALSE(SMB_FAILPOINT("test.cleared").fired);
  EXPECT_EQ(registry.EvalCount("test.cleared"), 0u);  // counters reset
}

TEST_F(FailpointsTest, SkipThenLimitWindow) {
  auto& registry = FailpointRegistry::Global();
  FailpointSpec spec;
  spec.action = FailpointAction::kReturnError;
  spec.skip = 2;
  spec.limit = 3;
  registry.Set("test.window", spec);
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(SMB_FAILPOINT("test.window").fired);
  const std::vector<bool> expected = {false, false, true, true,
                                      true,  false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(registry.EvalCount("test.window"), 8u);
  EXPECT_EQ(registry.FireCount("test.window"), 3u);
}

TEST_F(FailpointsTest, ProbabilisticFiringIsSeedDeterministic) {
  auto& registry = FailpointRegistry::Global();
  FailpointSpec spec;
  spec.action = FailpointAction::kReturnError;
  spec.probability = 0.5;

  auto run_pattern = [&](uint64_t seed) {
    registry.Set("test.coin", spec);
    registry.Reseed(seed);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      pattern.push_back(SMB_FAILPOINT("test.coin").fired);
    }
    return pattern;
  };

  const auto a = run_pattern(42);
  const auto b = run_pattern(42);
  const auto c = run_pattern(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // 2^-200 false-failure odds
  // A fair-ish coin: p=0.5 over 200 draws stays far from both edges.
  const size_t fires = static_cast<size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 50u);
  EXPECT_LT(fires, 150u);
}

TEST_F(FailpointsTest, DelayIsHandledInsideEvaluate) {
  auto& registry = FailpointRegistry::Global();
  FailpointSpec spec;
  spec.action = FailpointAction::kDelay;
  spec.arg = 100;  // microseconds
  registry.Set("test.delay", spec);
  const auto hit = SMB_FAILPOINT("test.delay");
  // The sleep happened inside Evaluate; the call site must not take its
  // failure branch.
  EXPECT_FALSE(hit.fired);
  EXPECT_EQ(registry.FireCount("test.delay"), 1u);
}

TEST_F(FailpointsTest, ConfigureParsesTheEnvGrammar) {
  auto& registry = FailpointRegistry::Global();
  std::string error;
  ASSERT_TRUE(registry.Configure(
      "a.point=error; b.point=partial(17):skip=1:limit=2 ;"
      "c.point=corrupt(5):p=1",
      &error))
      << error;

  EXPECT_FALSE(SMB_FAILPOINT("b.point").fired);  // skipped
  const auto b = SMB_FAILPOINT("b.point");
  EXPECT_TRUE(b.fired);
  EXPECT_EQ(b.action, FailpointAction::kPartialIo);
  EXPECT_EQ(b.arg, 17u);
  EXPECT_TRUE(SMB_FAILPOINT("b.point").fired);
  EXPECT_FALSE(SMB_FAILPOINT("b.point").fired);  // limit reached

  const auto a = SMB_FAILPOINT("a.point");
  EXPECT_TRUE(a.fired);
  EXPECT_EQ(a.action, FailpointAction::kReturnError);
  const auto c = SMB_FAILPOINT("c.point");
  EXPECT_TRUE(c.fired);
  EXPECT_EQ(c.action, FailpointAction::kCorrupt);
  EXPECT_EQ(c.arg, 5u);
}

TEST_F(FailpointsTest, ConfigureRejectsBadStringsAtomically) {
  auto& registry = FailpointRegistry::Global();
  const char* bad[] = {
      "a.point",                 // no action
      "a.point=bogus",           // unknown action
      "=error",                  // empty name
      "a.point=partial",         // missing paren arg
      "a.point=partial(x)",      // non-numeric arg
      "a.point=error:p=2.0",     // probability out of range
      "a.point=error:zap=1",     // unknown modifier
      "good=error;a.point=",     // one bad entry poisons the whole string
  };
  for (const char* config : bad) {
    std::string error;
    EXPECT_FALSE(registry.Configure(config, &error)) << config;
    EXPECT_FALSE(error.empty()) << config;
  }
  // All-or-nothing: the "good" entry of the last string was not armed.
  EXPECT_FALSE(SMB_FAILPOINT("good").fired);
}

TEST_F(FailpointsTest, OffActionParsesAndNeverFires) {
  auto& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry.Configure("test.off=off"));
  EXPECT_FALSE(SMB_FAILPOINT("test.off").fired);
  EXPECT_EQ(registry.EvalCount("test.off"), 1u);
  EXPECT_EQ(registry.FireCount("test.off"), 0u);
}

using FailpointsDeathTest = FailpointsTest;

TEST_F(FailpointsDeathTest, PanicAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        FailpointSpec spec;
        spec.action = FailpointAction::kPanic;
        FailpointRegistry::Global().Set("test.panic", spec);
        (void)SMB_FAILPOINT("test.panic");
      },
      "failpoint panic: test.panic");
}

}  // namespace
}  // namespace smb::fault
