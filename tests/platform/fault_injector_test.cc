#include "platform/fault_injector.h"

#include <gtest/gtest.h>

namespace magneto::platform {
namespace {

TEST(FaultInjectorTest, ZeroRatesNeverFault) {
  FaultInjector injector(FaultPolicy{});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(injector.Decide(4096).kind, FaultKind::kNone);
  }
}

TEST(FaultInjectorTest, CertainDropAlwaysDrops) {
  FaultPolicy policy;
  policy.drop_rate = 1.0;
  FaultInjector injector(policy);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.Decide(4096).kind, FaultKind::kDrop);
  }
}

TEST(FaultInjectorTest, SameSeedSameDecisionSequence) {
  FaultPolicy policy;
  policy.drop_rate = 0.2;
  policy.truncate_rate = 0.1;
  policy.bit_flip_rate = 0.1;
  policy.delay_rate = 0.1;
  policy.seed = 99;
  FaultInjector a(policy);
  FaultInjector b(policy);
  for (int i = 0; i < 500; ++i) {
    const FaultDecision da = a.Decide(1000 + i);
    const FaultDecision db = b.Decide(1000 + i);
    EXPECT_EQ(da.kind, db.kind);
    EXPECT_EQ(da.offset, db.offset);
    EXPECT_EQ(da.bit, db.bit);
    EXPECT_EQ(da.extra_seconds, db.extra_seconds);
  }
}

TEST(FaultInjectorTest, RatesRoughlyObserved) {
  FaultPolicy policy;
  policy.drop_rate = 0.25;
  policy.seed = 5;
  FaultInjector injector(policy);
  int drops = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (injector.Decide(128).kind == FaultKind::kDrop) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.25, 0.02);
}

TEST(FaultInjectorTest, ApplyDropReportsUndelivered) {
  std::string payload = "hello";
  FaultDecision decision;
  decision.kind = FaultKind::kDrop;
  EXPECT_FALSE(FaultInjector::Apply(decision, &payload));
}

TEST(FaultInjectorTest, ApplyTruncateShortens) {
  std::string payload(100, 'x');
  FaultDecision decision;
  decision.kind = FaultKind::kTruncate;
  decision.offset = 40;
  EXPECT_TRUE(FaultInjector::Apply(decision, &payload));
  EXPECT_EQ(payload.size(), 40u);
}

TEST(FaultInjectorTest, ApplyBitFlipChangesExactlyOneBit) {
  std::string payload(64, '\0');
  FaultDecision decision;
  decision.kind = FaultKind::kBitFlip;
  decision.offset = 10;
  decision.bit = 3;
  EXPECT_TRUE(FaultInjector::Apply(decision, &payload));
  EXPECT_EQ(payload[10], 0x08);
  for (size_t i = 0; i < payload.size(); ++i) {
    if (i != 10) {
      EXPECT_EQ(payload[i], '\0');
    }
  }
}

TEST(FaultInjectorTest, ApplyDelayLeavesPayloadIntact) {
  std::string payload = "intact";
  FaultDecision decision;
  decision.kind = FaultKind::kDelay;
  decision.extra_seconds = 0.5;
  EXPECT_TRUE(FaultInjector::Apply(decision, &payload));
  EXPECT_EQ(payload, "intact");
}

TEST(FaultInjectorDeathTest, RejectsInvalidRates) {
  FaultPolicy negative;
  negative.drop_rate = -0.1;
  EXPECT_DEATH(FaultInjector{negative}, "Check failed");
  FaultPolicy over;
  over.drop_rate = 0.8;
  over.truncate_rate = 0.4;
  EXPECT_DEATH(FaultInjector{over}, "Check failed");
}

}  // namespace
}  // namespace magneto::platform
