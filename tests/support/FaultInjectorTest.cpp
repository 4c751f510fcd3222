//===- FaultInjectorTest.cpp - Fault-injection framework tests ------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/FaultInjector.h"

#include "gtest/gtest.h"

#include <new>
#include <stdexcept>

namespace o2 {
namespace {

/// Every test leaves the process-wide injector disarmed.
class FaultInjectorTest : public testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().disarm(); }
  void TearDown() override { FaultInjector::instance().disarm(); }
};

TEST_F(FaultInjectorTest, UnarmedHitIsANoOp) {
  EXPECT_FALSE(FaultInjector::instance().anyArmed());
  for (int I = 0; I != 1000; ++I)
    FaultInjector::hit("parse");
}

TEST_F(FaultInjectorTest, NthSemanticsFireExactlyOnce) {
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().armFromSpec("parse:3", Err)) << Err;
  FaultInjector::hit("parse");
  FaultInjector::hit("parse");
  EXPECT_THROW(FaultInjector::hit("parse"), std::runtime_error);
  // The counter has passed Nth: later hits do not fire again.
  FaultInjector::hit("parse");
  FaultInjector::hit("parse");
}

TEST_F(FaultInjectorTest, StarFiresOnEveryHit) {
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().armFromSpec("cache.read:*", Err))
      << Err;
  EXPECT_THROW(FaultInjector::hit("cache.read"), std::runtime_error);
  EXPECT_THROW(FaultInjector::hit("cache.read"), std::runtime_error);
  FaultInjector::hit("cache.write"); // different point: untouched
}

TEST_F(FaultInjectorTest, OomActionThrowsBadAlloc) {
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().armFromSpec("alloc:1:oom", Err))
      << Err;
  EXPECT_THROW(FaultInjector::hit("alloc"), std::bad_alloc);
}

TEST_F(FaultInjectorTest, ScopeFilterMatchesOnlyTheNamedJob) {
  std::string Err;
  ASSERT_TRUE(
      FaultInjector::instance().armFromSpec("pass.pta@victim:1", Err))
      << Err;
  // No scope active, wrong scope active: the counter must not advance.
  FaultInjector::hit("pass.pta");
  {
    FaultInjector::JobScope S("bystander");
    FaultInjector::hit("pass.pta");
  }
  {
    FaultInjector::JobScope S("victim");
    EXPECT_THROW(FaultInjector::hit("pass.pta"), std::runtime_error);
  }
}

TEST_F(FaultInjectorTest, JobScopesNest) {
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().armFromSpec("parse@outer:1", Err))
      << Err;
  FaultInjector::JobScope Outer("outer");
  {
    FaultInjector::JobScope Inner("inner");
    FaultInjector::hit("parse"); // scoped to "inner": no fire
  }
  EXPECT_THROW(FaultInjector::hit("parse"), std::runtime_error);
}

TEST_F(FaultInjectorTest, MultipleFaultsArmIndependently) {
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().armFromSpec("parse:1", Err)) << Err;
  ASSERT_TRUE(FaultInjector::instance().armFromSpec("alloc:2:oom", Err))
      << Err;
  EXPECT_THROW(FaultInjector::hit("parse"), std::runtime_error);
  FaultInjector::hit("alloc");
  EXPECT_THROW(FaultInjector::hit("alloc"), std::bad_alloc);
}

TEST_F(FaultInjectorTest, DisarmClearsFaultsAndCounters) {
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().armFromSpec("parse:2", Err)) << Err;
  FaultInjector::hit("parse");
  FaultInjector::instance().disarm();
  EXPECT_FALSE(FaultInjector::instance().anyArmed());
  FaultInjector::hit("parse"); // would have fired at the old count
  // Re-arming starts a fresh counter.
  ASSERT_TRUE(FaultInjector::instance().armFromSpec("parse:2", Err)) << Err;
  FaultInjector::hit("parse");
  EXPECT_THROW(FaultInjector::hit("parse"), std::runtime_error);
}

TEST_F(FaultInjectorTest, SpecParsingRejectsMalformedInput) {
  std::string Err;
  FaultInjector &I = FaultInjector::instance();
  EXPECT_FALSE(I.armFromSpec("", Err));
  EXPECT_FALSE(I.armFromSpec("parse", Err)); // no count
  EXPECT_FALSE(I.armFromSpec(":1", Err));    // no point
  EXPECT_FALSE(I.armFromSpec("no-such-point:1", Err));
  EXPECT_NE(Err.find("unknown fault point"), std::string::npos);
  EXPECT_FALSE(I.armFromSpec("parse:0", Err)); // counts are 1-based
  EXPECT_FALSE(I.armFromSpec("parse:x", Err));
  EXPECT_FALSE(I.armFromSpec("parse:1:frobnicate", Err));
  EXPECT_NE(Err.find("unknown fault action"), std::string::npos);
  EXPECT_FALSE(I.armFromSpec("parse@:1", Err)); // empty scope
  EXPECT_FALSE(I.anyArmed());
}

TEST_F(FaultInjectorTest, CatalogueCoversTheDriverPipeline) {
  // The docs and CLI help are generated from this list; pin the names so
  // a renamed fault point is a conscious, documented change.
  const char *Expected[] = {
      "parse",         "alloc",       "cache.read",    "cache.write",
      "pass.pta",      "pass.osa",    "pass.shb",      "pass.race",
      "pass.deadlock", "pass.oversync", "pass.racerd", "pass.escape",
  };
  const auto &Cat = FaultInjector::catalogue();
  ASSERT_EQ(Cat.size(), std::size(Expected));
  for (size_t I = 0; I != Cat.size(); ++I) {
    EXPECT_STREQ(Cat[I].Name, Expected[I]);
    EXPECT_NE(Cat[I].Where[0], '\0');
  }
  // Every catalogued point must be armable.
  std::string Err;
  for (const FaultPointInfo &P : Cat)
    EXPECT_TRUE(FaultInjector::instance().armFromSpec(
        std::string(P.Name) + ":1000000", Err))
        << P.Name << ": " << Err;
}

} // namespace
} // namespace o2
