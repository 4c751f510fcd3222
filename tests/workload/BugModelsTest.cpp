//===- BugModelsTest.cpp - Table 10 bug-model tests ------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Every published bug modeled from the paper (Section 5.4 / Table 10)
// must be found by O2 with exactly the documented number of races, and
// the thread↔event cases must really involve one thread and one handler.
//
//===----------------------------------------------------------------------===//

#include "o2/Workload/BugModels.h"

#include "o2/Analysis/AnalysisManager.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

class BugModelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BugModelTest, O2FindsExpectedRaces) {
  const BugModel &Model = bugModels()[GetParam()];
  auto M = buildBugModel(Model);
  AnalysisManager Result(*M);
  EXPECT_EQ(Result.getRaces().numRaces(), Model.ExpectedRaces)
      << "model: " << Model.Name;
}

TEST_P(BugModelTest, ThreadEventInteractionIsReal) {
  const BugModel &Model = bugModels()[GetParam()];
  if (!Model.ThreadEventInteraction)
    GTEST_SKIP() << "not a thread<->event model";
  auto M = buildBugModel(Model);
  AnalysisManager Result(*M);
  ASSERT_GE(Result.getRaces().numRaces(), 1u);
  // At least one reported race pairs a thread with an event handler.
  bool SawMix = false;
  for (const Race &R : Result.getRaces().races()) {
    OriginKind KA = Result.getSHB().thread(R.ThreadA).Kind;
    OriginKind KB = Result.getSHB().thread(R.ThreadB).Kind;
    SawMix |= (KA == OriginKind::Event) != (KB == OriginKind::Event);
  }
  EXPECT_TRUE(SawMix) << "model: " << Model.Name;
}

TEST_P(BugModelTest, SoundnessOracleAgrees) {
  const BugModel &Model = bugModels()[GetParam()];
  auto M = buildBugModel(Model);

  O2Config Optimized;
  AnalysisManager A(*M, Optimized);

  O2Config Naive;
  Naive.Detector.HB = RaceHBKind::Naive;
  Naive.Detector.CacheLocksetChecks = false;
  Naive.Detector.LockRegionMerging = false;
  AnalysisManager B(*M, Naive);

  std::set<uint64_t> LocsA, LocsB;
  for (const Race &R : A.getRaces().races())
    LocsA.insert(R.Loc.key());
  for (const Race &R : B.getRaces().races())
    LocsB.insert(R.Loc.key());
  EXPECT_EQ(LocsA, LocsB) << "model: " << Model.Name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, BugModelTest,
                         ::testing::Range<size_t>(0, bugModels().size()),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return bugModels()[Info.param].Name;
                         });

TEST(BugModelsTest, Registry) {
  EXPECT_GE(bugModels().size(), 8u);
  EXPECT_NE(findBugModel("memcached_slabs"), nullptr);
  EXPECT_EQ(findBugModel("nonexistent"), nullptr);
  // Names are unique.
  std::set<std::string> Names;
  for (const BugModel &Model : bugModels())
    EXPECT_TRUE(Names.insert(Model.Name).second);
}

TEST(BugModelsTest, FiguresAreRaceFreeButImpreciseAnalysesDisagree) {
  // Figure 3: 0-ctx merges the per-thread objects and reports a false
  // race that OPA avoids — the motivating example of Section 3.2.
  const BugModel *Fig3 = findBugModel("figure3");
  ASSERT_TRUE(Fig3);
  auto M = buildBugModel(*Fig3);

  O2Config OPA;
  EXPECT_EQ(AnalysisManager(*M, OPA).getRaces().numRaces(), 0u);

  O2Config Insensitive;
  Insensitive.PTA.Kind = ContextKind::Insensitive;
  EXPECT_GE(AnalysisManager(*M, Insensitive).getRaces().numRaces(), 1u);
}

} // namespace
