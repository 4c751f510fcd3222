//===- WorkloadRoundTripTest.cpp - generator/printer/parser consistency ---------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Cross-module property: every generated benchmark workload survives a
// print -> parse -> print round trip byte-identically, still verifies,
// and the reparsed module produces the same O2 race count as the
// original. This exercises the printer and parser against IR far larger
// and more varied than hand-written tests.
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Parser.h"
#include "o2/IR/Printer.h"
#include "o2/IR/Verifier.h"
#include "o2/Analysis/AnalysisManager.h"
#include "o2/Workload/BugModels.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

class ProfileRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(ProfileRoundTrip, PrintParsePrintIsStable) {
  const WorkloadProfile &P = benchmarkProfiles()[GetParam()];
  auto M1 = generateWorkload(P);
  std::string P1 = printModule(*M1);

  std::string Err;
  auto M2 = parseModule(P1, Err, P.Name);
  ASSERT_TRUE(M2) << P.Name << ": " << Err;

  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M2, Errors))
      << P.Name << ": " << (Errors.empty() ? "?" : Errors.front());

  EXPECT_EQ(printModule(*M2), P1) << P.Name;
}

TEST_P(ProfileRoundTrip, ReparsedModuleHasSameRaces) {
  const WorkloadProfile &P = benchmarkProfiles()[GetParam()];
  auto M1 = generateWorkload(P);
  std::string Err;
  auto M2 = parseModule(printModule(*M1), Err, P.Name);
  ASSERT_TRUE(M2) << Err;
  EXPECT_EQ(AnalysisManager(*M1).getRaces().numRaces(),
            AnalysisManager(*M2).getRaces().numRaces())
      << P.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, ProfileRoundTrip,
    ::testing::Range<size_t>(0, benchmarkProfiles().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return benchmarkProfiles()[Info.param].Name;
    });

TEST(WorkloadRoundTripTest, BugModelsRoundTrip) {
  for (const BugModel &Model : bugModels()) {
    auto M1 = buildBugModel(Model);
    std::string P1 = printModule(*M1);
    std::string Err;
    auto M2 = parseModule(P1, Err, Model.Name);
    ASSERT_TRUE(M2) << Model.Name << ": " << Err;
    EXPECT_EQ(printModule(*M2), P1) << Model.Name;
  }
}

} // namespace
