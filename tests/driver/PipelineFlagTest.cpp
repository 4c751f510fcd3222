//===- PipelineFlagTest.cpp - Shared pipeline flag table tests ----------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Covers parsePipelineFlag, the one parser o2cli and o2batch share for
// --ctx, --k, --race-hb and --analyses: every accepted spelling
// lands in the right O2Config / AnalysisSet field, every malformed value
// is rejected with the flag named, and other arguments are left to the
// caller.
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

struct Parsed {
  O2Config Config;
  AnalysisSet Analyses = AnalysisSet::defaultSet();
  std::optional<std::string> Err;
};

Parsed parse(const std::string &Arg) {
  Parsed P;
  P.Err = parsePipelineFlag(Arg, P.Config, P.Analyses);
  return P;
}

TEST(PipelineFlagTest, AcceptedSpellings) {
  const std::pair<const char *, ContextKind> Ctx[] = {
      {"--ctx=0-ctx", ContextKind::Insensitive},
      {"--ctx=insensitive", ContextKind::Insensitive},
      {"--ctx=cfa", ContextKind::KCallsite},
      {"--ctx=k-cfa", ContextKind::KCallsite},
      {"--ctx=obj", ContextKind::KObject},
      {"--ctx=k-obj", ContextKind::KObject},
      {"--ctx=origin", ContextKind::Origin},
  };
  for (const auto &[Arg, Kind] : Ctx) {
    Parsed P = parse(Arg);
    ASSERT_EQ(P.Err, "") << Arg;
    EXPECT_EQ(P.Config.PTA.Kind, Kind) << Arg;
  }

  const std::pair<const char *, RaceHBKind> HB[] = {
      {"--race-hb=index", RaceHBKind::Index},
      {"--race-hb=naive", RaceHBKind::Naive},
  };
  for (const auto &[Arg, Kind] : HB) {
    Parsed P = parse(Arg);
    ASSERT_EQ(P.Err, "") << Arg;
    EXPECT_EQ(P.Config.Detector.HB, Kind) << Arg;
  }

  Parsed K = parse("--k=3");
  ASSERT_EQ(K.Err, "");
  EXPECT_EQ(K.Config.PTA.K, 3u);

  const std::pair<const char *, AnalysisSet> Sets[] = {
      {"--analyses=all", AnalysisSet::all()},
      {"--analyses=race", {O2Phase::Detect}},
      {"--analyses=osa,race,racerd",
       {O2Phase::OSA, O2Phase::Detect, O2Phase::RacerD}},
  };
  for (const auto &[Arg, Set] : Sets) {
    Parsed P = parse(Arg);
    ASSERT_EQ(P.Err, "") << Arg;
    EXPECT_EQ(P.Analyses, Set) << Arg;
  }
}

TEST(PipelineFlagTest, MalformedValuesNameTheFlag) {
  const std::pair<const char *, const char *> Bad[] = {
      {"--ctx=", "--ctx"},
      {"--ctx=foo", "--ctx"},
      {"--k=-1", "--k"},
      {"--k=0", "--k"},
      {"--race-hb=memo", "--race-hb"},
      {"--analyses=", "--analyses"},
      {"--analyses=race,bogus", "--analyses"},
      // The SHB pass builds the HB index; it is not a pass of its own.
      {"--analyses=hbindex", "--analyses"},
  };
  for (const auto &[Arg, Flag] : Bad) {
    Parsed P = parse(Arg);
    ASSERT_TRUE(P.Err) << Arg;
    EXPECT_NE(P.Err->find(std::string(" for ") + Flag), std::string::npos)
        << Arg << ": " << *P.Err;
    // A rejected value leaves the configuration alone.
    Parsed Default;
    EXPECT_EQ(P.Config.PTA.Kind, Default.Config.PTA.Kind) << Arg;
    EXPECT_EQ(P.Config.PTA.K, Default.Config.PTA.K) << Arg;
    EXPECT_EQ(P.Config.Detector.HB, Default.Config.Detector.HB) << Arg;
    EXPECT_EQ(P.Analyses, Default.Analyses) << Arg;
  }
  EXPECT_EQ(*parse("--ctx=foo").Err,
            "invalid value 'foo' for --ctx: expected 0-ctx, insensitive, "
            "cfa, k-cfa, obj, k-obj or origin");
  // k is also the origin-chain depth: k=0 would collapse every context.
  EXPECT_EQ(*parse("--k=0").Err,
            "invalid value '0' for --k: expected at least 1");
  EXPECT_EQ(*parse("--analyses=race,bogus").Err,
            "invalid value 'race,bogus' for --analyses: unknown analysis "
            "'bogus'");
}

TEST(PipelineFlagTest, OtherArgumentsAreLeftToTheCaller) {
  for (const char *Arg : {"--jobs=2", "--ctx", "--k", "--stats", "--racerd",
                          "prog.oir", "--context=cfa", "-ctx=cfa"})
    EXPECT_FALSE(parse(Arg).Err) << Arg;
  // There is one PTA engine, so no flag selects one.
  for (const char *Removed : {"solver=wave", "solver=worklist"})
    EXPECT_FALSE(parse(std::string("--") + Removed).Err) << Removed;
}

} // namespace
