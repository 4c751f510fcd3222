//===- ReportOutputTest.cpp - JSON/DOT report output tests ----------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/Race/RaceDetector.h"
#include "o2/Support/OutputStream.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

std::unique_ptr<Module> parseProgram(std::string_view Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_TRUE(M) << "parse error: " << Err;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors))
      << (Errors.empty() ? "?" : Errors.front());
  return M;
}

const char *RacyProgram = R"(
  class T {
    method run() { var x: int; @g = x; }
  }
  global g: int;
  func main() {
    var t: T;
    var x: int;
    t = new T;
    spawn t.run();
    x = @g;
  }
)";

TEST(ReportOutputTest, JSONReportWellFormed) {
  auto M = parseProgram(RacyProgram);
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  RaceReport R = detectRaces(*PTA);
  ASSERT_EQ(R.numRaces(), 1u);

  std::string Buf;
  StringOutputStream OS(Buf);
  R.printJSON(OS, *PTA);
  EXPECT_EQ(Buf.find("{\"races\":[{"), 0u);
  EXPECT_NE(Buf.find("\"location\":\"@g\""), std::string::npos);
  EXPECT_NE(Buf.find("\"write\":true"), std::string::npos);
  EXPECT_NE(Buf.find("\"stats\":{"), std::string::npos);
  EXPECT_NE(Buf.find("\"race.races\":1"), std::string::npos);
  // Balanced braces/brackets.
  int Depth = 0;
  for (char C : Buf) {
    if (C == '{' || C == '[')
      ++Depth;
    if (C == '}' || C == ']')
      --Depth;
    EXPECT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
}

TEST(ReportOutputTest, EmptyJSONReport) {
  auto M = parseProgram(R"(
    func main() { }
  )");
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  RaceReport R = detectRaces(*PTA);
  std::string Buf;
  StringOutputStream OS(Buf);
  R.printJSON(OS, *PTA);
  EXPECT_EQ(Buf.find("{\"races\":[]"), 0u);
}

TEST(ReportOutputTest, StatsJSONHasPhaseTimingsAndSolverStats) {
  auto M = parseProgram(RacyProgram);
  AnalysisManager Result(*M);
  Result.run(AnalysisSet::defaultSet());
  std::string Buf;
  StringOutputStream OS(Buf);
  Result.printStatsJSON(OS);
  // Per-phase wall-clock keys (milliseconds).
  EXPECT_NE(Buf.find("\"time.pta-ms\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"time.shb-ms\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"time.race-ms\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"time.total-ms\":"), std::string::npos);
  // Solver statistics.
  EXPECT_NE(Buf.find("\"pta.propagated-words\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"race.races\":1"), std::string::npos);
  // One flat, balanced JSON object.
  int Depth = 0;
  for (char C : Buf) {
    if (C == '{')
      ++Depth;
    if (C == '}')
      --Depth;
    EXPECT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
}

TEST(ReportOutputTest, SHBDotExport) {
  auto M = parseProgram(RacyProgram);
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  SHBGraph SHB = buildSHBGraph(*PTA);
  std::string Buf;
  StringOutputStream OS(Buf);
  printSHBDot(SHB, OS);
  EXPECT_EQ(Buf.find("digraph shb {"), 0u);
  EXPECT_NE(Buf.find("(main)"), std::string::npos);
  EXPECT_NE(Buf.find("(thread)"), std::string::npos);
  EXPECT_NE(Buf.find("spawn@"), std::string::npos);
}

TEST(ReportOutputTest, CLIExitCodeConvention) {
  // o2cli and o2batch share one convention: 0 clean, 1 races found,
  // 2 for parse/verify/internal errors and timeouts.
  EXPECT_EQ(ExitClean, 0);
  EXPECT_EQ(ExitRacesFound, 1);
  EXPECT_EQ(ExitError, 2);

  // A racy analysis maps onto exit 1, a clean one onto exit 0 — this is
  // what o2cli returns after the analysis ran.
  auto Racy = parseProgram(RacyProgram);
  AnalysisManager RacyResult(*Racy);
  RacyResult.run(AnalysisSet::defaultSet());
  EXPECT_EQ(RacyResult.getRaces().numRaces() == 0 ? ExitClean
                                                  : ExitRacesFound,
            ExitRacesFound);

  auto Clean = parseProgram("func main() { }");
  AnalysisManager CleanResult(*Clean);
  CleanResult.run(AnalysisSet::defaultSet());
  EXPECT_EQ(CleanResult.getRaces().numRaces() == 0 ? ExitClean
                                                   : ExitRacesFound,
            ExitClean);

  // Failure modes map onto exit 2 through the shared jobStatusName /
  // exitCodeFor pair the batch driver uses for its per-job records.
  EXPECT_EQ(exitCodeFor(JobStatus::ParseError), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::VerifyError), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::InternalError), ExitError);
  JobSpec Broken;
  Broken.Name = "broken";
  Broken.Source = "class {";
  EXPECT_EQ(exitCodeFor(runOneJob(Broken).Status), ExitError);
}

TEST(ReportOutputTest, SHBDotShowsJoins) {
  auto M = parseProgram(R"(
    class T { method run() { } }
    func main() {
      var t: T;
      t = new T;
      spawn t.run();
      join t;
    }
  )");
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  SHBGraph SHB = buildSHBGraph(*PTA);
  std::string Buf;
  StringOutputStream OS(Buf);
  printSHBDot(SHB, OS);
  EXPECT_NE(Buf.find("join@"), std::string::npos);
}

} // namespace
