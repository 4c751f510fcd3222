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
#include "o2/SHB/SHBGraph.h"
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

/// The job \p Name over \p Source, as o2cli and o2batch run it.
JobResult runSource(const std::string &Name, const std::string &Source) {
  JobSpec Spec;
  Spec.Name = Name;
  Spec.Source = Source;
  return runOneJob(Spec);
}

/// \p J's report record, with or without its wall-clock keys.
std::string record(const JobResult &J, bool IncludeTimings = false) {
  std::string Buf;
  StringOutputStream OS(Buf);
  printJobRecord(J, OS, IncludeTimings);
  return Buf;
}

/// True when every brace and bracket of \p JSON closes, none early.
bool balanced(const std::string &JSON) {
  int Depth = 0;
  for (char C : JSON) {
    if (C == '{' || C == '[')
      ++Depth;
    if (C == '}' || C == ']')
      --Depth;
    if (Depth < 0)
      return false;
  }
  return Depth == 0;
}

TEST(ReportOutputTest, JSONReportWellFormed) {
  JobResult J = runSource("racy", RacyProgram);
  ASSERT_EQ(J.Races.size(), 1u);
  std::string Buf = record(J);
  EXPECT_EQ(Buf.find("{\"module\":\"racy\",\"status\":\"races\","), 0u);
  EXPECT_NE(Buf.find("\"races\":[{\"fingerprint\":\""), std::string::npos);
  EXPECT_NE(Buf.find("\"location\":\"@g\""), std::string::npos);
  EXPECT_NE(Buf.find("\"write\":true"), std::string::npos);
  EXPECT_NE(Buf.find("\"stats\":{"), std::string::npos);
  EXPECT_NE(Buf.find("\"race.races\":1"), std::string::npos);
  EXPECT_TRUE(balanced(Buf)) << Buf;
  // One line, and the same line the batch report writes for the job.
  EXPECT_EQ(Buf.find('\n'), Buf.size() - 1);
  BatchResult Batch;
  Batch.Jobs.push_back(J);
  std::string Report;
  StringOutputStream ReportOS(Report);
  printJSONL(Batch, ReportOS);
  EXPECT_EQ(Report.substr(0, Buf.size()), Buf);
}

TEST(ReportOutputTest, EmptyJSONReport) {
  std::string Buf = record(runSource("empty", "func main() { }"));
  EXPECT_EQ(Buf.find("{\"module\":\"empty\",\"status\":\"clean\","), 0u);
  EXPECT_NE(Buf.find("\"races\":[],"), std::string::npos);
}

TEST(ReportOutputTest, StatsJSONHasPhaseTimingsAndSolverStats) {
  JobResult J = runSource("racy", RacyProgram);
  std::string Buf = record(J, /*IncludeTimings=*/true);
  // Per-phase wall-clock keys (milliseconds).
  EXPECT_NE(Buf.find("\"time.pta-ms\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"time.shb-ms\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"time.race-ms\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"time.total-ms\":"), std::string::npos);
  // Solver statistics.
  EXPECT_NE(Buf.find("\"pta.propagated-words\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"race.races\":1"), std::string::npos);
  EXPECT_TRUE(balanced(Buf)) << Buf;
  // Without timings the record has no wall-clock key.
  EXPECT_EQ(record(J).find("\"time."), std::string::npos);
}

TEST(ReportOutputTest, TextViewRendersTheRecord) {
  // The text view: a header from the record's counters, then the race
  // section with each race's stable location, statements, functions and
  // read/write flags. It has no timing and no thread number, so it is
  // the same on every run.
  JobResult J = runSource("racy", RacyProgram);
  std::string Buf;
  StringOutputStream OS(Buf);
  printJobText(J, OS);
  EXPECT_EQ(Buf, "O2 analysis of 'racy' (osa,race): races\n"
                 "  pointer analysis: 2 nodes, 1 objects, 0 edges, 2 origins\n"
                 "  sharing: 1 shared locations over 0 objects, 2/2 shared "
                 "accesses\n"
                 "  SHB: 2 threads, 2 access events\n"
                 "\n"
                 "==== 1 race(s) ====\n"
                 "race on @g:\n"
                 "  write '@g = x' in run\n"
                 "  read  'x = @g' in main\n");

  // An error record prints its header only.
  std::string Err;
  StringOutputStream ErrOS(Err);
  printJobText(runSource("broken", "class {"), ErrOS);
  EXPECT_EQ(Err, "O2 analysis of 'broken' (osa,race): parse-error: 1:7: "
                 "expected class name\n");
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

  // A racy job maps onto exit 1, a clean one onto exit 0: the job o2cli
  // runs for one program, and the code it returns.
  EXPECT_EQ(exitCodeFor(runSource("racy", RacyProgram).Status),
            ExitRacesFound);
  EXPECT_EQ(exitCodeFor(runSource("clean", "func main() { }").Status),
            ExitClean);

  // Failure modes map onto exit 2 through the shared jobStatusName /
  // exitCodeFor pair the batch driver uses for its per-job records.
  EXPECT_EQ(exitCodeFor(JobStatus::ParseError), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::VerifyError), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::InternalError), ExitError);
  EXPECT_EQ(exitCodeFor(runSource("broken", "class {").Status), ExitError);
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
