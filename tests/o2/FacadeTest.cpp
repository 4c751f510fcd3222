//===- FacadeTest.cpp - Default pipeline tests -------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The front door every client uses: an AnalysisManager running
// AnalysisSet::defaultSet() (OPA + OSA + SHB + detector) over one module.
//
//===----------------------------------------------------------------------===//

#include "o2/Analysis/AnalysisManager.h"

#include "o2/Driver/Driver.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/Support/OutputStream.h"

#include <gtest/gtest.h>

#include <thread>

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

const char *Program = R"(
  class Obj { field v: int; }
  class T {
    field s: Obj;
    method init(s: Obj) { this.s = s; }
    method run() { var o: Obj; var x: int; o = this.s; o.v = x; }
  }
  func main() {
    var s: Obj;
    var t1: T;
    var t2: T;
    s = new Obj;
    t1 = new T(s);
    t2 = new T(s);
    spawn t1.run();
    spawn t2.run();
  }
)";

TEST(FacadeTest, DefaultPipelineRunsEverything) {
  auto M = parseProgram(Program);
  AnalysisManager AM(*M);
  ASSERT_TRUE(AM.run(AnalysisSet::defaultSet()));
  const PTAResult &PTA = AM.getPTA();
  EXPECT_EQ(PTA.options().Kind, ContextKind::Origin);
  EXPECT_EQ(PTA.origins().size(), 3u);
  EXPECT_EQ(AM.getSharing().sharedLocations().size(), 1u);
  EXPECT_EQ(AM.getSHB().numThreads(), 3u);
  EXPECT_EQ(AM.getRaces().numRaces(), 1u);
  // Timings are populated and consistent.
  EXPECT_GT(AM.seconds(O2Phase::PTA), 0.0);
  EXPECT_GT(AM.totalSeconds(), 0.0);
  EXPECT_GE(AM.totalSeconds(), AM.seconds(O2Phase::PTA));
}

TEST(FacadeTest, OSACanBeSkipped) {
  // The escape baseline reads no sharing table, so it runs without OSA.
  // Under OPA the SHB graph stores only the accesses OSA calls shared, so
  // deadlock detection, which reads the graph, runs OSA; so does the race
  // detector, which reads OSA's table.
  auto M = parseProgram(Program);
  AnalysisManager AM(*M);
  ASSERT_TRUE(AM.run({O2Phase::Escape}));
  EXPECT_FALSE(AM.ran(O2Phase::OSA));
  EXPECT_EQ(AM.seconds(O2Phase::OSA), 0.0);
  ASSERT_TRUE(AM.run({O2Phase::Deadlock}));
  EXPECT_TRUE(AM.ran(O2Phase::OSA));
  ASSERT_TRUE(AM.run({O2Phase::Detect}));
  EXPECT_EQ(AM.getRaces().numRaces(), 1u);
}

TEST(FacadeTest, OSASkippedForNonOriginAnalyses) {
  auto M = parseProgram(Program);
  O2Config Config;
  Config.PTA.Kind = ContextKind::KCallsite;
  Config.PTA.K = 1;
  AnalysisManager AM(*M, Config);
  AM.run(AnalysisSet::defaultSet());
  // OSA requires origin sensitivity; under k-CFA the pass is a no-op,
  // and the detector reads the SHB threads' sharing table instead.
  EXPECT_TRUE(AM.getSharing().sharedLocations().empty());
  EXPECT_EQ(AM.getSharing().numAccessStmts(), 0u);
  EXPECT_GE(AM.getRaces().numRaces(), 1u);
}

TEST(FacadeTest, DetectorConfigIsForwarded) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class H {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method handleEvent() { var o: Obj; var x: int; o = this.s; o.v = x; }
    }
    func main() {
      var s: Obj;
      var h1: H;
      var h2: H;
      s = new Obj;
      h1 = new H(s);
      h2 = new H(s);
      spawn h1.handleEvent();
      spawn h2.handleEvent();
    }
  )");
  AnalysisManager Serialized(*M);
  Serialized.run(AnalysisSet::defaultSet());
  EXPECT_EQ(Serialized.getRaces().numRaces(), 0u);

  O2Config NoSerial;
  NoSerial.SHB.SerializeEventHandlers = false;
  AnalysisManager Parallel(*M, NoSerial);
  Parallel.run(AnalysisSet::defaultSet());
  EXPECT_EQ(Parallel.getRaces().numRaces(), 1u);
}

TEST(FacadeTest, SummaryMentionsEveryPhase) {
  // The text view's header has one line per pass that ran, read from the
  // job record's counters.
  auto M = parseProgram(Program);
  AnalysisManager AM(*M);
  AM.run(AnalysisSet::defaultSet());
  EXPECT_EQ(AM.getPTA().options().name(), "1-origin");
  auto Render = [](AnalysisManager &Ran, AnalysisSet Analyses) {
    JobResult R;
    R.Name = "facade";
    R.Analyses = Analyses;
    recordJob(Ran, R);
    std::string Buf;
    StringOutputStream OS(Buf);
    printJobText(R, OS);
    return Buf;
  };
  std::string Buf = Render(AM, AnalysisSet::defaultSet());
  EXPECT_NE(Buf.find("pointer analysis:"), std::string::npos) << Buf;
  EXPECT_NE(Buf.find("sharing: 1 shared locations"), std::string::npos);
  EXPECT_NE(Buf.find("SHB: 3 threads"), std::string::npos);
  EXPECT_NE(Buf.find("==== 1 race(s) ===="), std::string::npos);

  // Passes that did not run have no line; no race section without the
  // detector.
  AnalysisManager PTAOnly(*M);
  PTAOnly.run({O2Phase::PTA});
  std::string Zero = Render(PTAOnly, {O2Phase::PTA});
  EXPECT_NE(Zero.find("pointer analysis:"), std::string::npos) << Zero;
  EXPECT_EQ(Zero.find("sharing:"), std::string::npos) << Zero;
  EXPECT_EQ(Zero.find("SHB:"), std::string::npos) << Zero;
  EXPECT_EQ(Zero.find("race(s)"), std::string::npos) << Zero;
}

TEST(FacadeTest, ConcurrentAnalysesKeepIndependentStatistics) {
  // Statistics are instance-based, not process-global: two analyses
  // running at the same time (the batch driver's normal mode) must each
  // produce exactly the counters a serial run produces. A shared mutable
  // registry would double-count under this interleaving.
  auto MA = parseProgram(Program);
  auto MB = parseProgram(R"(
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
  )");

  AnalysisManager SerialA(*MA), SerialB(*MB);
  SerialA.run(AnalysisSet::defaultSet());
  SerialB.run(AnalysisSet::defaultSet());

  for (int Round = 0; Round < 4; ++Round) {
    AnalysisManager ParA(*MA), ParB(*MB);
    std::thread TA([&] { ParA.run(AnalysisSet::defaultSet()); });
    std::thread TB([&] { ParB.run(AnalysisSet::defaultSet()); });
    TA.join();
    TB.join();
    EXPECT_EQ(ParA.getPTA().stats().counters(),
              SerialA.getPTA().stats().counters());
    EXPECT_EQ(ParB.getPTA().stats().counters(),
              SerialB.getPTA().stats().counters());
    EXPECT_EQ(ParA.getRaces().stats().counters(),
              SerialA.getRaces().stats().counters());
    EXPECT_EQ(ParB.getRaces().stats().counters(),
              SerialB.getRaces().stats().counters());
    EXPECT_EQ(ParA.getRaces().numRaces(), SerialA.getRaces().numRaces());
    EXPECT_EQ(ParB.getRaces().numRaces(), SerialB.getRaces().numRaces());
  }
}

} // namespace
