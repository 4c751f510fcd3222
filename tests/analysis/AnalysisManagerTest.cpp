//===- AnalysisManagerTest.cpp - Pass manager tests ---------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Covers the AnalysisManager: the result-sharing contract (one PTA / one
// SHB per module, asserted through invocation counters), lazy closure
// scheduling, config fingerprints (every option field and dependency
// fingerprints included), cancellation naming aux
// passes, `--analyses=` parsing, the OSA-vs-escape over-approximation
// the paper's Table 7 is built on, and how OSA, escape and SHB treat an
// access whose base points to nothing.
//
//===----------------------------------------------------------------------===//

#include "o2/Analysis/AnalysisManager.h"

#include "ReportFacts.h"
#include "o2/Driver/Driver.h"
#include "o2/IR/Parser.h"
#include "o2/Support/OutputStream.h"
#include "o2/Workload/BugModels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace o2;

namespace {

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

std::unique_ptr<Module> parse(const char *Source) {
  std::string Err;
  auto M = parseModule(Source, Err);
  EXPECT_TRUE(M) << Err;
  return M;
}

TEST(AnalysisManagerTest, SharedInfrastructureAcrossDetectors) {
  auto M = parse(RacyProgram);
  AnalysisManager AM(*M);
  EXPECT_TRUE(AM.run({O2Phase::Detect, O2Phase::Deadlock, O2Phase::OverSync,
                      O2Phase::OSA}));

  // The whole point of the manager: one PTA and one SHB feed the race
  // detector, the deadlock detector, and the over-sync analysis.
  EXPECT_EQ(AM.invocations(O2Phase::PTA), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::SHB), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::OSA), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::Detect), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::Deadlock), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::OverSync), 1u);

  // Accessors and repeated run() calls reuse the stored results.
  EXPECT_EQ(AM.getRaces().numRaces(), 1u);
  (void)AM.getDeadlocks();
  (void)AM.getOverSync();
  EXPECT_TRUE(AM.run({O2Phase::Detect, O2Phase::Deadlock}));
  EXPECT_EQ(AM.invocations(O2Phase::PTA), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::SHB), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::Detect), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::Deadlock), 1u);

  // Every ran pass reports wall-clock and the total includes them all.
  EXPECT_GT(AM.totalSeconds(), 0.0);
  double Sum = 0;
  for (unsigned K = 1; K < NumO2Phases; ++K)
    Sum += AM.seconds(static_cast<O2Phase>(K));
  EXPECT_DOUBLE_EQ(AM.totalSeconds(), Sum);
}

TEST(AnalysisManagerTest, LazyGettersComputeClosureOnDemand) {
  auto M = parse(RacyProgram);
  AnalysisManager AM(*M);
  EXPECT_FALSE(AM.ran(O2Phase::PTA));

  // getDeadlocks() pulls in exactly its dependency closure: PTA, OSA
  // (under OPA the SHB graph stores only what OSA calls shared) and SHB,
  // but not the race detector.
  (void)AM.getDeadlocks();
  EXPECT_TRUE(AM.ran(O2Phase::PTA));
  EXPECT_TRUE(AM.ran(O2Phase::OSA));
  EXPECT_TRUE(AM.ran(O2Phase::SHB));
  EXPECT_TRUE(AM.ran(O2Phase::Deadlock));
  EXPECT_FALSE(AM.ran(O2Phase::Detect));
  EXPECT_FALSE(AM.ran(O2Phase::RacerD));

  // Pulling the race report afterwards reuses all three.
  EXPECT_EQ(AM.getRaces().numRaces(), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::PTA), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::OSA), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::SHB), 1u);
}

TEST(AnalysisManagerTest, ManagerMatchesFacade) {
  // The default set gives what calling the four passes by hand gives.
  auto M = parse(RacyProgram);
  AnalysisManager AM(*M);
  AM.run(AnalysisSet::defaultSet());

  std::unique_ptr<PTAResult> PTA = runPointerAnalysis(*M, PTAOptions());
  SharingResult Sharing = runSharingAnalysis(*PTA);
  SHBGraph SHB = buildSHBGraph(*PTA);
  RaceReport Races = detectRaces(*PTA, SHB, Sharing);
  EXPECT_EQ(AM.getRaces().numRaces(), Races.numRaces());
  EXPECT_EQ(AM.getSharing().sharedLocations().size(),
            Sharing.sharedLocations().size());
  EXPECT_EQ(test::raceFacts(AM.getRaces()), test::raceFacts(Races));
}

TEST(AnalysisManagerTest, EveryOptionFieldReachesTheFingerprints) {
  // Every option field can change a result, so flipping any one changes
  // the fingerprint of the pass that reads it and of each pass that
  // depends on that one, and of no other pass.
  using Phases = std::initializer_list<O2Phase>;
  const Phases PTAAndDependents = {O2Phase::PTA,      O2Phase::OSA,
                                   O2Phase::SHB,      O2Phase::Detect,
                                   O2Phase::Deadlock, O2Phase::OverSync,
                                   O2Phase::Escape};
  const Phases SHBAndDependents = {O2Phase::SHB, O2Phase::Detect,
                                   O2Phase::Deadlock, O2Phase::OverSync};
  const Phases DetectOnly = {O2Phase::Detect};
  struct Flip {
    const char *Field;
    std::function<void(O2Config &)> Apply;
    Phases Changed;
  };
  OriginSpec ExtraEntry = OriginSpec::standard();
  ExtraEntry.addEntry("onTick", OriginKind::Event);
  const std::vector<Flip> Flips = {
      {"PTA.Kind", [](O2Config &C) { C.PTA.Kind = ContextKind::KCallsite; },
       PTAAndDependents},
      {"PTA.K", [](O2Config &C) { C.PTA.K = 2; }, PTAAndDependents},
      {"PTA.Spec", [&](O2Config &C) { C.PTA.Spec = ExtraEntry; },
       PTAAndDependents},
      // Not a performance knob: it decides whether the analysis completes.
      {"PTA.NodeBudget",
       [](O2Config &C) { C.PTA.NodeBudget = C.PTA.NodeBudget / 2 + 1; },
       PTAAndDependents},
      {"SHB.SerializeEventHandlers",
       [](O2Config &C) { C.SHB.SerializeEventHandlers = false; },
       SHBAndDependents},
      {"SHB.MaxThreads", [](O2Config &C) { C.SHB.MaxThreads = 7; },
       SHBAndDependents},
      {"SHB.MaxEventsPerThread",
       [](O2Config &C) { C.SHB.MaxEventsPerThread = 1000; },
       SHBAndDependents},
      {"Detector.HB", [](O2Config &C) { C.Detector.HB = RaceHBKind::Naive; },
       DetectOnly},
      {"Detector.CacheLocksetChecks",
       [](O2Config &C) { C.Detector.CacheLocksetChecks = false; }, DetectOnly},
      {"Detector.LockRegionMerging",
       [](O2Config &C) { C.Detector.LockRegionMerging = false; }, DetectOnly},
      {"Detector.MaxPairChecks",
       [](O2Config &C) { C.Detector.MaxPairChecks = 1000; }, DetectOnly},
  };

  const O2Config Base;
  for (const Flip &F : Flips) {
    O2Config Flipped;
    F.Apply(Flipped);
    for (unsigned K = 1; K < NumO2Phases; ++K) {
      O2Phase P = static_cast<O2Phase>(K);
      bool Expected = std::find(F.Changed.begin(), F.Changed.end(), P) !=
                      F.Changed.end();
      EXPECT_EQ(passFingerprint(P, Base) != passFingerprint(P, Flipped),
                Expected)
          << F.Field << " vs the fingerprint of " << phaseName(P);
    }
    EXPECT_NE(analysisSetFingerprint(AnalysisSet::all(), Base),
              analysisSetFingerprint(AnalysisSet::all(), Flipped))
        << F.Field;
  }
}

TEST(AnalysisManagerTest, FingerprintTracksResultAffectingOptions) {
  O2Config Base;

  // PTA options propagate to every dependent pass.
  O2Config Deeper;
  Deeper.PTA.K = 2;
  EXPECT_NE(passFingerprint(O2Phase::PTA, Base),
            passFingerprint(O2Phase::PTA, Deeper));
  EXPECT_NE(passFingerprint(O2Phase::Detect, Base),
            passFingerprint(O2Phase::Detect, Deeper));
  EXPECT_NE(passFingerprint(O2Phase::Deadlock, Base),
            passFingerprint(O2Phase::Deadlock, Deeper));
  // ...but not to the PTA-independent syntactic baseline.
  EXPECT_EQ(passFingerprint(O2Phase::RacerD, Base),
            passFingerprint(O2Phase::RacerD, Deeper));

  // Detector options stay local to the detector.
  O2Config Naive;
  Naive.Detector.HB = RaceHBKind::Naive;
  EXPECT_EQ(passFingerprint(O2Phase::PTA, Base),
            passFingerprint(O2Phase::PTA, Naive));
  EXPECT_NE(passFingerprint(O2Phase::Detect, Base),
            passFingerprint(O2Phase::Detect, Naive));

  // SHB options reach the detector through the dependency closure.
  O2Config NoSerialize;
  NoSerialize.SHB.SerializeEventHandlers = false;
  EXPECT_EQ(passFingerprint(O2Phase::PTA, Base),
            passFingerprint(O2Phase::PTA, NoSerialize));
  EXPECT_NE(passFingerprint(O2Phase::SHB, Base),
            passFingerprint(O2Phase::SHB, NoSerialize));
  EXPECT_NE(passFingerprint(O2Phase::Detect, Base),
            passFingerprint(O2Phase::Detect, NoSerialize));

  O2Config K2;
  K2.PTA.Kind = ContextKind::KCallsite;
  K2.PTA.K = 2;
  EXPECT_NE(passFingerprint(O2Phase::PTA, Base),
            passFingerprint(O2Phase::PTA, K2));
}

TEST(AnalysisManagerTest, SetFingerprintCoversRequestedClosure) {
  O2Config Cfg;
  uint64_t Race = analysisSetFingerprint({O2Phase::Detect}, Cfg);
  uint64_t RaceDeadlock =
      analysisSetFingerprint({O2Phase::Detect, O2Phase::Deadlock}, Cfg);
  uint64_t Default = analysisSetFingerprint(AnalysisSet::defaultSet(), Cfg);
  uint64_t Deadlock = analysisSetFingerprint({O2Phase::Deadlock}, Cfg);
  EXPECT_NE(Race, RaceDeadlock);
  EXPECT_NE(Deadlock, RaceDeadlock);
  // The race pass depends on OSA, so the default set is its closure.
  EXPECT_EQ(Race, Default);
  // Deterministic across calls.
  EXPECT_EQ(RaceDeadlock,
            analysisSetFingerprint({O2Phase::Deadlock, O2Phase::Detect}, Cfg));
}

TEST(AnalysisManagerTest, CancellationNamesAuxPass) {
  auto M = parse(RacyProgram);

  // A pre-cancelled token with a RacerD-only request: RacerD has no
  // dependencies, so it is the first pass to observe the token — the
  // recorded phase is the aux analysis itself, not "pta".
  CancellationToken Cancelled;
  Cancelled.cancel();
  AnalysisManager AM(*M, O2Config(), &Cancelled);
  EXPECT_FALSE(AM.run({O2Phase::RacerD}));
  EXPECT_TRUE(AM.cancelled());
  EXPECT_EQ(AM.cancelledIn(), O2Phase::RacerD);
  EXPECT_STREQ(phaseName(AM.cancelledIn()), "racerd");

  // Cancel firing between two run() calls: the completed results stay,
  // the newly requested aux pass is the one that reports the stop.
  CancellationToken Token;
  AnalysisManager AM2(*M, O2Config(), &Token);
  EXPECT_TRUE(AM2.run({O2Phase::Detect}));
  EXPECT_EQ(AM2.getRaces().numRaces(), 1u);
  Token.cancel();
  EXPECT_FALSE(AM2.run({O2Phase::Deadlock}));
  EXPECT_EQ(AM2.cancelledIn(), O2Phase::Deadlock);
  EXPECT_STREQ(phaseName(AM2.cancelledIn()), "deadlock");
  // The race report computed before the cancel survives untouched.
  EXPECT_TRUE(AM2.ran(O2Phase::Detect));
  EXPECT_EQ(AM2.getRaces().numRaces(), 1u);
}

TEST(AnalysisManagerTest, EscapeOverApproximatesOSA) {
  // Table 7 direction: the thread-escape baseline must never report
  // fewer shared accesses than OSA, and every object OSA finds shared
  // must be escaped. Checked over every built-in bug model.
  for (const BugModel &Model : bugModels()) {
    auto M = buildBugModel(Model);
    ASSERT_TRUE(M);
    AnalysisManager AM(*M);
    ASSERT_TRUE(AM.run({O2Phase::OSA, O2Phase::Escape})) << Model.Name;
    const SharingResult &Sharing = AM.getSharing();
    const EscapeResult &Escape = AM.getEscape();

    EXPECT_EQ(AM.invocations(O2Phase::PTA), 1u) << Model.Name;
    EXPECT_GE(Escape.numSharedAccessStmts(), Sharing.numSharedAccessStmts())
        << Model.Name;
    for (MemLoc Loc : Sharing.sharedLocations()) {
      if (Loc.isGlobal())
        continue; // statics are trivially escaped in the baseline
      EXPECT_TRUE(Escape.isEscaped(Loc.object()))
          << Model.Name << ": OSA-shared object " << Loc.object()
          << " not escaped";
    }
  }
}

TEST(AnalysisManagerTest, AccessWithEmptyBaseIsCountedButNotTraced) {
  // `a.g` dereferences a field that is never stored, so its base points
  // to nothing. OSA and escape still count it as an access statement;
  // SHB records no event for it, since it touches no location. The
  // manager's graph, which stores only accesses OSA calls shared, stores
  // neither access but still counts `o.f`.
  auto M = parse(R"(
    class Inner { field g: int; }
    class Outer { field f: Inner; }
    func main() {
      var o: Outer;
      var a: Inner;
      var x: int;
      o = new Outer;
      a = o.f;
      x = a.g;
    }
  )");
  AnalysisManager AM(*M);
  ASSERT_TRUE(AM.run({O2Phase::OSA, O2Phase::SHB, O2Phase::Escape}));
  const Stmt *LoadF = M->getMain()->body()[1].get();
  const Stmt *LoadG = M->getMain()->body()[2].get();
  ASSERT_TRUE(isa<FieldLoadStmt>(LoadG));

  ArrayRef<Access> Accesses = AM.getPTA().accesses(M->getMain(), 0);
  ASSERT_EQ(Accesses.size(), 2u);
  EXPECT_EQ(Accesses[1].S, LoadG);
  EXPECT_TRUE(Accesses[1].Locs.empty());

  StatisticRegistry Stats = AM.stats();
  EXPECT_EQ(Stats.get("osa.access-stmts"), 2u);
  EXPECT_EQ(Stats.get("escape.access-stmts"), 2u);

  SHBGraph SHB = buildSHBGraph(AM.getPTA());
  ASSERT_EQ(SHB.numThreads(), 1u);
  ASSERT_EQ(SHB.thread(0).Accesses.size(), 1u);
  EXPECT_EQ(SHB.thread(0).Accesses[0].S, LoadF);

  const SHBGraph &Filtered = AM.getSHB();
  ASSERT_EQ(Filtered.numThreads(), 1u);
  EXPECT_TRUE(Filtered.thread(0).Accesses.empty());
  EXPECT_EQ(Filtered.numAccessEvents(), 1u);
}

TEST(AnalysisManagerTest, ParseAnalysisSetSpellings) {
  AnalysisSet Set;
  std::string Err;

  ASSERT_TRUE(parseAnalysisSet("race,deadlock,oversync", Set, Err)) << Err;
  EXPECT_TRUE(Set.contains(O2Phase::Detect));
  EXPECT_TRUE(Set.contains(O2Phase::Deadlock));
  EXPECT_TRUE(Set.contains(O2Phase::OverSync));
  EXPECT_FALSE(Set.contains(O2Phase::RacerD));
  // Canonical rendering is schedule order, independent of input order.
  EXPECT_EQ(Set.str(), "race,deadlock,oversync");
  AnalysisSet Shuffled;
  ASSERT_TRUE(parseAnalysisSet("oversync,race,deadlock", Shuffled, Err));
  EXPECT_EQ(Shuffled.str(), Set.str());
  EXPECT_TRUE(Shuffled == Set);

  ASSERT_TRUE(parseAnalysisSet("all", Set, Err));
  EXPECT_TRUE(Set == AnalysisSet::all());

  // Infrastructure passes can be named explicitly.
  ASSERT_TRUE(parseAnalysisSet("pta,shb", Set, Err));
  EXPECT_TRUE(Set.contains(O2Phase::PTA));
  EXPECT_TRUE(Set.contains(O2Phase::SHB));

  EXPECT_FALSE(parseAnalysisSet("race,bogus", Set, Err));
  EXPECT_NE(Err.find("bogus"), std::string::npos);
  EXPECT_FALSE(parseAnalysisSet("", Set, Err));
}

TEST(AnalysisManagerTest, StatsAndJSONCoverAuxPasses) {
  auto M = parse(RacyProgram);
  AnalysisManager AM(*M);
  AM.run(AnalysisSet::all());

  StatisticRegistry Stats = AM.stats();
  EXPECT_GT(Stats.get("pta.pointer-nodes"), 0u);
  EXPECT_EQ(Stats.get("race.races"), 1u);
  EXPECT_GT(Stats.get("racerd.warnings"), 0u);
  EXPECT_GT(Stats.get("escape.objects"), 0u);

  JobResult R;
  R.Analyses = AnalysisSet::all();
  recordJob(AM, R);
  std::string Buf;
  StringOutputStream OS(Buf);
  printJobRecord(R, OS, /*IncludeTimings=*/true);
  EXPECT_NE(Buf.find("\"analyses\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"time.pta-ms\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"time.racerd-ms\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"time.total-ms\":"), std::string::npos);
}

} // namespace
