//===- PrecisionPropertyTest.cpp - property-based cross-analysis checks ---------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Parameterized (property-style) sweeps over generated workloads that pin
// the paper's cross-analysis claims:
//   1. the three detector optimizations never change the racy locations;
//   2. OPA's race report is a subset of the context-insensitive one
//      (0-ctx only adds false positives on these workloads);
//   3. intended races are always found;
//   4. OSA never reports more shared accesses than escape analysis;
//   5. the SHB threads' sharing table is an oracle for OSA's, on these
//      workloads and on the paper's corpora: both give the race detector
//      the same races, and the threads' table only adds locations one of
//      whose threads touches them inside a constructor alone.
//
//===----------------------------------------------------------------------===//

#include "SmallProfile.h"

#include "o2/Analysis/AnalysisManager.h"
#include "o2/IR/Parser.h"
#include "o2/OSA/EscapeAnalysis.h"
#include "o2/Support/OutputStream.h"
#include "o2/Workload/BugModels.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace o2;

namespace {

class PrecisionProperty : public ::testing::TestWithParam<uint64_t> {};

std::set<uint64_t> raceLocs(const RaceReport &R) {
  std::set<uint64_t> Locs;
  for (const Race &Rc : R.races())
    Locs.insert(Rc.Loc.key());
  return Locs;
}

std::set<std::pair<unsigned, unsigned>> racePairs(const RaceReport &R) {
  std::set<std::pair<unsigned, unsigned>> Pairs;
  for (const Race &Rc : R.races())
    Pairs.insert({Rc.A->getId(), Rc.B->getId()});
  return Pairs;
}

TEST_P(PrecisionProperty, OptimizationsPreserveRacyLocations) {
  auto M = generateWorkload(smallProfile(GetParam()));

  O2Config Optimized;
  AnalysisManager A(*M, Optimized);

  O2Config Naive;
  Naive.Detector.HB = RaceHBKind::Naive;
  Naive.Detector.CacheLocksetChecks = false;
  Naive.Detector.LockRegionMerging = false;
  AnalysisManager B(*M, Naive);

  EXPECT_EQ(raceLocs(A.getRaces()), raceLocs(B.getRaces()));
  EXPECT_LE(A.getRaces().numRaces(), B.getRaces().numRaces());
  // Optimized races are a subset of naive races (pairwise).
  auto NaivePairs = racePairs(B.getRaces());
  for (const auto &P : racePairs(A.getRaces()))
    EXPECT_TRUE(NaivePairs.count(P));
}

TEST_P(PrecisionProperty, EachOptimizationAloneIsSound) {
  auto M = generateWorkload(smallProfile(GetParam()));
  O2Config Base;
  Base.Detector.HB = RaceHBKind::Naive;
  Base.Detector.CacheLocksetChecks = false;
  Base.Detector.LockRegionMerging = false;
  std::set<uint64_t> Expected =
      raceLocs(AnalysisManager(*M, Base).getRaces());

  for (unsigned Opt = 0; Opt < 3; ++Opt) {
    O2Config C = Base;
    if (Opt == 0)
      C.Detector.HB = RaceHBKind::Index;
    if (Opt == 1)
      C.Detector.CacheLocksetChecks = true;
    if (Opt == 2)
      C.Detector.LockRegionMerging = true;
    EXPECT_EQ(raceLocs(AnalysisManager(*M, C).getRaces()), Expected)
        << "optimization " << Opt;
  }
}

TEST_P(PrecisionProperty, OriginRacesSubsetOfInsensitiveRaces) {
  auto M = generateWorkload(smallProfile(GetParam()));

  O2Config OPA;
  AnalysisManager A(*M, OPA);

  O2Config Insensitive;
  Insensitive.PTA.Kind = ContextKind::Insensitive;
  AnalysisManager B(*M, Insensitive);

  auto CoarsePairs = racePairs(B.getRaces());
  for (const auto &P : racePairs(A.getRaces()))
    EXPECT_TRUE(CoarsePairs.count(P))
        << "race missed by 0-ctx: stmts " << P.first << "," << P.second;
  EXPECT_LE(A.getRaces().numRaces(), B.getRaces().numRaces());
}

TEST_P(PrecisionProperty, IntendedRacesAreFound) {
  WorkloadProfile P = smallProfile(GetParam());
  auto M = generateWorkload(P);
  AnalysisManager A(*M);
  // Unprotected writes from multiple origins must surface as races.
  EXPECT_GE(A.getRaces().numRaces(), 1u);
  // And the race statistics are consistent.
  EXPECT_EQ(A.getRaces().stats().get("race.races"), A.getRaces().numRaces());
}

TEST_P(PrecisionProperty, OSANoLooserThanEscapeAnalysis) {
  auto M = generateWorkload(smallProfile(GetParam()));
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  SharingResult OSA = runSharingAnalysis(*PTA);
  EscapeResult Escape = runEscapeAnalysis(*PTA);
  EXPECT_LE(OSA.numSharedAccessStmts(), Escape.numSharedAccessStmts());
  EXPECT_EQ(OSA.numAccessStmts(), Escape.numAccessStmts());
}

TEST_P(PrecisionProperty, KCFAPrecisionGradation) {
  // More context depth => no more races (on these workloads the local
  // patterns of depth 1..3 are resolved one by one).
  auto M = generateWorkload(smallProfile(GetParam()));
  unsigned Prev = ~0u;
  for (unsigned K : {0u, 1u, 2u, 3u}) {
    O2Config C;
    if (K == 0) {
      C.PTA.Kind = ContextKind::Insensitive;
    } else {
      C.PTA.Kind = ContextKind::KCallsite;
      C.PTA.K = K;
    }
    unsigned N = AnalysisManager(*M, C).getRaces().numRaces();
    EXPECT_LE(N, Prev) << "k=" << K;
    Prev = N;
  }
}

TEST_P(PrecisionProperty, HBImplementationsAgree) {
  // The integer-ID happens-before (reachability-row lookups) and the
  // naive per-event BFS must agree on every sampled query over a generated workload.
  auto M = generateWorkload(smallProfile(GetParam()));
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  SHBGraph G = buildSHBGraph(*PTA);
  uint64_t Rng = GetParam() * 0x9e3779b97f4a7c15ULL + 1;
  auto Next = [&Rng] {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  };
  for (unsigned I = 0; I < 400; ++I) {
    unsigned T1 = static_cast<unsigned>(Next() % G.numThreads());
    unsigned T2 = static_cast<unsigned>(Next() % G.numThreads());
    uint32_t N1 = std::max(G.thread(T1).NumEvents, 1u);
    uint32_t N2 = std::max(G.thread(T2).NumEvents, 1u);
    uint32_t P1 = static_cast<uint32_t>(Next() % N1);
    uint32_t P2 = static_cast<uint32_t>(Next() % N2);
    ASSERT_EQ(G.happensBefore(T1, P1, T2, P2),
              G.happensBeforeNaive(T1, P1, T2, P2))
        << "(" << T1 << "," << P1 << ") vs (" << T2 << "," << P2 << ")";
  }
}

std::string renderRaces(const RaceReport &R, const PTAResult &PTA) {
  std::string Out;
  StringOutputStream OS(Out);
  R.print(OS, PTA);
  return Out;
}

/// Property 5 on one module, under OPA: the race detector reports the
/// same races from OSA's sharing table as from the SHB threads' table, so
/// every racy location is OSA-shared; every OSA-shared location is
/// thread-shared; and a location that only the threads' table calls
/// shared has a thread whose every access to it is inside `init` (SHB
/// traces a constructor in the allocating thread, OPA charges it to the
/// new origin).
void expectThreadTableAgreesWithOSA(const Module &M) {
  auto PTA = runPointerAnalysis(M, PTAOptions());
  SHBGraph SHB = buildSHBGraph(*PTA);
  SharingResult OSA = runSharingAnalysis(*PTA);
  SharingResult Threads = runThreadSharing(SHB);

  RaceReport FromThreads = detectRaces(*PTA, SHB, Threads);
  EXPECT_EQ(renderRaces(detectRaces(*PTA, SHB, OSA), *PTA),
            renderRaces(FromThreads, *PTA));
  for (const Race &Rc : FromThreads.races())
    EXPECT_TRUE(OSA.isShared(Rc.Loc))
        << "racy location not OSA-shared: " << Rc.Loc.toString(*PTA);
  for (MemLoc Loc : OSA.sharedLocations())
    EXPECT_TRUE(Threads.isShared(Loc))
        << "OSA-shared, not thread-shared: " << Loc.toString(*PTA);

  // Per location in the gap: thread -> "every access is inside init".
  std::map<uint64_t, std::map<unsigned, bool>> OnlyInInit;
  for (MemLoc Loc : Threads.sharedLocations())
    if (!OSA.isShared(Loc))
      OnlyInInit[Loc.key()];
  for (const ThreadInfo &T : SHB.threads())
    for (const AccessEvent &E : T.Accesses)
      for (MemLoc Loc : E.Locs) {
        auto It = OnlyInInit.find(Loc.key());
        if (It == OnlyInInit.end())
          continue;
        const Function *F = E.S->getFunction();
        bool InInit = F->isMethod() && F->getName() == "init";
        It->second.emplace(T.Id, true).first->second &= InInit;
      }
  for (MemLoc Loc : Threads.sharedLocations()) {
    if (OSA.isShared(Loc))
      continue;
    const auto &PerThread = OnlyInInit[Loc.key()];
    EXPECT_TRUE(std::any_of(PerThread.begin(), PerThread.end(),
                            [](const auto &TI) { return TI.second; }))
        << "thread-shared, not OSA-shared, and no thread touches it in "
           "init alone: "
        << Loc.toString(*PTA);
  }
}

TEST_P(PrecisionProperty, RacyLocationsAreOSAShared) {
  expectThreadTableAgreesWithOSA(*generateWorkload(smallProfile(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrecisionProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(PrecisionPropertyCorpora, RacyLocationsAreOSAShared) {
  // Property 5 on every module of examples/oir, every benchmark profile
  // (the Table 5 set) and every bug model. None is filtered for run time.
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(O2_OIR_DIR))
    if (Entry.path().extension() == ".oir")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  for (const auto &Path : Files) {
    SCOPED_TRACE(Path.filename().string());
    std::ifstream In(Path);
    std::stringstream Src;
    Src << In.rdbuf();
    std::string Err;
    auto M = parseModule(Src.str(), Err);
    ASSERT_TRUE(M) << Err;
    expectThreadTableAgreesWithOSA(*M);
  }
  for (const WorkloadProfile &P : benchmarkProfiles()) {
    SCOPED_TRACE(P.Name);
    expectThreadTableAgreesWithOSA(*generateWorkload(P));
  }
  for (const BugModel &B : bugModels()) {
    SCOPED_TRACE(B.Name);
    expectThreadTableAgreesWithOSA(*buildBugModel(B));
  }
}

} // namespace
