//===- PrecisionPropertyTest.cpp - property-based cross-analysis checks ---------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Parameterized (property-style) sweeps that pin the paper's
// cross-analysis claims, over small seeded workloads and over the DaCapo
// profiles of Tables 5, 7 and 8 (tests/paper relies on the latter):
//   1. the three detector optimizations never change the racy locations;
//   2. OPA's race report is a subset of the context-insensitive one
//      (0-ctx only adds false positives on these workloads);
//   3. intended races are always found;
//   4. OSA never reports more shared accesses than escape analysis;
//      more context depth never adds races (within the node budget);
//   5. the SHB threads' sharing table is an oracle for OSA's, on these
//      workloads and on the paper's corpora: both give the race detector
//      the same races, and the threads' table only adds locations one of
//      whose threads touches them inside a constructor alone;
//   6. under OPA, the SHB graph that stores only the accesses OSA flags
//      holds exactly the full graph's events that touch a shared
//      location, and the race, over-sync and deadlock reports read from
//      it are the full graph's.
//
//===----------------------------------------------------------------------===//

#include "ReportFacts.h"
#include "SmallProfile.h"

#include "o2/Analysis/AnalysisManager.h"
#include "o2/IR/Parser.h"
#include "o2/OSA/EscapeAnalysis.h"
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

/// A property's input: a small seeded workload, or one of the paper's
/// DaCapo table profiles. It prints as the seed or the profile name, which
/// ends the test's name.
struct PropertyInput {
  uint64_t Seed = 0;
  std::string Table; ///< empty for a seeded workload

  WorkloadProfile profile() const {
    return Table.empty() ? smallProfile(Seed) : profileNamed(Table);
  }
};

void PrintTo(const PropertyInput &In, std::ostream *OS) {
  if (In.Table.empty())
    *OS << In.Seed;
  else
    *OS << In.Table;
}

class PrecisionProperty : public ::testing::TestWithParam<PropertyInput> {};

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
  auto M = generateWorkload(GetParam().profile());

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
  auto M = generateWorkload(GetParam().profile());
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
  auto M = generateWorkload(GetParam().profile());

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
  WorkloadProfile P = GetParam().profile();
  auto M = generateWorkload(P);
  AnalysisManager A(*M);
  // Unprotected writes from multiple origins must surface as races.
  EXPECT_GE(A.getRaces().numRaces(), 1u);
  // And the race statistics are consistent.
  EXPECT_EQ(A.getRaces().stats().get("race.races"), A.getRaces().numRaces());
}

TEST_P(PrecisionProperty, OSANoLooserThanEscapeAnalysis) {
  auto M = generateWorkload(GetParam().profile());
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
  // patterns of depth 1..3 are resolved one by one). The ladder stops at
  // the tables' node budget: a result cut short is not a fixpoint.
  auto M = generateWorkload(GetParam().profile());
  unsigned Prev = ~0u;
  for (unsigned K : {0u, 1u, 2u, 3u}) {
    O2Config C;
    C.PTA.NodeBudget = 64'000;
    if (K == 0) {
      C.PTA.Kind = ContextKind::Insensitive;
    } else {
      C.PTA.Kind = ContextKind::KCallsite;
      C.PTA.K = K;
    }
    AnalysisManager A(*M, C);
    if (A.getPTA().hitBudget())
      break;
    unsigned N = A.getRaces().numRaces();
    EXPECT_LE(N, Prev) << "k=" << K;
    Prev = N;
  }
}

TEST_P(PrecisionProperty, HBImplementationsAgree) {
  // The integer-ID happens-before (reachability-row lookups) and the
  // naive per-event BFS must agree on every sampled query over a generated workload.
  auto M = generateWorkload(GetParam().profile());
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  SHBGraph G = buildSHBGraph(*PTA);
  uint64_t Rng =
      GetParam().profile().Seed * 0x9e3779b97f4a7c15ULL + 1;
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
  EXPECT_EQ(test::raceFacts(detectRaces(*PTA, SHB, OSA)),
            test::raceFacts(FromThreads));
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
  expectThreadTableAgreesWithOSA(*generateWorkload(GetParam().profile()));
}

/// Property 6 on \p PTA: the graph built with OSA's access flags against
/// the graph that stores every access.
void expectFilteredSHBMatchesFull(const PTAResult &PTA) {
  SharingResult OSA = runSharingAnalysis(PTA);
  SHBGraph Full = buildSHBGraph(PTA);
  SHBGraph Filtered = buildSHBGraph(PTA, {}, &OSA);

  ASSERT_EQ(Filtered.numThreads(), Full.numThreads());
  EXPECT_EQ(Filtered.numAccessEvents(), Full.numAccessEvents());
  auto TouchesShared = [&](const AccessEvent &E) {
    return std::any_of(E.Locs.begin(), E.Locs.end(),
                       [&](MemLoc Loc) { return OSA.isShared(Loc); });
  };
  for (unsigned T = 0; T != Full.numThreads(); ++T) {
    std::vector<const AccessEvent *> Want;
    for (const AccessEvent &E : Full.thread(T).Accesses)
      if (TouchesShared(E))
        Want.push_back(&E);
    const std::vector<AccessEvent> &Got = Filtered.thread(T).Accesses;
    ASSERT_EQ(Got.size(), Want.size()) << "thread " << T;
    for (size_t I = 0; I != Got.size(); ++I) {
      const AccessEvent &G = Got[I], &W = *Want[I];
      EXPECT_TRUE(G.S == W.S && G.Pos == W.Pos && G.Lockset == W.Lockset &&
                  G.LockRegion == W.LockRegion &&
                  G.RegionHasSync == W.RegionHasSync &&
                  G.IsWrite == W.IsWrite &&
                  std::equal(G.Locs.begin(), G.Locs.end(), W.Locs.begin(),
                             W.Locs.end()))
          << "thread " << T << ", event " << I;
    }
  }

  RaceReport RFull = detectRaces(PTA, Full, OSA);
  RaceReport RFiltered = detectRaces(PTA, Filtered, OSA);
  EXPECT_EQ(test::raceFacts(RFiltered), test::raceFacts(RFull));
  EXPECT_EQ(RFiltered.stats().counters(), RFull.stats().counters());
  EXPECT_EQ(test::overSyncFacts(detectOverSynchronization(OSA, Filtered)),
            test::overSyncFacts(detectOverSynchronization(OSA, Full)));
  EXPECT_EQ(test::deadlockFacts(detectDeadlocks(PTA, Filtered)),
            test::deadlockFacts(detectDeadlocks(PTA, Full)));
}

TEST_P(PrecisionProperty, FilteredSHBMatchesFull) {
  auto M = generateWorkload(GetParam().profile());
  expectFilteredSHBMatchesFull(*runPointerAnalysis(*M, PTAOptions()));
}

std::vector<PropertyInput> seedInputs() {
  std::vector<PropertyInput> Inputs;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    Inputs.push_back({Seed, ""});
  return Inputs;
}

std::vector<PropertyInput> tableInputs() {
  std::vector<PropertyInput> Inputs;
  for (const std::string &Name : dacapoProfiles())
    Inputs.push_back({0, Name});
  return Inputs;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrecisionProperty,
                         ::testing::ValuesIn(seedInputs()));
INSTANTIATE_TEST_SUITE_P(TableProfiles, PrecisionProperty,
                         ::testing::ValuesIn(tableInputs()));

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

TEST(PrecisionPropertyCorpora, FilteredSHBMatchesFull) {
  // Property 6 on every module of examples/oir and every bug model.
  for (const auto &Entry : std::filesystem::directory_iterator(O2_OIR_DIR)) {
    if (Entry.path().extension() != ".oir")
      continue;
    SCOPED_TRACE(Entry.path().filename().string());
    std::ifstream In(Entry.path());
    std::stringstream Src;
    Src << In.rdbuf();
    std::string Err;
    auto M = parseModule(Src.str(), Err);
    ASSERT_TRUE(M) << Err;
    expectFilteredSHBMatchesFull(*runPointerAnalysis(*M, PTAOptions()));
  }
  for (const BugModel &B : bugModels()) {
    SCOPED_TRACE(B.Name);
    auto M = buildBugModel(B);
    expectFilteredSHBMatchesFull(*runPointerAnalysis(*M, PTAOptions()));
  }
}

TEST(PrecisionPropertyCorpora, FilteredSHBMatchesFullUnderBudgetStop) {
  // Property 6 when the node budget stops PTA mid-solve: SHB also walks
  // call targets whose bodies PTA never processed, which are not in
  // instances(), and some of their accesses touch shared locations. A
  // filter by OSA's shared statements would drop those.
  auto M = generateWorkload(profileNamed("chrome"));
  PTAOptions Opts;
  Opts.NodeBudget = 400;
  auto PTA = runPointerAnalysis(*M, Opts);
  ASSERT_TRUE(PTA->hitBudget());
  size_t NumInInstances = 0;
  for (const auto &[F, C] : PTA->instances())
    NumInInstances += PTA->accesses(F, C).size();
  SharingResult OSA = runSharingAnalysis(*PTA);
  const std::vector<bool> &Flags = OSA.sharedAccesses();
  ASSERT_EQ(Flags.size(), PTA->accessTable().size());
  ASSERT_NE(std::find(Flags.begin() + NumInInstances, Flags.end(), true),
            Flags.end());
  expectFilteredSHBMatchesFull(*PTA);
}

} // namespace
