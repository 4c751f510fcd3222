//===- RaceEngineEquivalenceTest.cpp - race scan vs naive-HB oracle ------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The race scan's contract: answering happens-before from the SHB graph's
// reachability rows and lockset checks from its bit matrix gives the same
// races (location, statements, threads and write flags, in order) and
// equal statistics as the naive per-event BFS
// with the uncached lockset merge, on every bundled example and generated
// workload, with all optimizations on and with each one turned off alone,
// and under finite pair budgets.
//
//===----------------------------------------------------------------------===//

#include "o2/Race/RaceDetector.h"

#include "ReportFacts.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/Support/ThreadPool.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#ifndef O2_HEAVY_TESTS
#define O2_HEAVY_TESTS 0
#endif

using namespace o2;

namespace {

std::unique_ptr<Module> parseProgram(const std::string &Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_TRUE(M) << "parse error: " << Err;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors))
      << (Errors.empty() ? "?" : Errors.front());
  return M;
}

std::unique_ptr<Module> loadCase(const std::string &Name) {
  if (Name.rfind("oir_", 0) == 0) {
    std::ifstream In(std::string(O2_OIR_DIR) + "/" + Name.substr(4) + ".oir");
    EXPECT_TRUE(In.good()) << "cannot open " << Name;
    std::stringstream Buf;
    Buf << In.rdbuf();
    return parseProgram(Buf.str());
  }
  const WorkloadProfile *P = findProfile(Name);
  EXPECT_NE(P, nullptr) << Name;
  return generateWorkload(*P);
}

std::unique_ptr<PTAResult> runOPA(const Module &M) {
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  return runPointerAnalysis(M, Opts);
}

/// Stats minus "race.hb-index-segments", which only index-HB runs report.
std::map<std::string, uint64_t> comparableStats(const RaceReport &R) {
  std::map<std::string, uint64_t> Out = R.stats().counters();
  Out.erase("race.hb-index-segments");
  return Out;
}

/// The detector configurations the equivalence contract covers: the
/// defaults and each optimization toggled off alone.
std::vector<std::pair<std::string, RaceDetectorOptions>> toggleConfigs() {
  std::vector<std::pair<std::string, RaceDetectorOptions>> Configs(3);
  Configs[0].first = "defaults";
  Configs[1].first = "no-lockset-cache";
  Configs[1].second.CacheLocksetChecks = false;
  Configs[2].first = "no-region-merging";
  Configs[2].second.LockRegionMerging = false;
  return Configs;
}

/// The oracle for \p Opts: the same scan with naive HB and the uncached
/// lockset merge.
RaceDetectorOptions oracleOptions(const RaceDetectorOptions &Opts) {
  RaceDetectorOptions OracleOpts = Opts;
  OracleOpts.HB = RaceHBKind::Naive;
  OracleOpts.CacheLocksetChecks = false;
  return OracleOpts;
}

/// Checks detectRaces under \p Opts against \p Oracle, the report of
/// oracleOptions(Opts).
void expectMatches(const PTAResult &PTA, const SHBGraph &SHB,
                   const SharingResult &Sharing,
                   const RaceDetectorOptions &Opts, const RaceReport &Oracle,
                   const std::string &Tag) {
  RaceReport R = detectRaces(PTA, SHB, Sharing, Opts);
  EXPECT_EQ(test::raceFacts(R), test::raceFacts(Oracle)) << Tag;
  EXPECT_EQ(comparableStats(R), comparableStats(Oracle)) << Tag;
}

/// Checks detectRaces under \p Opts against its oracle.
void expectMatchesOracle(const PTAResult &PTA, const SHBGraph &SHB,
                         const SharingResult &Sharing,
                         const RaceDetectorOptions &Opts,
                         const std::string &Tag) {
  expectMatches(PTA, SHB, Sharing, Opts,
                detectRaces(PTA, SHB, Sharing, oracleOptions(Opts)), Tag);
}

/// Checks every toggleConfigs() entry against its oracle. The naive scan
/// is the expensive side, so each distinct oracle configuration runs once
/// (toggling the lockset cache does not change the oracle), and the
/// distinct ones run side by side.
void expectTogglesMatchOracles(const PTAResult &PTA, const SHBGraph &SHB,
                               const SharingResult &Sharing,
                               const std::string &Tag) {
  auto SameOracle = [](const RaceDetectorOptions &A,
                       const RaceDetectorOptions &B) {
    return A.HB == B.HB && A.CacheLocksetChecks == B.CacheLocksetChecks &&
           A.LockRegionMerging == B.LockRegionMerging &&
           A.MaxPairChecks == B.MaxPairChecks;
  };
  auto Configs = toggleConfigs();
  std::vector<RaceDetectorOptions> OracleOpts;
  std::vector<size_t> OracleOf; // by config
  for (const auto &[Name, Opts] : Configs) {
    RaceDetectorOptions O = oracleOptions(Opts);
    size_t I = 0;
    while (I != OracleOpts.size() && !SameOracle(OracleOpts[I], O))
      ++I;
    if (I == OracleOpts.size())
      OracleOpts.push_back(O);
    OracleOf.push_back(I);
  }
  std::vector<RaceReport> Oracles(OracleOpts.size());
  {
    ThreadPool Pool(static_cast<unsigned>(OracleOpts.size()));
    for (size_t I = 0; I != OracleOpts.size(); ++I)
      Pool.submit([&, I] {
        Oracles[I] = detectRaces(PTA, SHB, Sharing, OracleOpts[I]);
      });
    Pool.wait();
  }
  for (size_t C = 0; C != Configs.size(); ++C)
    expectMatches(PTA, SHB, Sharing, Configs[C].second, Oracles[OracleOf[C]],
                  Tag + "/" + Configs[C].first);
}

// The suite keeps the race engine's original name so its test IDs stay
// stable; the engine runs on the calling thread.
class ParallelRaceEngine : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelRaceEngine, ByteIdenticalToSerial) {
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  auto PTA = runOPA(*M);
  SHBGraph SHB = buildSHBGraph(*PTA);
  SharingResult Sharing = runSharingAnalysis(*PTA);
  expectTogglesMatchOracles(*PTA, SHB, Sharing, GetParam());
}

TEST_P(ParallelRaceEngine, SharedExternalPool) {
  // The batch driver's shape: independent jobs running the engine as
  // tasks of one shared pool. The engine keeps no state across calls, so
  // every concurrent run must match a run on the calling thread.
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  auto PTA = runOPA(*M);
  SHBGraph SHB = buildSHBGraph(*PTA);
  SharingResult Sharing = runSharingAnalysis(*PTA);
  std::string Golden = test::raceFacts(detectRaces(*PTA, SHB, Sharing));

  std::vector<std::string> Rendered(4);
  {
    ThreadPool Pool(4);
    for (std::string &Out : Rendered)
      Pool.submit([&Out, Name = GetParam()] {
        auto JobM = loadCase(Name);
        auto JobPTA = runOPA(*JobM);
        SHBGraph JobSHB = buildSHBGraph(*JobPTA);
        Out = test::raceFacts(
            detectRaces(*JobPTA, JobSHB, runSharingAnalysis(*JobPTA)));
      });
    Pool.wait();
  }
  for (const std::string &Out : Rendered)
    EXPECT_EQ(Out, Golden) << GetParam();
}

TEST_P(ParallelRaceEngine, SmallLocksetMatrixLimitStaysIdentical) {
  // The graph answers lockset checks from its bit matrix when the
  // interned universe fits the matrix limit and from the sorted merge
  // beyond it. Both must agree on every pair, so the limit can never
  // change a report.
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  auto PTA = runOPA(*M);
  SHBGraph SHB = buildSHBGraph(*PTA);
  for (LocksetId A = 0; A < SHB.numLocksets(); ++A)
    for (LocksetId B = 0; B < SHB.numLocksets(); ++B)
      ASSERT_EQ(SHB.locksetsIntersect(A, B),
                SHB.locksetsIntersectUncached(A, B))
          << GetParam() << " (" << A << "," << B << ")";
}

std::vector<std::string> engineCases() {
  std::vector<std::string> Cases = {
      "oir_racy_counter",   "oir_producer_consumer", "oir_event_thread_mix",
      "oir_fork_join",      "oir_locked_account",    "oir_lockfree_flag",
      "oir_nested_handlers"};
  for (const WorkloadProfile &P : benchmarkProfiles())
    Cases.push_back(P.Name);
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Corpus, ParallelRaceEngine,
                         ::testing::ValuesIn(engineCases()),
                         [](const auto &Info) { return Info.param; });

TEST(RaceScanBudget, FiniteBudgetMatchesSerialExactly) {
  // The scan order defines where a finite pair budget trips, whichever
  // way the pairs are decided.
  auto M = loadCase("oir_racy_counter");
  ASSERT_TRUE(M);
  auto PTA = runOPA(*M);
  SHBGraph SHB = buildSHBGraph(*PTA);
  SharingResult Sharing = runSharingAnalysis(*PTA);

  for (uint64_t Budget : {0ull, 1ull, 3ull, 1000ull}) {
    RaceDetectorOptions Opts;
    Opts.MaxPairChecks = Budget;
    expectMatchesOracle(*PTA, SHB, Sharing, Opts,
                          "budget " + std::to_string(Budget));
  }
}

/// A module whose interned lockset universe outgrows the engine's lockset
/// matrix limit (2048 locksets): thread P writes global gK under the K-th
/// pair of \p NumLocks locks; thread S writes it under the pair's first
/// lock when K is even (no race) and under no lock when K is odd (race).
/// Every lock gets its own local, since points-to is flow-insensitive.
std::string manyLocksetsProgram(unsigned NumLocks) {
  std::string Globals = "class Mutex { }\n";
  std::string Locals, Init, Load, Pairs, Singles;
  unsigned K = 0;
  for (unsigned I = 0; I < NumLocks; ++I) {
    std::string L = "l" + std::to_string(I);
    Globals += "global " + L + ": Mutex;\n";
    Locals += "  var " + L + ": Mutex;\n";
    Init += "  " + L + " = new Mutex; @" + L + " = " + L + ";\n";
    Load += "  " + L + " = @" + L + ";\n";
    for (unsigned J = I + 1; J < NumLocks; ++J, ++K) {
      std::string G = "@g" + std::to_string(K);
      std::string LJ = "l" + std::to_string(J);
      Globals += "global g" + std::to_string(K) + ": int;\n";
      Pairs += "  acquire " + L + "; acquire " + LJ + "; " + G +
               " = v; release " + LJ + "; release " + L + ";\n";
      Singles += K % 2 ? "  " + G + " = v;\n"
                       : "  acquire " + L + "; " + G + " = v; release " +
                             L + ";\n";
    }
  }
  std::string Prologue = Locals + "  var v: int;\n" + Load;
  return Globals + "class P { method run() {\n" + Prologue + Pairs +
         "} }\nclass S { method run() {\n" + Prologue + Singles +
         "} }\nfunc main() {\n" + Locals + "  var p: P;\n  var s: S;\n" +
         Init + "  p = new P;\n  s = new S;\n  spawn p.run();\n"
         "  spawn s.run();\n}\n";
}

TEST(RaceEngineEquivalence, LocksetUniverseBeyondMatrixLimit) {
  // 65 locks give 2080 lock pairs, so the graph answers lockset checks
  // with the sorted merge instead of the matrix.
  auto M = parseProgram(manyLocksetsProgram(65));
  ASSERT_TRUE(M);
  auto PTA = runOPA(*M);
  SHBGraph SHB = buildSHBGraph(*PTA);
  SharingResult Sharing = runSharingAnalysis(*PTA);
  ASSERT_GT(SHB.numLocksets(), 2048u);
  RaceReport R = detectRaces(*PTA, SHB, Sharing);
  EXPECT_EQ(R.numRaces(), 1040u);
  expectTogglesMatchOracles(*PTA, SHB, Sharing, "many-locksets");
}

TEST(SerialHBModes, IndexMatchesNaiveQueries) {
  // The acceptance oracle for the O(1) HB index: on every corpus module
  // the scan issues the same number of HB queries and reports the same
  // races whether queries go through the naive BFS or the precomputed
  // index. The naive BFS is quadratic in events per query, so the large
  // profiles stay out, as in HBIndexTest, unless the heavy tests are
  // built.
  for (const std::string &Name : engineCases()) {
    const WorkloadProfile *P = findProfile(Name);
    if (!O2_HEAVY_TESTS && P &&
        (P->PaddingFunctions > 100 || P->AmplifierFanOut > 12))
      continue;
    auto M = loadCase(Name);
    ASSERT_TRUE(M);
    auto PTA = runOPA(*M);
    SHBGraph SHB = buildSHBGraph(*PTA);
    SharingResult Sharing = runSharingAnalysis(*PTA);

    RaceDetectorOptions Naive;
    Naive.HB = RaceHBKind::Naive;
    RaceReport RNaive = detectRaces(*PTA, SHB, Sharing, Naive);
    RaceReport RIndex = detectRaces(*PTA, SHB, Sharing);
    EXPECT_EQ(test::raceFacts(RNaive), test::raceFacts(RIndex)) << Name;
    EXPECT_EQ(comparableStats(RNaive), comparableStats(RIndex)) << Name;
  }
}

} // namespace
