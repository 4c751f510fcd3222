//===- LocksetIntersectTest.cpp - lockset intersection property tests -----------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The two lockset-intersection implementations must agree with a
// reference merge on every pair of interned locksets of every corpus
// module: `locksetsIntersect` (the bit matrix the SHB builder precomputes
// when the universe has at most 2048 locksets, the sorted merge beyond)
// and `locksetsIntersectUncached` (the merge, with lockset caching off).
// A disagreement would make race verdicts depend on the configuration, so
// this is a property test over the whole interned universe, not spot
// checks.
//
//===----------------------------------------------------------------------===//

#include "o2/SHB/SHBGraph.h"

#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

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

SHBGraph buildGraph(const Module &M) {
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(M, Opts);
  return buildSHBGraph(*PTA);
}

/// Reference semantics straight off the interned element lists: two
/// locksets intersect iff they share an element (both lists are sorted
/// canonical forms, so a merge walk is exact).
bool refIntersect(const SHBGraph &G, LocksetId A, LocksetId B) {
  auto EA = G.locksetElems(A);
  auto EB = G.locksetElems(B);
  size_t I = 0, J = 0;
  while (I < EA.size() && J < EB.size()) {
    if (EA[I] == EB[J])
      return true;
    if (EA[I] < EB[J])
      ++I;
    else
      ++J;
  }
  return false;
}

class LocksetIntersect : public ::testing::TestWithParam<std::string> {};

TEST_P(LocksetIntersect, AllImplementationsAgreeOnAllInternedPairs) {
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  SHBGraph G = buildGraph(*M);

  size_t N = G.numLocksets();
  ASSERT_GE(N, 1u) << "empty lockset is always interned";

  for (LocksetId A = 0; A < N; ++A) {
    for (LocksetId B = 0; B < N; ++B) {
      bool Ref = refIntersect(G, A, B);
      EXPECT_EQ(G.locksetsIntersect(A, B), Ref)
          << GetParam() << " cached (" << A << "," << B << ")";
      EXPECT_EQ(G.locksetsIntersectUncached(A, B), Ref)
          << GetParam() << " uncached (" << A << "," << B << ")";
    }
  }
}

TEST_P(LocksetIntersect, EmptyLocksetAndSymmetry) {
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  SHBGraph G = buildGraph(*M);

  size_t N = G.numLocksets();
  for (LocksetId A = 0; A < N; ++A) {
    // Lockset 0 is the empty lockset: it never intersects anything,
    // including itself.
    EXPECT_FALSE(G.locksetsIntersect(0, A)) << GetParam() << " id " << A;
    EXPECT_FALSE(G.locksetsIntersect(A, 0)) << GetParam() << " id " << A;
    // A non-empty lockset always intersects itself.
    EXPECT_EQ(G.locksetsIntersect(A, A), A != 0)
        << GetParam() << " id " << A;
    for (LocksetId B = A + 1; B < N; ++B)
      EXPECT_EQ(G.locksetsIntersect(A, B), G.locksetsIntersect(B, A))
          << GetParam() << " (" << A << "," << B << ")";
  }
}

std::vector<std::string> locksetCases() {
  std::vector<std::string> Cases = {
      "oir_locked_account", "oir_producer_consumer", "oir_racy_counter",
      "oir_event_thread_mix", "oir_nested_handlers"};
  for (const WorkloadProfile &P : benchmarkProfiles())
    Cases.push_back(P.Name);
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Corpus, LocksetIntersect,
                         ::testing::ValuesIn(locksetCases()),
                         [](const auto &Info) { return Info.param; });

} // namespace
