//===- RacerDLikeEquivalenceTest.cpp - class scan vs pairwise reference -------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The RacerD-like detector tests pairs of access classes (function,
// lockset, is-write) instead of pairs of accesses. Its contract: the same
// warnings (kind, location, statements, order) and the same potential-race
// count as the straightforward pairwise scan, kept here as a test-local
// reference that shares no code with the pass.
//
//===----------------------------------------------------------------------===//

#include "o2/Race/RacerDLike.h"

#include "o2/IR/Parser.h"
#include "o2/IR/Printer.h"
#include "o2/IR/Verifier.h"
#include "o2/Support/Casting.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace o2;

namespace {

struct ReferenceReport {
  std::vector<RacerDWarning> Warnings;
  unsigned NumPotentialRaces = 0;
  bool Cancelled = false;
};

/// The pairwise RacerD-like scan: every pair of accesses per location,
/// root sets as std::set, locksets as sets of lock names, first hit per
/// function pair wins.
class PairwiseRacerD {
public:
  PairwiseRacerD(const Module &M, const CancellationToken *Cancel)
      : M(M), Cancel(Cancel) {}

  ReferenceReport run() {
    buildNameIndex();
    computeRootReachability();
    if (!R.Cancelled)
      collectAccesses();
    if (!R.Cancelled)
      emitWarnings();
    return std::move(R);
  }

private:
  struct Access {
    const Stmt *S;
    const Function *F;
    bool IsWrite;
    std::set<std::string> LockNames;
  };

  void buildNameIndex() {
    for (const auto &F : M.functions())
      if (F->isMethod())
        MethodsByName[F->getName()].push_back(F.get());
  }

  void callees(const Function *F, std::vector<const Function *> &Out) {
    for (const auto &SPtr : F->body()) {
      if (const auto *Call = dyn_cast<CallStmt>(SPtr.get())) {
        if (Call->isVirtual()) {
          auto It = MethodsByName.find(Call->getMethodName());
          if (It != MethodsByName.end())
            Out.insert(Out.end(), It->second.begin(), It->second.end());
        } else {
          Out.push_back(Call->getDirectCallee());
        }
      } else if (const auto *A = dyn_cast<AllocStmt>(SPtr.get())) {
        if (const Function *Init = A->getAllocType()->findMethod("init"))
          Out.push_back(Init);
      }
    }
  }

  void computeRootReachability() {
    std::vector<const Function *> Roots;
    if (const Function *Main = M.getMain())
      Roots.push_back(Main);
    std::set<std::string> SpawnEntryNames;
    for (const auto &F : M.functions())
      for (const auto &SPtr : F->body())
        if (const auto *Sp = dyn_cast<SpawnStmt>(SPtr.get()))
          SpawnEntryNames.insert(Sp->getEntryName());
    for (const std::string &Name : SpawnEntryNames) {
      auto It = MethodsByName.find(Name);
      if (It == MethodsByName.end())
        continue;
      for (const Function *Entry : It->second)
        Roots.push_back(Entry);
    }
    for (size_t RootIdx = 0; RootIdx != Roots.size(); ++RootIdx) {
      std::deque<const Function *> Queue{Roots[RootIdx]};
      std::set<const Function *> Visited;
      while (!Queue.empty()) {
        if (pollCancelled(Cancel)) {
          R.Cancelled = true;
          return;
        }
        const Function *F = Queue.front();
        Queue.pop_front();
        if (!Visited.insert(F).second)
          continue;
        RootsOf[F].insert(static_cast<unsigned>(RootIdx));
        std::vector<const Function *> Out;
        callees(F, Out);
        for (const Function *Callee : Out)
          Queue.push_back(Callee);
      }
    }
  }

  static std::string fieldKeyName(const Field *Fld) {
    return Fld->getParent()->getName() + "." + Fld->getName();
  }

  static std::set<const Variable *> ownedVariables(const Function *F) {
    std::set<const Variable *> Owned;
    std::set<const Variable *> Tainted;
    for (const auto &SPtr : F->body()) {
      const Stmt &S = *SPtr;
      if (const auto *A = dyn_cast<AllocStmt>(&S)) {
        Owned.insert(A->getTarget());
      } else if (const auto *A = dyn_cast<ArrayAllocStmt>(&S)) {
        Owned.insert(A->getTarget());
      } else if (const auto *A = dyn_cast<AssignStmt>(&S)) {
        Tainted.insert(A->getTarget());
      } else if (const auto *L = dyn_cast<FieldLoadStmt>(&S)) {
        Tainted.insert(L->getTarget());
      } else if (const auto *L = dyn_cast<ArrayLoadStmt>(&S)) {
        Tainted.insert(L->getTarget());
      } else if (const auto *L = dyn_cast<GlobalLoadStmt>(&S)) {
        Tainted.insert(L->getTarget());
      } else if (const auto *C = dyn_cast<CallStmt>(&S)) {
        if (C->getTarget())
          Tainted.insert(C->getTarget());
      }
    }
    for (const Variable *V : Tainted)
      Owned.erase(V);
    return Owned;
  }

  void collectAccesses() {
    for (const auto &FPtr : M.functions()) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        return;
      }
      const Function *F = FPtr.get();
      if (!RootsOf.count(F))
        continue;
      std::set<const Variable *> Owned = ownedVariables(F);
      std::vector<std::string> LockStack;
      for (const auto &SPtr : F->body()) {
        const Stmt &S = *SPtr;
        std::string Key;
        bool IsWrite = false;
        switch (S.getKind()) {
        case Stmt::SK_FieldLoad:
          if (Owned.count(cast<FieldLoadStmt>(S).getBase()))
            continue;
          Key = fieldKeyName(cast<FieldLoadStmt>(S).getField());
          break;
        case Stmt::SK_FieldStore:
          if (Owned.count(cast<FieldStoreStmt>(S).getBase()))
            continue;
          Key = fieldKeyName(cast<FieldStoreStmt>(S).getField());
          IsWrite = true;
          break;
        case Stmt::SK_ArrayLoad:
          if (Owned.count(cast<ArrayLoadStmt>(S).getBase()))
            continue;
          Key = "[]";
          break;
        case Stmt::SK_ArrayStore:
          if (Owned.count(cast<ArrayStoreStmt>(S).getBase()))
            continue;
          Key = "[]";
          IsWrite = true;
          break;
        case Stmt::SK_GlobalLoad:
          Key = "@" + cast<GlobalLoadStmt>(S).getGlobal()->getName();
          break;
        case Stmt::SK_GlobalStore:
          Key = "@" + cast<GlobalStoreStmt>(S).getGlobal()->getName();
          IsWrite = true;
          break;
        case Stmt::SK_Acquire:
          LockStack.push_back(cast<AcquireStmt>(S).getLock()->getName());
          continue;
        case Stmt::SK_Release:
          if (!LockStack.empty())
            LockStack.pop_back();
          continue;
        default:
          continue;
        }
        Access A;
        A.S = &S;
        A.F = F;
        A.IsWrite = IsWrite;
        A.LockNames.insert(LockStack.begin(), LockStack.end());
        AccessesByKey[Key].push_back(std::move(A));
      }
    }
  }

  bool mayRunConcurrently(const Access &A, const Access &B) const {
    const std::set<unsigned> &RA = RootsOf.at(A.F);
    const std::set<unsigned> &RB = RootsOf.at(B.F);
    if (RA != RB)
      return true;
    for (unsigned Root : RA)
      if (Root != 0)
        return true;
    return false;
  }

  bool canSelfRace(const Access &A) const {
    for (unsigned Root : RootsOf.at(A.F))
      if (Root != 0)
        return true;
    return false;
  }

  static bool locksDisjoint(const Access &A, const Access &B) {
    for (const std::string &L : A.LockNames)
      if (B.LockNames.count(L))
        return false;
    return true;
  }

  void emitWarnings() {
    for (const auto &[Key, Accesses] : AccessesByKey) {
      bool AnyLocked = false;
      for (const Access &A : Accesses)
        AnyLocked |= !A.LockNames.empty();

      std::set<std::pair<const Function *, const Function *>> Reported;
      for (size_t I = 0; I < Accesses.size(); ++I) {
        if (pollCancelled(Cancel)) {
          R.Cancelled = true;
          return;
        }
        for (size_t J = I; J < Accesses.size(); ++J) {
          const Access &A = Accesses[I];
          const Access &B = Accesses[J];
          if (!A.IsWrite && !B.IsWrite)
            continue;
          if (I == J) {
            if (!A.IsWrite || !A.LockNames.empty() || !canSelfRace(A))
              continue;
          } else {
            if (!mayRunConcurrently(A, B))
              continue;
            if (!locksDisjoint(A, B))
              continue;
          }
          auto FnPair = A.F < B.F ? std::make_pair(A.F, B.F)
                                  : std::make_pair(B.F, A.F);
          if (!Reported.insert(FnPair).second)
            continue;
          R.Warnings.push_back(
              {RacerDWarning::Kind::ReadWriteRace, Key, A.S, B.S});
          ++R.NumPotentialRaces;
        }
      }

      if (!AnyLocked)
        continue;
      std::set<const Function *> AccessingFns;
      for (const Access &A : Accesses)
        AccessingFns.insert(A.F);
      for (const Access &A : Accesses) {
        if (!A.IsWrite || !A.LockNames.empty())
          continue;
        R.Warnings.push_back(
            {RacerDWarning::Kind::UnprotectedWrite, Key, A.S, nullptr});
        R.NumPotentialRaces +=
            static_cast<unsigned>(AccessingFns.size()) - 1;
      }
    }
  }

  const Module &M;
  const CancellationToken *Cancel;
  ReferenceReport R;
  std::map<std::string, std::vector<const Function *>> MethodsByName;
  std::map<const Function *, std::set<unsigned>> RootsOf;
  std::map<std::string, std::vector<Access>> AccessesByKey;
};

std::unique_ptr<Module> parseProgram(const std::string &Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_TRUE(M) << "parse error: " << Err;
  if (!M)
    return M;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors))
      << (Errors.empty() ? "?" : Errors.front());
  return M;
}

std::string describe(const RacerDWarning &W) {
  std::string Out =
      W.WarningKind == RacerDWarning::Kind::ReadWriteRace ? "rw " : "uw ";
  Out += W.Location + ": '" + printStmt(*W.A) + "'";
  if (W.B)
    Out += " vs '" + printStmt(*W.B) + "'";
  return Out;
}

/// Runs both scans on \p M and expects identical results; returns the
/// detector's report for further checks.
RacerDReport expectMatchesPairwise(const Module &M, const std::string &Tag,
                                   const CancellationToken *Cancel = nullptr) {
  ReferenceReport Ref = PairwiseRacerD(M, Cancel).run();
  RacerDReport R = runRacerDLike(M, Cancel);
  EXPECT_EQ(R.cancelled(), Ref.Cancelled) << Tag;
  EXPECT_EQ(R.numPotentialRaces(), Ref.NumPotentialRaces) << Tag;
  EXPECT_EQ(R.numWarnings(), Ref.Warnings.size()) << Tag;
  size_t N = std::min(R.warnings().size(), Ref.Warnings.size());
  for (size_t I = 0; I != N; ++I) {
    const RacerDWarning &Got = R.warnings()[I];
    const RacerDWarning &Want = Ref.Warnings[I];
    bool Same = Got.WarningKind == Want.WarningKind &&
                Got.Location == Want.Location && Got.A == Want.A &&
                Got.B == Want.B;
    EXPECT_TRUE(Same) << Tag << " warning " << I << ": got "
                      << describe(Got) << ", want " << describe(Want);
    if (!Same)
      break; // one diverging position shifts every later one
  }
  return R;
}

std::vector<std::string> oirFiles() {
  std::vector<std::string> Names;
  for (const auto &Entry : std::filesystem::directory_iterator(O2_OIR_DIR))
    if (Entry.path().extension() == ".oir")
      Names.push_back(Entry.path().stem().string());
  std::sort(Names.begin(), Names.end());
  return Names;
}

std::vector<std::string> profileNames() {
  std::vector<std::string> Names;
  for (const WorkloadProfile &P : benchmarkProfiles())
    Names.push_back(P.Name);
  return Names;
}

class RacerDLikeOirEquivalence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RacerDLikeOirEquivalence, MatchesPairwise) {
  std::ifstream In(std::string(O2_OIR_DIR) + "/" + GetParam() + ".oir");
  ASSERT_TRUE(In.good()) << GetParam();
  std::stringstream Buf;
  Buf << In.rdbuf();
  auto M = parseProgram(Buf.str());
  ASSERT_TRUE(M);
  expectMatchesPairwise(*M, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Examples, RacerDLikeOirEquivalence,
                         ::testing::ValuesIn(oirFiles()),
                         [](const auto &Info) { return Info.param; });

class RacerDLikeProfileEquivalence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RacerDLikeProfileEquivalence, MatchesPairwise) {
  const WorkloadProfile *P = findProfile(GetParam());
  ASSERT_NE(P, nullptr);
  auto M = generateWorkload(*P);
  ASSERT_TRUE(M);
  expectMatchesPairwise(*M, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Profiles, RacerDLikeProfileEquivalence,
                         ::testing::ValuesIn(profileNames()),
                         [](const auto &Info) { return Info.param; });

TEST(RacerDLikeEquivalence, EntryWriteRacesWithItself) {
  // One unprotected write in a spawned entry: the only warning pairs the
  // write with itself.
  auto M = parseProgram(R"(
    global g: int;
    class T { method run() { var x: int; @g = x; } }
    func main() {
      var t: T;
      t = new T;
      spawn t.run();
    }
  )");
  ASSERT_TRUE(M);
  RacerDReport R = expectMatchesPairwise(*M, "self-race");
  ASSERT_EQ(R.numWarnings(), 1u);
  EXPECT_EQ(R.warnings()[0].A, R.warnings()[0].B);
}

TEST(RacerDLikeEquivalence, SeveralClassesInOneFunction) {
  // Reads, writes and locked writes of one location interleave within
  // each function, so a class's first access can come after accesses of
  // the class it pairs with.
  auto M = parseProgram(R"(
    global g: int;
    class Mutex { }
    global m: Mutex;
    class T {
      method run() {
        var x: int;
        var l: Mutex;
        l = @m;
        x = @g;
        acquire l;
        @g = x;
        release l;
        x = @g;
        @g = x;
        acquire l;
        x = @g;
        release l;
      }
    }
    class U {
      method run() {
        var x: int;
        var l: Mutex;
        l = @m;
        acquire l;
        x = @g;
        release l;
        @g = x;
        x = @g;
      }
    }
    func main() {
      var t: T;
      var u: U;
      var x: int;
      x = @g;
      t = new T;
      u = new U;
      spawn t.run();
      spawn u.run();
      @g = x;
    }
  )");
  ASSERT_TRUE(M);
  RacerDReport R = expectMatchesPairwise(*M, "classes-in-one-function");
  EXPECT_GT(R.numPotentialRaces(), 3u);
}

TEST(RacerDLikeEquivalence, SelfPairWinnerComesAfterCrossPairWinner) {
  // T's read under {l, m} (I = 0) races only with U's write (J = 3);
  // T's own writes under {l} and {m} race with each other at (1, 2). The
  // (T, T) pair is found before the (T, U) pair, yet (0, 3) comes first.
  auto M = parseProgram(R"(
    global g: int;
    class Mutex { }
    global gl: Mutex;
    global gm: Mutex;
    class T {
      method run() {
        var x: int;
        var l: Mutex;
        var m: Mutex;
        l = @gl;
        m = @gm;
        acquire l;
        acquire m;
        x = @g;
        release m;
        @g = x;
        release l;
        acquire m;
        @g = x;
        release m;
      }
    }
    class U { method run() { var x: int; @g = x; } }
    func main() {
      var t: T;
      var u: U;
      t = new T;
      u = new U;
      spawn t.run();
      spawn u.run();
    }
  )");
  ASSERT_TRUE(M);
  RacerDReport R = expectMatchesPairwise(*M, "self-pair-order");
  std::vector<std::pair<const Function *, const Function *>> Pairs;
  for (const RacerDWarning &W : R.warnings())
    if (W.Location == "@g" && W.B)
      Pairs.push_back({W.A->getFunction(), W.B->getFunction()});
  ASSERT_EQ(Pairs.size(), 3u);
  EXPECT_NE(Pairs[0].first, Pairs[0].second); // (T, U) first
  EXPECT_EQ(Pairs[1].first, Pairs[1].second); // then (T, T)
}

TEST(RacerDLikeEquivalence, LocksetSeparatesClassesOfOneFunction) {
  // T writes @g under l, then without a lock. Only the unlocked write
  // races: with U's locked read, and with the locked write of another
  // T thread. Grouping the two writes into one class would hide both.
  auto M = parseProgram(R"(
    global g: int;
    class Mutex { }
    global gl: Mutex;
    class T {
      method run() {
        var x: int;
        var l: Mutex;
        l = @gl;
        acquire l;
        @g = x;
        release l;
        @g = x;
      }
    }
    class U {
      method run() {
        var x: int;
        var l: Mutex;
        l = @gl;
        acquire l;
        x = @g;
        release l;
      }
    }
    func main() {
      var t: T;
      var u: U;
      t = new T;
      u = new U;
      spawn t.run();
      spawn u.run();
    }
  )");
  ASSERT_TRUE(M);
  RacerDReport R = expectMatchesPairwise(*M, "lockset-classes");
  unsigned RacePairs = 0;
  for (const RacerDWarning &W : R.warnings())
    RacePairs += W.Location == "@g" && W.B;
  EXPECT_EQ(RacePairs, 2u);
}

TEST(RacerDLikeEquivalence, SharedAndDisjointLocksets) {
  // A and B share lock a (with b nested in B); C holds only c. Only the
  // pairs with C race on @g.
  auto M = parseProgram(R"(
    global g: int;
    class Mutex { }
    global la: Mutex;
    global lb: Mutex;
    global lc: Mutex;
    class A {
      method run() {
        var x: int;
        var a: Mutex;
        a = @la;
        acquire a;
        @g = x;
        release a;
      }
    }
    class B {
      method run() {
        var x: int;
        var a: Mutex;
        var b: Mutex;
        a = @la;
        b = @lb;
        acquire b;
        acquire a;
        @g = x;
        release a;
        release b;
      }
    }
    class C {
      method run() {
        var x: int;
        var c: Mutex;
        c = @lc;
        acquire c;
        @g = x;
        release c;
      }
    }
    func main() {
      var a: A;
      var b: B;
      var c: C;
      a = new A;
      b = new B;
      c = new C;
      spawn a.run();
      spawn b.run();
      spawn c.run();
    }
  )");
  ASSERT_TRUE(M);
  RacerDReport R = expectMatchesPairwise(*M, "locksets");
  unsigned OnG = 0;
  for (const RacerDWarning &W : R.warnings())
    OnG += W.Location == "@g";
  EXPECT_EQ(OnG, 2u);
}

TEST(RacerDLikeEquivalence, MainOnlyReaderVsSpawnedWriter) {
  // main's read races with the spawned write; main's own accesses never
  // pair with each other.
  auto M = parseProgram(R"(
    global g: int;
    class T { method run() { var x: int; @g = x; } }
    func main() {
      var t: T;
      var x: int;
      t = new T;
      spawn t.run();
      x = @g;
      x = @g;
    }
  )");
  ASSERT_TRUE(M);
  RacerDReport R = expectMatchesPairwise(*M, "main-reader");
  unsigned MainVsRun = 0;
  for (const RacerDWarning &W : R.warnings())
    MainVsRun += W.B && W.A->getFunction() != W.B->getFunction();
  EXPECT_EQ(MainVsRun, 1u);
}

TEST(RacerDLikeEquivalence, MixedSynchronizationUnprotectedWrites) {
  // @g is written under a lock once and without one twice, across three
  // functions: two unprotected-write reports worth two pairs each.
  auto M = parseProgram(R"(
    global g: int;
    class Mutex { }
    global m: Mutex;
    class T {
      method run() {
        var x: int;
        var l: Mutex;
        l = @m;
        acquire l;
        @g = x;
        release l;
      }
    }
    class U { method run() { var x: int; @g = x; } }
    func main() {
      var t: T;
      var u: U;
      var x: int;
      t = new T;
      u = new U;
      spawn t.run();
      spawn u.run();
      @g = x;
    }
  )");
  ASSERT_TRUE(M);
  RacerDReport R = expectMatchesPairwise(*M, "unprotected-writes");
  unsigned Unprotected = 0;
  for (const RacerDWarning &W : R.warnings())
    Unprotected += W.WarningKind == RacerDWarning::Kind::UnprotectedWrite;
  EXPECT_EQ(Unprotected, 2u);
}

TEST(RacerDLikeEquivalence, PreCancelledTokenStopsBoth) {
  const WorkloadProfile *P = findProfile("sunflow");
  ASSERT_NE(P, nullptr);
  auto M = generateWorkload(*P);
  ASSERT_TRUE(M);
  CancellationToken Token;
  Token.cancel();
  RacerDReport R = expectMatchesPairwise(*M, "pre-cancelled", &Token);
  EXPECT_TRUE(R.cancelled());
  EXPECT_EQ(R.numWarnings(), 0u);
}

} // namespace
