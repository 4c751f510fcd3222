//===- RacerDLike.cpp - Syntactic race detector baseline ---------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Race/RacerDLike.h"

#include "o2/IR/Printer.h"
#include "o2/Support/Casting.h"
#include "o2/Support/OutputStream.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>

using namespace o2;

namespace o2 {

class RacerDLikeDetector {
public:
  RacerDLikeDetector(const Module &M, const CancellationToken *Cancel)
      : M(M), Cancel(Cancel) {}

  RacerDReport run() {
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
    unsigned Lockset; ///< interned syntactic locks held; 0 is no lock
  };

  /// The accesses of one key that share (function, lockset, is-write).
  /// Whether two accesses may race depends on nothing else, so the scan
  /// tests pairs of classes instead of pairs of accesses.
  struct AccessClass {
    const Function *F;
    unsigned Lockset;
    bool IsWrite;
    unsigned First; ///< position of the class's first access in the list
  };

  /// An (I, J) position pair in a key's access list; ordered
  /// lexicographically, which is the order warnings are emitted in.
  using PairIdx = std::pair<unsigned, unsigned>;
  static constexpr PairIdx NoPair{~0u, ~0u};

  /// Map method name -> every method with that name anywhere: the
  /// detector has no pointer information, so a virtual call can reach any
  /// equally-named method (RacerD-style name-based resolution).
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

  /// Reachability from each concurrency root (main + each spawned entry
  /// name instance). A function's root set tells whether two accesses can
  /// run on different threads.
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

    std::unordered_map<const Function *, std::vector<unsigned>> RootsOf;
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
        // Roots are walked in index order, so each list stays sorted.
        RootsOf[F].push_back(static_cast<unsigned>(RootIdx));
        std::vector<const Function *> Out;
        callees(F, Out);
        for (const Function *Callee : Out)
          Queue.push_back(Callee);
      }
    }

    // Intern the root sets: two functions may run on different threads
    // iff their sets differ or share a non-main root (root 0 is main;
    // entry methods can be spawned more than once).
    std::map<std::vector<unsigned>, unsigned> RootSetIds;
    for (const auto &[F, FnRoots] : RootsOf) {
      auto [It, New] = RootSetIds.try_emplace(
          FnRoots, static_cast<unsigned>(RootSetHasEntry.size()));
      if (New)
        RootSetHasEntry.push_back(FnRoots.back() != 0);
      RootSetOf[F] = It->second;
    }
  }

  static std::string fieldKeyName(const Field *Fld) {
    return Fld->getParent()->getName() + "." + Fld->getName();
  }

  /// RacerD's ownership reasoning, intraprocedural flavor: a variable
  /// holding a locally allocated object that is never overwritten from
  /// elsewhere is owned, and accesses through it cannot race.
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
      if (!RootSetOf.count(F))
        continue; // dead code
      std::set<const Variable *> Owned = ownedVariables(F);
      std::vector<unsigned> LockStack;
      unsigned Lockset = 0;
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
          LockStack.push_back(
              lockId(cast<AcquireStmt>(S).getLock()->getName()));
          Lockset = internLockset(LockStack);
          continue;
        case Stmt::SK_Release:
          if (!LockStack.empty()) {
            LockStack.pop_back();
            Lockset = internLockset(LockStack);
          }
          continue;
        default:
          continue;
        }
        AccessesByKey[Key].push_back({&S, F, IsWrite, Lockset});
      }
    }
  }

  unsigned lockId(const std::string &Name) {
    return LockIds.try_emplace(Name, static_cast<unsigned>(LockIds.size()))
        .first->second;
  }

  /// Interns the set of locks on \p Stack; the empty set is always 0.
  unsigned internLockset(const std::vector<unsigned> &Stack) {
    std::vector<unsigned> Set(Stack);
    std::sort(Set.begin(), Set.end());
    Set.erase(std::unique(Set.begin(), Set.end()), Set.end());
    auto [It, New] = LocksetIds.try_emplace(
        Set, static_cast<unsigned>(Locksets.size()));
    if (New)
      Locksets.push_back(std::move(Set));
    return It->second;
  }

  bool locksDisjoint(unsigned LA, unsigned LB) const {
    if (LA == 0 || LB == 0)
      return true;
    if (LA == LB)
      return false;
    const std::vector<unsigned> &A = Locksets[LA], &B = Locksets[LB];
    for (size_t I = 0, J = 0; I != A.size() && J != B.size();) {
      if (A[I] == B[J])
        return false;
      A[I] < B[J] ? ++I : ++J;
    }
    return true;
  }

  bool mayRunConcurrently(const Function *A, const Function *B) const {
    unsigned SA = RootSetOf.at(A), SB = RootSetOf.at(B);
    return SA != SB || RootSetHasEntry[SA];
  }

  /// The smallest (I, J), I <= J, of a racing pair of accesses from
  /// classes \p A and \p B, or NoPair. For two classes whose first
  /// accesses are I < J, the smallest index after I in J's class is J
  /// itself. One class on its own pairs only with itself; there the I < J
  /// condition equals the self-race one (write, no lock, a function that
  /// can run on several threads), so (I, I) wins.
  PairIdx firstRacingPair(const AccessClass &A, const AccessClass &B) const {
    if (!A.IsWrite && !B.IsWrite)
      return NoPair;
    if (!locksDisjoint(A.Lockset, B.Lockset))
      return NoPair;
    return std::minmax(A.First, B.First);
  }

  /// Category 1: read/write race pairs, deduplicated the way RacerD
  /// reports them — one warning per (location, function pair), for the
  /// smallest racing (I, J) of that pair, in (I, J) order. A write may
  /// also race with itself (I == J) when its function can run on more
  /// than one thread and the access is unsynchronized.
  void emitRacePairs(const std::string &Key,
                     const std::vector<Access> &Accesses) {
    // Accesses are collected function by function, so each function's
    // accesses form one contiguous run of the list.
    std::vector<AccessClass> Classes;
    std::vector<unsigned> RunStart; ///< first class of each function
    for (unsigned Idx = 0; Idx != Accesses.size(); ++Idx) {
      const Access &A = Accesses[Idx];
      if (Classes.empty() || Classes.back().F != A.F)
        RunStart.push_back(static_cast<unsigned>(Classes.size()));
      bool Seen = std::any_of(
          Classes.begin() + RunStart.back(), Classes.end(),
          [&](const AccessClass &C) {
            return C.Lockset == A.Lockset && C.IsWrite == A.IsWrite;
          });
      if (!Seen)
        Classes.push_back({A.F, A.Lockset, A.IsWrite, Idx});
    }
    RunStart.push_back(static_cast<unsigned>(Classes.size()));

    std::vector<PairIdx> Winners;
    for (size_t G1 = 0; G1 + 1 != RunStart.size(); ++G1) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        return;
      }
      for (size_t G2 = G1; G2 + 1 != RunStart.size(); ++G2) {
        if (!mayRunConcurrently(Classes[RunStart[G1]].F,
                                Classes[RunStart[G2]].F))
          continue;
        PairIdx Best = NoPair;
        for (unsigned A = RunStart[G1]; A != RunStart[G1 + 1]; ++A)
          for (unsigned B = G1 == G2 ? A : RunStart[G2];
               B != RunStart[G2 + 1]; ++B)
            Best = std::min(Best, firstRacingPair(Classes[A], Classes[B]));
        if (Best != NoPair)
          Winners.push_back(Best);
      }
    }
    std::sort(Winners.begin(), Winners.end());
    for (const auto &[I, J] : Winners)
      R.Warnings.push_back({RacerDWarning::Kind::ReadWriteRace, Key,
                            Accesses[I].S, Accesses[J].S});
    R.NumPotentialRaces += static_cast<unsigned>(Winners.size());
  }

  void emitWarnings() {
    for (const auto &[Key, Accesses] : AccessesByKey) {
      emitRacePairs(Key, Accesses);
      if (R.Cancelled)
        return;

      // Category 2: unprotected writes in mixed-synchronization fields.
      bool AnyLocked = false;
      for (const Access &A : Accesses)
        AnyLocked |= A.Lockset != 0;
      if (!AnyLocked)
        continue;
      std::set<const Function *> AccessingFns;
      for (const Access &A : Accesses)
        AccessingFns.insert(A.F);
      for (const Access &A : Accesses) {
        if (!A.IsWrite || A.Lockset != 0)
          continue;
        R.Warnings.push_back(
            {RacerDWarning::Kind::UnprotectedWrite, Key, A.S, nullptr});
        // The paper translates each unprotected-write report into its
        // implied conflicting-access pairs (one per other function that
        // touches the same location).
        R.NumPotentialRaces +=
            static_cast<unsigned>(AccessingFns.size()) - 1;
      }
    }
  }

  const Module &M;
  const CancellationToken *Cancel;
  RacerDReport R;
  std::map<std::string, std::vector<const Function *>> MethodsByName;
  std::unordered_map<const Function *, unsigned> RootSetOf;
  std::vector<bool> RootSetHasEntry; ///< per root set: has a non-main root
  std::unordered_map<std::string, unsigned> LockIds;
  std::map<std::vector<unsigned>, unsigned> LocksetIds{{{}, 0}};
  std::vector<std::vector<unsigned>> Locksets{{}};
  std::map<std::string, std::vector<Access>> AccessesByKey;
};

} // namespace o2

void RacerDReport::print(OutputStream &OS) const {
  OS << "==== RacerD-like: " << Warnings.size() << " warning(s), "
     << NumPotentialRaces << " potential race(s) ====\n";
  for (const RacerDWarning &W : Warnings) {
    if (W.WarningKind == RacerDWarning::Kind::ReadWriteRace)
      OS << "read/write race on " << W.Location << ": '" << printStmt(*W.A)
         << "' vs '" << printStmt(*W.B) << "'\n";
    else
      OS << "unprotected write to " << W.Location << ": '" << printStmt(*W.A)
         << "'\n";
  }
}

RacerDReport o2::runRacerDLike(const Module &M,
                               const CancellationToken *Cancel) {
  return RacerDLikeDetector(M, Cancel).run();
}
