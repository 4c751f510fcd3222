//===- RacerDLike.cpp - Syntactic race detector baseline ---------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Every table is indexed by the IR's dense ids: callees and root sets by
// Function::getId(), access keys by Field::getId() and Global::getId(),
// ownership marks by Variable::getId(). Strings are built once per key,
// never per access.
//
//===----------------------------------------------------------------------===//

#include "o2/Race/RacerDLike.h"

#include "o2/Support/Casting.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <string_view>
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
  static constexpr unsigned None = ~0u;

  struct Access {
    const Stmt *S;
    unsigned F;       ///< function id
    unsigned Lockset; ///< interned syntactic locks held; 0 is no lock
    bool IsWrite;
  };

  /// The accesses of one key that share (function, lockset, is-write).
  /// Whether two accesses may race depends on nothing else, so the scan
  /// tests pairs of classes instead of pairs of accesses.
  struct AccessClass {
    unsigned F;
    unsigned RootSet; ///< RootSetOf[F], loaded once per class
    unsigned Lockset;
    unsigned First; ///< position of the class's first access in the list
    bool IsWrite;
  };

  /// Resolves every function's callees once, as function ids, in one
  /// flat table (function F's are Callees[CalleeStart[F], CalleeStart[F +
  /// 1])). The detector has no pointer information, so a virtual call
  /// reaches every method of that name anywhere (RacerD-style name-based
  /// resolution). Also lists the concurrency roots: main, then every
  /// method named by a spawn, names in byte order.
  void buildNameIndex() {
    const auto &Fns = M.functions();
    std::unordered_map<std::string_view, std::vector<unsigned>> MethodsByName;
    for (const auto &F : Fns) {
      assert(F->getId() == unsigned(&F - Fns.data()) &&
             "function ids index functions()");
      if (F->isMethod())
        MethodsByName[F->getName()].push_back(F->getId());
    }
    auto methodsNamed = [&](std::string_view Name) {
      auto It = MethodsByName.find(Name);
      return It == MethodsByName.end() ? nullptr : &It->second;
    };

    std::vector<std::string_view> EntryNames;
    CalleeStart.reserve(Fns.size() + 1);
    for (const auto &F : Fns) {
      CalleeStart.push_back(unsigned(Callees.size()));
      for (const auto &SPtr : F->body()) {
        const Stmt *S = SPtr.get();
        if (const auto *Call = dyn_cast<CallStmt>(S)) {
          if (!Call->isVirtual())
            Callees.push_back(Call->getDirectCallee()->getId());
          else if (const auto *Ms = methodsNamed(Call->getMethodName()))
            Callees.insert(Callees.end(), Ms->begin(), Ms->end());
        } else if (const auto *A = dyn_cast<AllocStmt>(S)) {
          if (const Function *Init = A->getAllocType()->findMethod("init"))
            Callees.push_back(Init->getId());
        } else if (const auto *Sp = dyn_cast<SpawnStmt>(S)) {
          EntryNames.push_back(Sp->getEntryName());
        }
      }
    }
    CalleeStart.push_back(unsigned(Callees.size()));

    if (const Function *Main = M.getMain())
      Roots.push_back(Main->getId());
    std::sort(EntryNames.begin(), EntryNames.end());
    EntryNames.erase(std::unique(EntryNames.begin(), EntryNames.end()),
                     EntryNames.end());
    for (std::string_view Name : EntryNames)
      if (const auto *Ms = methodsNamed(Name))
        Roots.insert(Roots.end(), Ms->begin(), Ms->end());
  }

  /// Reachability from each concurrency root (main + each spawned entry
  /// name instance). A function's root set tells whether two accesses can
  /// run on different threads. Root sets are interned as they grow: roots
  /// are walked in index order, and the set a function holds after root r
  /// is its set before r plus r, so one successor per (set, root) names
  /// every set exactly once. Set 0 is the empty set: not reached at all.
  void computeRootReachability() {
    unsigned NumFns = unsigned(M.functions().size());
    RootSetOf.assign(NumFns, 0);
    RootSetHasEntry.assign(1, false);
    std::vector<unsigned> SeenBy(NumFns, 0); ///< last root index + 1
    // Per set: its successor under the root of stamp SuccessorStamp.
    std::vector<unsigned> Successor{0}, SuccessorStamp{0};
    std::vector<unsigned> Stack;
    for (unsigned RootIdx = 0; RootIdx != Roots.size(); ++RootIdx) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        return;
      }
      unsigned Stamp = RootIdx + 1;
      SeenBy[Roots[RootIdx]] = Stamp;
      Stack.assign(1, Roots[RootIdx]);
      while (!Stack.empty()) {
        unsigned F = Stack.back();
        Stack.pop_back();
        unsigned Old = RootSetOf[F];
        if (SuccessorStamp[Old] != Stamp) {
          // The new set's largest root is RootIdx, so it holds a non-main
          // root iff RootIdx != 0 (root 0 is main). Two functions may run
          // on different threads iff their sets differ or share a non-main
          // root (entry methods can be spawned more than once).
          SuccessorStamp[Old] = Stamp;
          Successor[Old] = unsigned(RootSetHasEntry.size());
          RootSetHasEntry.push_back(RootIdx != 0);
          Successor.push_back(0);
          SuccessorStamp.push_back(0);
        }
        RootSetOf[F] = Successor[Old];
        for (unsigned I = CalleeStart[F]; I != CalleeStart[F + 1]; ++I)
          if (SeenBy[Callees[I]] != Stamp) {
            SeenBy[Callees[I]] = Stamp;
            Stack.push_back(Callees[I]);
          }
      }
    }
  }

  /// RacerD's ownership reasoning, intraprocedural flavor: a variable
  /// holding a locally allocated object that is never overwritten from
  /// elsewhere is owned, and accesses through it cannot race. Marks the
  /// owned and the overwritten variables of \p F with \p Stamp.
  void markOwnership(const Function &F, unsigned Stamp) {
    auto mark = [Stamp](std::vector<unsigned> &Marks, const Variable *V) {
      if (V)
        Marks[V->getId()] = Stamp;
    };
    for (const auto &SPtr : F.body()) {
      const Stmt &S = *SPtr;
      if (const auto *A = dyn_cast<AllocStmt>(&S))
        mark(OwnedMark, A->getTarget());
      else if (const auto *A = dyn_cast<ArrayAllocStmt>(&S))
        mark(OwnedMark, A->getTarget());
      else if (const auto *A = dyn_cast<AssignStmt>(&S))
        mark(TaintedMark, A->getTarget());
      else if (const auto *L = dyn_cast<FieldLoadStmt>(&S))
        mark(TaintedMark, L->getTarget());
      else if (const auto *L = dyn_cast<ArrayLoadStmt>(&S))
        mark(TaintedMark, L->getTarget());
      else if (const auto *L = dyn_cast<GlobalLoadStmt>(&S))
        mark(TaintedMark, L->getTarget());
      else if (const auto *C = dyn_cast<CallStmt>(&S))
        mark(TaintedMark, C->getTarget());
    }
  }

  bool owned(const Variable *V, unsigned Stamp) const {
    return V && OwnedMark[V->getId()] == Stamp &&
           TaintedMark[V->getId()] != Stamp;
  }

  /// The key for entry \p Id of the per-field or per-global table \p Ids;
  /// the key, named \p Name(), is made the first time the entry is seen.
  template <typename NameFn>
  unsigned keyFor(std::vector<unsigned> &Ids, unsigned Id, NameFn Name) {
    unsigned &K = Ids[Id];
    if (K == None) {
      K = unsigned(KeyNames.size());
      KeyNames.push_back(Name());
      AccessesByKey.emplace_back();
    }
    return K;
  }

  unsigned fieldKey(const Field *Fld) {
    return keyFor(FieldKeys, Fld->getId(), [Fld] {
      return Fld->getParent()->getName() + "." + Fld->getName();
    });
  }

  unsigned globalKey(const Global *G) {
    return keyFor(GlobalKeys, G->getId(), [G] { return "@" + G->getName(); });
  }

  unsigned arrayKey() {
    return keyFor(ArrayKey, 0, [] { return std::string("[]"); });
  }

  void collectAccesses() {
    FieldKeys.assign(M.numFields(), None);
    GlobalKeys.assign(M.numGlobals(), None);
    ArrayKey.assign(1, None);
    OwnedMark.assign(M.numVariables(), 0);
    TaintedMark.assign(M.numVariables(), 0);
    std::vector<unsigned> LockStack;
    for (const auto &FPtr : M.functions()) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        return;
      }
      const Function &F = *FPtr;
      if (RootSetOf[F.getId()] == 0)
        continue; // dead code
      unsigned Stamp = F.getId() + 1;
      markOwnership(F, Stamp);
      LockStack.clear();
      unsigned Lockset = 0;
      for (const auto &SPtr : F.body()) {
        const Stmt &S = *SPtr;
        unsigned Key;
        bool IsWrite = false;
        switch (S.getKind()) {
        case Stmt::SK_FieldLoad:
          if (owned(cast<FieldLoadStmt>(S).getBase(), Stamp))
            continue;
          Key = fieldKey(cast<FieldLoadStmt>(S).getField());
          break;
        case Stmt::SK_FieldStore:
          if (owned(cast<FieldStoreStmt>(S).getBase(), Stamp))
            continue;
          Key = fieldKey(cast<FieldStoreStmt>(S).getField());
          IsWrite = true;
          break;
        case Stmt::SK_ArrayLoad:
          if (owned(cast<ArrayLoadStmt>(S).getBase(), Stamp))
            continue;
          Key = arrayKey();
          break;
        case Stmt::SK_ArrayStore:
          if (owned(cast<ArrayStoreStmt>(S).getBase(), Stamp))
            continue;
          Key = arrayKey();
          IsWrite = true;
          break;
        case Stmt::SK_GlobalLoad:
          Key = globalKey(cast<GlobalLoadStmt>(S).getGlobal());
          break;
        case Stmt::SK_GlobalStore:
          Key = globalKey(cast<GlobalStoreStmt>(S).getGlobal());
          IsWrite = true;
          break;
        case Stmt::SK_Acquire:
          LockStack.push_back(lockId(cast<AcquireStmt>(S).getLock()));
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
        AccessesByKey[Key].push_back({&S, F.getId(), Lockset, IsWrite});
      }
    }
  }

  /// Locks are syntactic: one id per lock variable name.
  unsigned lockId(const Variable *Lock) {
    return LockIds
        .try_emplace(std::string_view(Lock->getName()),
                     unsigned(LockIds.size()))
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

  bool mayRunConcurrently(unsigned SA, unsigned SB) const {
    return SA != SB || RootSetHasEntry[SA];
  }

  /// Whether an access of class \p A and one of class \p B, run on
  /// different threads, race: one writes and no lock is held by both.
  bool classesRace(const AccessClass &A, const AccessClass &B) const {
    return (A.IsWrite || B.IsWrite) && locksDisjoint(A.Lockset, B.Lockset);
  }

  /// Splits \p Accesses into classes. Accesses are collected function by
  /// function, so each function's accesses form one contiguous run of the
  /// list; RunStart holds the first class of each run, plus an end mark.
  void buildClasses(const std::vector<Access> &Accesses) {
    Classes.clear();
    RunStart.clear();
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
        Classes.push_back({A.F, RootSetOf[A.F], A.Lockset, Idx, A.IsWrite});
    }
    RunStart.push_back(static_cast<unsigned>(Classes.size()));
  }

  /// Category 1: read/write race pairs, deduplicated the way RacerD
  /// reports them — one warning per (location, function pair), for the
  /// smallest racing (I, J) of that pair, in (I, J) order. A write may
  /// also race with itself (I == J) when its function can run on more
  /// than one thread and the access is unsynchronized.
  ///
  /// A class's first access stands for the class: the pair of classes
  /// (A, B), A <= B, gives (I, J) = (A.First, B.First), and Firsts grow
  /// with the class index, within a run and from run to run. So for each
  /// run G1, walking its classes A in order and, for each, the runs G2 >=
  /// G1 still open in order, the first B of G2 that races A is the pair's
  /// winner, and winners come out in (I, J) order without a sort. For G2
  /// == G1, B starts at A itself; a class pairs with itself exactly when
  /// it is an unlocked write of a function that can run on several
  /// threads, which mayRunConcurrently already tested.
  void emitRacePairs(uint32_t Loc, const std::vector<Access> &Accesses) {
    unsigned NumRuns = unsigned(RunStart.size()) - 1;
    for (unsigned G1 = 0; G1 != NumRuns; ++G1) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        return;
      }
      unsigned S1 = Classes[RunStart[G1]].RootSet;
      Open.clear();
      for (unsigned G2 = G1; G2 != NumRuns; ++G2)
        if (mayRunConcurrently(S1, Classes[RunStart[G2]].RootSet))
          Open.push_back(G2);
      for (unsigned A = RunStart[G1]; A != RunStart[G1 + 1] && !Open.empty();
           ++A) {
        size_t Kept = 0;
        for (unsigned G2 : Open) {
          unsigned B = G2 == G1 ? A : RunStart[G2];
          while (B != RunStart[G2 + 1] && !classesRace(Classes[A], Classes[B]))
            ++B;
          if (B == RunStart[G2 + 1]) {
            Open[Kept++] = G2; // no winner yet: stays open
            continue;
          }
          R.Warnings.push_back({RacerDWarning::Kind::ReadWriteRace, Loc,
                                Accesses[Classes[A].First].S,
                                Accesses[Classes[B].First].S});
          ++R.NumPotentialRaces;
        }
        Open.resize(Kept);
      }
    }
  }

  /// An upper bound on the warnings emitWarnings adds, so Warnings is
  /// allocated once: a telegram-shaped module has about 100k of them, and
  /// growing the vector cost about a third of the pass. Per key, a
  /// read/write race pairs two accessing functions (or one with itself),
  /// at least one of which writes; an unprotected write adds one more.
  /// Capacity beyond the final size is never touched.
  size_t warningBound() const {
    size_t Bound = 0;
    for (const std::vector<Access> &Accesses : AccessesByKey) {
      size_t Runs = 0, ReadOnlyRuns = 0;
      for (size_t I = 0, E; I != Accesses.size(); I = E) {
        bool AnyWrite = false;
        for (E = I; E != Accesses.size() && Accesses[E].F == Accesses[I].F;
             ++E) {
          AnyWrite |= Accesses[E].IsWrite;
          Bound += Accesses[E].IsWrite;
        }
        ++Runs;
        ReadOnlyRuns += !AnyWrite;
      }
      Bound += Runs * (Runs + 1) / 2 - ReadOnlyRuns * (ReadOnlyRuns + 1) / 2;
    }
    return Bound;
  }

  /// Emits keys in name order (byte order, as std::string compares). The
  /// report's location table lists every key in that order.
  void emitWarnings() {
    std::vector<unsigned> Order(KeyNames.size());
    std::iota(Order.begin(), Order.end(), 0u);
    std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
      return KeyNames[A] < KeyNames[B];
    });
    R.Locations.reserve(Order.size());
    for (unsigned K : Order)
      R.Locations.push_back(std::move(KeyNames[K]));

    size_t Bound = warningBound();
    R.Warnings.reserve(Bound);
    for (uint32_t Loc = 0; Loc != Order.size(); ++Loc) {
      const std::vector<Access> &Accesses = AccessesByKey[Order[Loc]];
      buildClasses(Accesses);
      emitRacePairs(Loc, Accesses);
      if (R.Cancelled)
        return;

      // Category 2: unprotected writes in mixed-synchronization fields.
      bool AnyLocked = false;
      for (const Access &A : Accesses)
        AnyLocked |= A.Lockset != 0;
      if (!AnyLocked)
        continue;
      // One run per accessing function.
      unsigned NumAccessingFns = unsigned(RunStart.size()) - 1;
      for (const Access &A : Accesses) {
        if (!A.IsWrite || A.Lockset != 0)
          continue;
        R.Warnings.push_back(
            {RacerDWarning::Kind::UnprotectedWrite, Loc, A.S, nullptr});
        // The paper translates each unprotected-write report into its
        // implied conflicting-access pairs (one per other function that
        // touches the same location).
        R.NumPotentialRaces += NumAccessingFns - 1;
      }
    }
    assert(R.Warnings.size() <= Bound && "warningBound is not a bound");
  }

  const Module &M;
  const CancellationToken *Cancel;
  RacerDReport R;

  // Call graph and root sets, by function id.
  std::vector<unsigned> CalleeStart, Callees;
  std::vector<unsigned> Roots;
  std::vector<unsigned> RootSetOf;   ///< 0: unreachable
  std::vector<bool> RootSetHasEntry; ///< per root set: has a non-main root

  // Ownership marks, by variable id; lock ids, by name.
  std::vector<unsigned> OwnedMark, TaintedMark;
  std::unordered_map<std::string_view, unsigned> LockIds;
  std::map<std::vector<unsigned>, unsigned> LocksetIds{{{}, 0}};
  std::vector<std::vector<unsigned>> Locksets{{}};

  // Access keys: key ids by field id, by global id, and for "[]".
  std::vector<unsigned> FieldKeys, GlobalKeys, ArrayKey;
  std::vector<std::string> KeyNames;
  std::vector<std::vector<Access>> AccessesByKey;

  // Scratch for the class-pair scan, reused across keys.
  std::vector<AccessClass> Classes;
  std::vector<unsigned> RunStart;
  std::vector<unsigned> Open; ///< runs G2 without a winner for G1 yet
};

} // namespace o2

RacerDReport o2::runRacerDLike(const Module &M,
                               const CancellationToken *Cancel) {
  return RacerDLikeDetector(M, Cancel).run();
}
