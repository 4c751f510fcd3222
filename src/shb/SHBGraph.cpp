//===- SHBGraph.cpp - Static happens-before graph -------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/SHB/SHBGraph.h"

#include "o2/OSA/SharingAnalysis.h"
#include "o2/Support/Casting.h"
#include "o2/Support/OutputStream.h"
#include "o2/Support/U64Map.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <tuple>
#include <unordered_set>

using namespace o2;

//===----------------------------------------------------------------------===//
// SHBGraph queries
//===----------------------------------------------------------------------===//

uint64_t SHBGraph::numAccessEvents() const {
  uint64_t N = 0;
  for (const ThreadInfo &T : Threads)
    N += T.NumAccesses;
  return N;
}

bool SHBGraph::locksetsIntersectUncached(LocksetId A, LocksetId B) const {
  if (A == InternTable::Empty || B == InternTable::Empty)
    return false;
  // Elements are interned in sorted order: linear merge.
  ArrayRef<uint32_t> EA = Locksets.get(A);
  ArrayRef<uint32_t> EB = Locksets.get(B);
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

bool SHBGraph::locksetsIntersect(LocksetId A, LocksetId B) const {
  if (LocksetBits.empty())
    return locksetsIntersectUncached(A, B);
  size_t Bit = size_t(A) * Locksets.size() + B;
  return (LocksetBits[Bit >> 6] >> (Bit & 63)) & 1;
}

unsigned SHBGraph::segmentOf(unsigned T, uint32_t P) const {
  const auto &Edges = Threads[T].SpawnEdges;
  return static_cast<unsigned>(
      std::lower_bound(Edges.begin(), Edges.end(), P,
                       [](const auto &Edge, uint32_t Pos) {
                         return Edge.first < Pos;
                       }) -
      Edges.begin());
}

bool SHBGraph::happensBefore(unsigned T1, uint32_t P1, unsigned T2,
                             uint32_t P2) const {
  if (T1 == T2)
    return P1 < P2; // optimization 1: integer comparison
  assert(!Reach.empty() && "a cancelled build has no reachability rows");
  uint32_t R = reach(rowOf(T1, segmentOf(T1, P1)), T2);
  return R != Unreached && R <= P2;
}

/// The intersection matrix is quadratic in the interned lockset universe;
/// above this many locksets (512 KiB of bits) queries use the merge.
static constexpr size_t MaxMatrixLocksets = 2048;

void SHBGraph::buildQueryTables() {
  const size_t NumThreads = Threads.size();
  RowBase.resize(NumThreads);
  size_t NumRows = 0;
  for (const ThreadInfo &T : Threads) {
    RowBase[T.Id] = static_cast<unsigned>(NumRows);
    NumRows += T.SpawnEdges.size() + 1;
  }
  Reach.assign(NumRows * NumThreads, Unreached);

  // One spawn/join fixpoint per (thread, segment): a segment reaches its
  // own thread from the next spawn-edge position (the positions before
  // it are ordered by the intra-thread integer comparison instead),
  // spawn edges at or after the reached position fire into the child's
  // start, and a thread's join edges fire as soon as any of its
  // positions is reachable, since its end then is too.
  for (const ThreadInfo &Src : Threads) {
    for (size_t Seg = 0; Seg <= Src.SpawnEdges.size(); ++Seg) {
      uint32_t *Row = Reach.data() + (RowBase[Src.Id] + Seg) * NumThreads;
      Row[Src.Id] = Seg < Src.SpawnEdges.size() ? Src.SpawnEdges[Seg].first
                                                : Src.NumEvents;
      bool Changed = true;
      while (Changed) {
        Changed = false;
        for (const ThreadInfo &Cur : Threads) {
          uint32_t From = Row[Cur.Id];
          if (From == Unreached)
            continue;
          for (const auto &[Pos, Child] : Cur.SpawnEdges) {
            if (Pos < From)
              continue;
            if (Row[Child] != 0) {
              Row[Child] = 0;
              Changed = true;
            }
          }
          for (const auto &[Joiner, Pos] : Cur.Joins) {
            if (Pos < Row[Joiner]) {
              Row[Joiner] = Pos;
              Changed = true;
            }
          }
        }
      }
    }
  }

  const size_t N = Locksets.size();
  if (N > MaxMatrixLocksets)
    return;
  LocksetBits.assign((N * N + 63) / 64, 0);
  for (LocksetId A = 0; A < N; ++A)
    for (LocksetId B = A; B < N; ++B)
      if (locksetsIntersectUncached(A, B)) {
        size_t AB = size_t(A) * N + B, BA = size_t(B) * N + A;
        LocksetBits[AB >> 6] |= uint64_t(1) << (AB & 63);
        LocksetBits[BA >> 6] |= uint64_t(1) << (BA & 63);
      }
}

bool SHBGraph::happensBeforeNaive(unsigned T1, uint32_t P1, unsigned T2,
                                  uint32_t P2) const {
  if (T1 == T2)
    return P1 < P2;
  // Straw-man search over individual (thread, position) nodes.
  std::unordered_set<uint64_t> Visited;
  std::deque<std::pair<unsigned, uint32_t>> Queue;
  auto Push = [&](unsigned T, uint32_t P) {
    if (Visited.insert((uint64_t(T) << 32) | P).second)
      Queue.emplace_back(T, P);
  };
  Push(T1, P1);
  while (!Queue.empty()) {
    auto [T, P] = Queue.front();
    Queue.pop_front();
    if (T == T2 && P <= P2 && !(T == T1 && P == P1))
      return true;
    const ThreadInfo &TI = Threads[T];
    if (P + 1 < TI.NumEvents)
      Push(T, P + 1);
    for (const auto &[Pos, Child] : TI.SpawnEdges)
      if (Pos == P)
        Push(Child, 0);
    if (P + 1 >= TI.NumEvents)
      for (const auto &[Joiner, Pos] : TI.Joins)
        Push(Joiner, Pos);
  }
  return false;
}

//===----------------------------------------------------------------------===//
// SHB construction
//===----------------------------------------------------------------------===//

namespace o2 {

class SHBBuilder {
public:
  SHBBuilder(const PTAResult &PTA, const SHBOptions &Opts,
             const SharingResult *OSA, const CancellationToken *Cancel)
      : PTA(PTA), Opts(Opts), OSA(OSA), Cancel(Cancel) {}

  SHBGraph build() {
    assert((!OSA || OSA->sharedAccesses().size() == PTA.accessTable().size()) &&
           "OSA must flag this PTA result's access table");
    // Main thread.
    const Function *Main = PTA.module().getMain();
    if (!Main) {
      // Only reachable when the caller skipped verification (the
      // verifier rejects main-less modules up front). An empty graph is
      // sound — no threads means nothing executes and no races — and
      // beats aborting a release-build fleet.
      G.EntryMissing = true;
      return std::move(G);
    }
    G.Threads.emplace_back();
    G.Threads[0].Entry = Main;
    Queue.push_back(0);

    while (!Queue.empty() && !G.Cancelled) {
      unsigned T = Queue.front();
      Queue.pop_front();
      traceThread(T);
    }
    resolveJoins();
    // A cancelled graph is partial and never queried: skip the tables.
    if (!G.Cancelled)
      G.buildQueryTables();
    return std::move(G);
  }

private:
  struct WalkState {
    unsigned Thread;
    uint32_t Pos = 0;
    /// Lock elements per open acquire, innermost last.
    std::vector<SmallVector<uint32_t, 2>> LockStack;
    /// Implicit base lock elements (event-handler serialization).
    SmallVector<uint32_t, 1> BaseLocks;
    LocksetId CurLockset = InternTable::Empty;
    /// Index in the thread's Acquires of each open region, innermost last.
    std::vector<uint32_t> RegionStack;
    bool Truncated = false;
  };

  /// Must-joins recorded during tracing, resolved once all threads exist.
  struct JoinRecord {
    unsigned Thread;
    uint32_t Pos;
    /// The one object the joined variable points to.
    unsigned RecvObj;
  };

  void traceThread(unsigned T) {
    WalkState S;
    S.Thread = T;
    if (Opts.SerializeEventHandlers &&
        G.Threads[T].Kind == OriginKind::Event)
      S.BaseLocks.push_back(SHBGraph::UILockElem);
    recomputeLockset(S);
    const Function *Entry = G.Threads[T].Entry;
    Ctx EntryCtx = G.Threads[T].EntryCtx;
    visit(Entry, EntryCtx, S);
    G.Threads[T].NumEvents = S.Pos;
    G.Threads[T].Truncated = S.Truncated;
    // Retroactively flag accesses whose region saw a spawn/join.
    for (AccessEvent &A : G.Threads[T].Accesses)
      if (A.LockRegion != 0 && SyncRegions.count(A.LockRegion))
        A.RegionHasSync = true;
  }

  void recomputeLockset(WalkState &S) {
    SmallVector<uint32_t, 8> Elems(S.BaseLocks.begin(), S.BaseLocks.end());
    for (const auto &Held : S.LockStack)
      Elems.append(Held.begin(), Held.end());
    std::sort(Elems.begin(), Elems.end());
    Elems.erase(std::unique(Elems.begin(), Elems.end()), Elems.end());
    S.CurLockset = G.Locksets.intern(Elems);
  }

  void markOpenRegionsSynced(const WalkState &S) {
    for (uint32_t Open : S.RegionStack)
      SyncRegions.insert(G.Threads[S.Thread].Acquires[Open].Region);
  }

  /// An access whose base points to nothing touches no location and
  /// records no event. Every other access is counted on its thread and
  /// its innermost region, and stored unless OSA's shared-access flags
  /// leave its access-table entry out.
  void recordAccess(WalkState &S, const Access &A) {
    if (A.Locs.empty())
      return;
    ThreadInfo &T = G.Threads[S.Thread];
    ++T.NumAccesses;
    AcquireEvent *Region =
        S.RegionStack.empty() ? nullptr : &T.Acquires[S.RegionStack.back()];
    if (Region)
      ++Region->NumAccesses;
    if (OSA && !OSA->sharedAccesses()[&A - PTA.accessTable().data()])
      return;
    AccessEvent E;
    E.Pos = S.Pos;
    E.Thread = S.Thread;
    E.S = A.S;
    E.Lockset = S.CurLockset;
    E.LockRegion = Region ? Region->Region : 0;
    E.IsWrite = A.IsWrite;
    E.Locs.append(A.Locs.begin(), A.Locs.end());
    T.Accesses.push_back(std::move(E));
  }

  void visit(const Function *F, Ctx C, WalkState &S) {
    if (S.Truncated || S.Pos >= Opts.MaxEventsPerThread) {
      S.Truncated = true;
      return;
    }
    // Threads are traced one at a time: an instance stamped with this
    // thread is already inlined in its trace.
    uint32_t *Stamp =
        InlinedBy.tryEmplace((uint64_t(F->getId()) << 32) | C, 0).first;
    if (*Stamp == S.Thread + 1)
      return;
    *Stamp = S.Thread + 1;

    // The instance's accesses, in body order: the walk advances a cursor
    // through them instead of decoding statements.
    ArrayRef<Access> Accesses = PTA.accesses(F, C);
    size_t NextAccess = 0;
    for (const auto &StmtPtr : F->body()) {
      const Stmt &Stm = *StmtPtr;
      if (pollCancelled(Cancel)) {
        G.Cancelled = true;
        S.Truncated = true;
        return;
      }
      if (S.Pos >= Opts.MaxEventsPerThread) {
        S.Truncated = true;
        return;
      }
      switch (Stm.getKind()) {
      case Stmt::SK_Acquire: {
        const auto &A = cast<AcquireStmt>(Stm);
        SmallVector<uint32_t, 2> Elems;
        if (const BitVector *Pts = PTA.pts(A.getLock(), C))
          for (unsigned Obj : *Pts)
            Elems.push_back(Obj);
        AcquireEvent AE;
        AE.Pos = S.Pos;
        AE.Thread = S.Thread;
        AE.S = &Stm;
        AE.HeldBefore = S.CurLockset;
        AE.Acquired = Elems;
        AE.Region = ++NextRegion;
        std::vector<AcquireEvent> &Acquires = G.Threads[S.Thread].Acquires;
        S.RegionStack.push_back(static_cast<uint32_t>(Acquires.size()));
        Acquires.push_back(std::move(AE));
        S.LockStack.push_back(std::move(Elems));
        recomputeLockset(S);
        break;
      }
      case Stmt::SK_Release:
        // The verifier guarantees balance per function body.
        if (!S.LockStack.empty()) {
          S.LockStack.pop_back();
          S.RegionStack.pop_back();
          recomputeLockset(S);
        }
        break;
      case Stmt::SK_Alloc:
      case Stmt::SK_Call:
        for (const CallTarget &T : PTA.callTargets(&Stm, C)) {
          ++S.Pos; // the call node itself
          visit(T.Callee, T.CalleeCtx, S);
        }
        break;
      case Stmt::SK_Spawn: {
        markOpenRegionsSynced(S);
        const auto &Sp = cast<SpawnStmt>(Stm);
        ArrayRef<CallTarget> Targets = PTA.callTargets(&Stm, C);
        // Origin loop-duplication already models this spawn's parallelism
        // when any target receiver is a duplicated origin object.
        bool TargetsDuplicated = false;
        for (const CallTarget &T : Targets)
          TargetsDuplicated |= isAlreadyDuplicated(T);
        for (const CallTarget &T : Targets) {
          unsigned NumDups = 1;
          if (Sp.isInLoop() && !TargetsDuplicated)
            NumDups = 2;
          for (unsigned Dup = 0; Dup != NumDups; ++Dup) {
            unsigned Child = getOrCreateThread(&Sp, C, T, Dup);
            if (Child == ~0u)
              continue;
            G.Threads[S.Thread].SpawnEdges.emplace_back(S.Pos, Child);
            G.Threads[Child].Starts.emplace_back(S.Thread, S.Pos);
          }
        }
        break;
      }
      case Stmt::SK_Join: {
        markOpenRegionsSynced(S);
        const auto &J = cast<JoinStmt>(Stm);
        const BitVector *Pts = PTA.pts(J.getReceiver(), C);
        if (Pts && Pts->count() == 1 && !isLoopAllocated(Pts->findFirst()))
          JoinRecords.push_back({S.Thread, S.Pos, unsigned(Pts->findFirst())});
        break;
      }
      default:
        if (NextAccess != Accesses.size() && Accesses[NextAccess].S == &Stm)
          recordAccess(S, Accesses[NextAccess++]);
        break;
      }
      ++S.Pos;
    }
  }

  /// True if \p Obj may stand for several run-time objects (a joined
  /// variable names a thread object, allocated by an AllocStmt).
  bool isLoopAllocated(unsigned Obj) const {
    const ObjInfo &O = PTA.object(Obj);
    const auto *A = dyn_cast_if_present<AllocStmt>(O.Alloc);
    return O.DupIndex != 0 || (A && A->isInLoop());
  }

  /// Origin-duplicated receiver objects already model loop parallelism;
  /// don't duplicate the spawn a second time.
  bool isAlreadyDuplicated(const CallTarget &T) const {
    return T.ReceiverObj != ~0u &&
           PTA.object(T.ReceiverObj).DupIndex > 0;
  }

  unsigned getOrCreateThread(const SpawnStmt *Sp, Ctx SpawnCtx,
                             const CallTarget &T, unsigned Dup) {
    std::tuple<unsigned, Ctx, const Function *, Ctx, unsigned, unsigned> Key{
        Sp->getId(), SpawnCtx, T.Callee, T.CalleeCtx, T.ReceiverObj, Dup};
    auto It = ThreadKeys.find(Key);
    if (It != ThreadKeys.end())
      return It->second;
    if (G.Threads.size() >= Opts.MaxThreads)
      return ~0u;
    unsigned Id = static_cast<unsigned>(G.Threads.size());
    G.Threads.emplace_back();
    ThreadInfo &TI = G.Threads.back();
    TI.Id = Id;
    TI.Kind = kindOfEntry(Sp->getEntryName());
    TI.Entry = T.Callee;
    TI.EntryCtx = T.CalleeCtx;
    TI.Spawn = Sp;
    TI.RecvObj = T.ReceiverObj;
    TI.Dup = Dup;
    ThreadKeys.emplace(Key, Id);
    Queue.push_back(Id);
    return Id;
  }

  OriginKind kindOfEntry(const std::string &EntryName) const {
    const OriginSpec &Spec = PTA.options().Spec;
    return Spec.isEntry(EntryName) ? Spec.kindOf(EntryName)
                                   : OriginKind::Thread;
  }

  /// HB needs a must-join: a join gets an edge only when its variable
  /// points to one object that no loop allocates (checked while tracing)
  /// and exactly one SHB thread runs on it. A may-join orders nothing:
  /// two loop copies of a thread that joins its predecessor would order
  /// each other's ends before their joins, and through that cycle a
  /// thread's accesses after its own child's.
  void resolveJoins() {
    // Receiver object -> the one thread on it, or ~0u when several are.
    U64Map<unsigned> ThreadOn;
    for (const ThreadInfo &T : G.Threads)
      if (T.RecvObj != ~0u) {
        auto [Slot, Inserted] = ThreadOn.tryEmplace(T.RecvObj, T.Id);
        if (!Inserted)
          *Slot = ~0u;
      }
    for (const JoinRecord &Rec : JoinRecords) {
      const unsigned *T = ThreadOn.find(Rec.RecvObj);
      if (T && *T != ~0u)
        G.Threads[*T].Joins.emplace_back(Rec.Thread, Rec.Pos);
    }
  }

  const PTAResult &PTA;
  SHBOptions Opts;
  const SharingResult *OSA;
  const CancellationToken *Cancel;
  SHBGraph G;
  std::deque<unsigned> Queue;
  std::map<std::tuple<unsigned, Ctx, const Function *, Ctx, unsigned, unsigned>,
           unsigned>
      ThreadKeys;
  std::vector<JoinRecord> JoinRecords;
  std::unordered_set<uint32_t> SyncRegions;
  /// ⟨function, context⟩ key -> 1 + the last thread that inlined it.
  U64Map<uint32_t> InlinedBy;
  uint32_t NextRegion = 0;
};

} // namespace o2

SHBGraph o2::buildSHBGraph(const PTAResult &PTA, const SHBOptions &Opts,
                           const SharingResult *OSA,
                           const CancellationToken *Cancel) {
  return SHBBuilder(PTA, Opts, OSA, Cancel).build();
}

void o2::printSHBDot(const SHBGraph &SHB, OutputStream &OS) {
  OS << "digraph shb {\n";
  OS << "  node [shape=box, fontname=\"monospace\"];\n";
  for (const ThreadInfo &T : SHB.threads()) {
    OS << "  t" << T.Id << " [label=\"T" << T.Id << ": ";
    if (T.Entry) {
      if (T.Entry->getClass())
        OS << T.Entry->getClass()->getName() << "::";
      OS << T.Entry->getName();
    }
    switch (T.Kind) {
    case OriginKind::Main:
      OS << "\\n(main)";
      break;
    case OriginKind::Thread:
      OS << "\\n(thread)";
      break;
    case OriginKind::Event:
      OS << "\\n(event)";
      break;
    }
    OS << "\\n" << uint64_t(T.NumAccesses) << " accesses\"];\n";
  }
  for (const ThreadInfo &T : SHB.threads()) {
    for (const auto &[Pos, Child] : T.SpawnEdges)
      OS << "  t" << T.Id << " -> t" << Child << " [label=\"spawn@" << Pos
         << "\"];\n";
    for (const auto &[Joiner, Pos] : T.Joins)
      OS << "  t" << T.Id << " -> t" << Joiner << " [style=dashed, label=\"join@"
         << Pos << "\"];\n";
  }
  OS << "}\n";
}
