//===- PointerAnalysis.cpp - Context-sensitive pointer analysis -------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Andersen-style inclusion-constraint solver over ⟨variable, context⟩
// nodes with an on-the-fly call graph. The context abstraction is selected
// by PTAOptions::Kind; under ContextKind::Origin this implements the
// paper's OPA (Table 2), including the inter-origin context switches at
// origin allocations (rule ❽) and origin entry invocations (rule ❾), the
// 1-call-site wrapper extension, and loop duplication of origins.
//
// Solving alternates two steps until fixpoint:
//
//   propagate  — close the current copy-edge graph with a FIFO worklist
//                that pushes each popped node's pending delta to its
//                successors as one word-level BitVector union.
//   applyRound — against the closed state, freeze the outstanding
//                ⟨objects × loads/stores/calls⟩ work of every use node
//                that is dirty (its points-to set grew, or it gained a
//                use, since the last round), then apply it in node order,
//                deriving new edges, objects, contexts, and call targets.
//
// Points-to sets are windowed BitVectors, so a set costs memory and time
// in proportion to the span of object numbers it holds, not to the
// number of objects in the module. Freezing only dirty nodes preserves
// the application sequence of a scan over every use node: a clean node
// has Pts == Applied and no new uses, so that scan would skip it too.
//
// Because a closure of a fixed inclusion system is its unique least
// solution, the frozen state each round — and hence the whole discovery
// sequence (node, object, context, origin, and call-target creation
// order) — does not depend on the order the worklist visits nodes in.
// Reports print object, context and origin numbers, so the rounds are
// what keeps them stable under any change to propagation scheduling.
// tests/pta/PTAClosureTest.cpp checks the fixpoint against the
// inclusion constraints read straight off the IR.
//
//===----------------------------------------------------------------------===//

#include "o2/PTA/PointerAnalysis.h"

#include "o2/Support/Casting.h"
#include "o2/Support/SmallVector.h"

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <utility>

using namespace o2;

std::string PTAOptions::name() const {
  switch (Kind) {
  case ContextKind::Insensitive:
    return "0-ctx";
  case ContextKind::KCallsite:
    return std::to_string(K) + "-cfa";
  case ContextKind::KObject:
    return std::to_string(K) + "-obj";
  case ContextKind::Origin:
    return std::to_string(K) + "-origin";
  }
  O2_UNREACHABLE("covered switch");
}

OriginSpec OriginSpec::standard() {
  OriginSpec Spec;
  // Paper Table 1. Thread entry points...
  Spec.addEntry("run", OriginKind::Thread);
  Spec.addEntry("call", OriginKind::Thread);
  // ... and event-handler entry points.
  Spec.addEntry("handleEvent", OriginKind::Event);
  Spec.addEntry("onReceive", OriginKind::Event);
  Spec.addEntry("actionPerformed", OriginKind::Event);
  Spec.addEntry("onMessageEvent", OriginKind::Event);
  return Spec;
}

namespace {

/// Wrapper-extension context elements carry the high bit (origin IDs and
/// call-site encodings stay below it).
constexpr uint32_t WrapperElemBit = 0x80000000u;

} // namespace

namespace o2 {
/// The constraint solver. Lives in namespace o2 (not file-local) because
/// it is the befriended builder of PTAResult.
class PTASolver {
public:
  PTASolver(const Module &M, const PTAOptions &Opts)
      : M(M), Opts(Opts), Spec(Opts.Spec) {
    R = std::make_unique<PTAResult>();
    R->M = &M;
    R->Opts = Opts;
    R->GlobalNodes.assign(M.numGlobals(), -1);
    R->OriginCtxs.push_back(InternTable::Empty); // main origin
    augmentSpecWithSpawnEntries();
    computeWrapperFunctions();
  }

  std::unique_ptr<PTAResult> run() {
    const Function *Main = M.getMain();
    if (!Main) {
      // The verifier reports a missing main() as a verify-error before
      // any analysis runs; this path only triggers for callers that skip
      // verification. An empty result is trivially sound — nothing
      // executes — and beats aborting a release-build fleet.
      R->EntryMissing = true;
      finalize();
      R->Stats.set("pta.no-entry", 1);
      return std::move(R);
    }
    processFunction(Main, InternTable::Empty);
    do {
      propagate();
    } while (applyRound());
    // A budget stop still brings the partial result to a closure for
    // finalize; a cancellation unwinds immediately with whatever exists.
    if (Stopped && !R->Cancelled)
      propagate();
    finalize();
    return std::move(R);
  }

private:
  //===--------------------------------------------------------------------===//
  // Graph storage
  //===--------------------------------------------------------------------===//

  struct Node {
    /// Full points-to set.
    BitVector Pts;
    /// Bits not yet pushed along outgoing copy edges.
    BitVector PropDelta;
    /// Bits already handed to this node's Loads/Stores/Calls by earlier
    /// discovery rounds.
    BitVector Applied;
    std::vector<unsigned> Succs;
    /// Field loads/stores waiting on base objects: (field key, other node).
    std::vector<std::pair<FieldKey, unsigned>> Loads;
    std::vector<std::pair<FieldKey, unsigned>> Stores;
    /// Virtual calls / spawns waiting on receiver objects.
    std::vector<std::pair<const Stmt *, Ctx>> Calls;
    /// Prefix of Loads/Stores/Calls that already caught up with Applied;
    /// uses registered after the last round instead receive the full
    /// frozen set in the next one.
    unsigned OldLoads = 0;
    unsigned OldStores = 0;
    unsigned OldCalls = 0;
    bool HasUses = false;
    bool Queued = false;
    /// On DirtyUses: a use node whose Pts grew or that gained uses since
    /// the last discovery round froze it.
    bool Dirty = false;
  };

  std::vector<Node> Nodes;
  std::unordered_set<uint64_t> EdgeSet;
  std::deque<unsigned> Worklist;
  /// Use nodes with possibly outstanding discovery work; every other use
  /// node has Pts == Applied and no uses newer than the last round.
  std::vector<unsigned> DirtyUses;
  uint64_t NumPropWords = 0;

  const Module &M;
  PTAOptions Opts;
  OriginSpec Spec;
  std::unique_ptr<PTAResult> R;
  std::unordered_set<uint64_t> ProcessedInstances;
  std::unordered_map<uint64_t, unsigned> ObjMap;
  /// Return statements per function, for return-value binding.
  std::unordered_map<const Function *, std::vector<const ReturnStmt *>>
      ReturnsOf;
  std::unordered_set<const Function *> WrapperFns;
  std::unordered_map<uint64_t, std::vector<unsigned>> OriginsPerSite;
  bool Stopped = false;

  /// Polls the cancellation token; once it fires, the solver behaves like
  /// a budget stop (Stopped) with the result additionally flagged.
  bool checkCancelled() {
    if (R->Cancelled)
      return true;
    if (!pollCancelled(Opts.Cancel))
      return false;
    Stopped = true;
    R->Cancelled = true;
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Setup
  //===--------------------------------------------------------------------===//

  /// Entry names used by spawn statements are origin entries even when the
  /// configuration does not list them (custom thread abstractions).
  void augmentSpecWithSpawnEntries() {
    for (const auto &F : M.functions())
      for (const auto &S : F->body())
        if (const auto *Sp = dyn_cast<SpawnStmt>(S.get()))
          if (!Spec.isEntry(Sp->getEntryName()))
            Spec.addEntry(Sp->getEntryName(), OriginKind::Thread);
  }

  /// A wrapper function directly contains an origin allocation or a spawn;
  /// OPA extends origins created inside them with one call-site
  /// (Section 3.2, "Wrapper Functions and Loops").
  void computeWrapperFunctions() {
    if (Opts.Kind != ContextKind::Origin)
      return;
    const Function *Main = M.getMain();
    for (const auto &F : M.functions()) {
      if (F.get() == Main)
        continue; // main is the root; no wrapper treatment
      for (const auto &S : F->body()) {
        bool IsOriginSite = false;
        if (const auto *A = dyn_cast<AllocStmt>(S.get()))
          IsOriginSite = Spec.isOriginClass(A->getAllocType());
        else if (isa<SpawnStmt>(S.get()))
          IsOriginSite = true;
        if (IsOriginSite) {
          WrapperFns.insert(F.get());
          break;
        }
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Context manipulation
  //===--------------------------------------------------------------------===//

  SmallVector<uint32_t, 8> elemsOf(Ctx C) const {
    ArrayRef<uint32_t> E = R->Ctxs.get(C);
    return SmallVector<uint32_t, 8>(E.begin(), E.end());
  }

  Ctx intern(ArrayRef<uint32_t> Elems) { return R->Ctxs.intern(Elems); }

  /// Appends \p Elem and keeps the last \p K elements.
  Ctx pushLimited(Ctx C, uint32_t Elem, unsigned K) {
    SmallVector<uint32_t, 8> E = elemsOf(C);
    E.push_back(Elem);
    size_t Keep = std::min<size_t>(E.size(), K);
    return intern(ArrayRef<uint32_t>(E.data() + (E.size() - Keep), Keep));
  }

  /// Origin chain of an OPA context (wrapper elements stripped).
  SmallVector<uint32_t, 8> originChainOf(Ctx C) const {
    SmallVector<uint32_t, 8> Chain;
    for (uint32_t E : R->Ctxs.get(C))
      if (!(E & WrapperElemBit))
        Chain.push_back(E);
    return Chain;
  }

  static uint32_t callSiteElem(unsigned Site) { return Site << 1; }
  static uint32_t allocSiteElem(unsigned Site) { return (Site << 1) | 1; }

  /// Callee context for a non-origin-entry call (rule ❻ keeps the origin;
  /// other abstractions push call sites / receiver objects).
  Ctx calleeCtx(Ctx CallerCtx, uint32_t SiteElem, unsigned RecvObj,
                const Function *Callee) {
    switch (Opts.Kind) {
    case ContextKind::Insensitive:
      return InternTable::Empty;
    case ContextKind::KCallsite:
      return pushLimited(CallerCtx, SiteElem, Opts.K);
    case ContextKind::KObject: {
      // Receiver-object sensitivity with standard k-limiting over
      // allocation sites: the method context is the receiver's site
      // followed by its heap context; static calls inherit the caller.
      if (RecvObj == ~0u)
        return CallerCtx;
      const ObjInfo &Recv = R->Objects[RecvObj];
      SmallVector<uint32_t, 8> Elems;
      Elems.push_back(allocSiteElem(Recv.Site));
      for (uint32_t E : R->Ctxs.get(Recv.HeapCtx)) {
        if (Elems.size() >= Opts.K)
          break;
        Elems.push_back(E);
      }
      return intern(Elems);
    }
    case ContextKind::Origin: {
      // Same origin as the caller. Wrapper callees additionally get the
      // call site so origins created inside them stay separate.
      SmallVector<uint32_t, 8> Chain = originChainOf(CallerCtx);
      if (Callee && WrapperFns.count(Callee))
        Chain.push_back(WrapperElemBit | SiteElem);
      return intern(Chain);
    }
    }
    O2_UNREACHABLE("covered switch");
  }

  /// Heap context for an allocation executed under \p AllocCtx.
  Ctx heapCtx(Ctx AllocCtx) {
    switch (Opts.Kind) {
    case ContextKind::Insensitive:
      return InternTable::Empty;
    case ContextKind::KObject: {
      // k-obj + heap: the heap context keeps the first k elements of the
      // allocating method's context (Doop's kobjH convention).
      ArrayRef<uint32_t> E = R->Ctxs.get(AllocCtx);
      size_t Keep = std::min<size_t>(E.size(), Opts.K);
      return intern(E.slice(0, Keep));
    }
    case ContextKind::KCallsite:
    case ContextKind::Origin:
      return AllocCtx;
    }
    O2_UNREACHABLE("covered switch");
  }

  //===--------------------------------------------------------------------===//
  // Nodes and objects
  //===--------------------------------------------------------------------===//

  unsigned newNode() {
    Nodes.emplace_back();
    if (Nodes.size() > Opts.NodeBudget && !Stopped) {
      Stopped = true;
      R->HitBudget = true;
    }
    return static_cast<unsigned>(Nodes.size() - 1);
  }

  unsigned varNode(const Variable *V, Ctx C) {
    uint64_t Key = (uint64_t(V->getId()) << 32) | C;
    auto [It, Inserted] = R->VarNodes.emplace(Key, 0);
    if (Inserted)
      It->second = newNode();
    return It->second;
  }

  unsigned globalNode(const Global *G) {
    int &Slot = R->GlobalNodes[G->getId()];
    if (Slot < 0)
      Slot = static_cast<int>(newNode());
    return static_cast<unsigned>(Slot);
  }

  unsigned fieldNode(unsigned Obj, FieldKey FK) {
    uint64_t Key = (uint64_t(Obj) << 32) | FK;
    auto [It, Inserted] = R->FieldNodes.emplace(Key, 0);
    if (Inserted)
      It->second = newNode();
    return It->second;
  }

  unsigned objectFor(unsigned Site, Ctx HCtx, unsigned Dup, const Type *Ty,
                     const Stmt *AllocS) {
    uint64_t Key = (uint64_t(Site) << 34) | (uint64_t(Dup) << 32) | HCtx;
    auto [It, Inserted] = ObjMap.emplace(Key, 0);
    if (Inserted) {
      ObjInfo Info;
      Info.Id = static_cast<unsigned>(R->Objects.size());
      Info.Site = Site;
      Info.HeapCtx = HCtx;
      Info.AllocatedType = Ty;
      Info.Alloc = AllocS;
      Info.DupIndex = Dup;
      R->Objects.push_back(Info);
      R->ObjOrigin.push_back(~0u);
      It->second = Info.Id;
    }
    return It->second;
  }

  //===--------------------------------------------------------------------===//
  // Constraint primitives
  //===--------------------------------------------------------------------===//

  void schedule(unsigned N) {
    if (!Nodes[N].Queued) {
      Nodes[N].Queued = true;
      Worklist.push_back(N);
    }
  }

  void markDirty(unsigned N) {
    if (!Nodes[N].Dirty) {
      Nodes[N].Dirty = true;
      DirtyUses.push_back(N);
    }
  }

  void addPts(unsigned N, unsigned Obj) {
    if (Nodes[N].Pts.set(Obj)) {
      Nodes[N].PropDelta.set(Obj);
      if (Nodes[N].HasUses)
        markDirty(N);
      schedule(N);
    }
  }

  void addPtsSet(unsigned N, const BitVector &Objs) {
    Node &Nd = Nodes[N];
    unsigned Added = Nd.Pts.unionWithDiff(Objs, Nd.PropDelta);
    if (!Added)
      return;
    NumPropWords += Added;
    if (Nd.HasUses)
      markDirty(N);
    schedule(N);
  }

  void addCopyEdge(unsigned Src, unsigned Dst) {
    if (Src == Dst)
      return;
    uint64_t Key = (uint64_t(Src) << 32) | Dst;
    if (!EdgeSet.insert(Key).second)
      return;
    Nodes[Src].Succs.push_back(Dst);
    addPtsSet(Dst, Nodes[Src].Pts);
  }

  /// Use registration only records the constraint; the next discovery
  /// round hands it the full frozen points-to set of its base. Applying
  /// at registration time would make the discovery order, and with it
  /// the node, object and context numbering, depend on the propagation
  /// schedule.
  void registerLoad(unsigned Base, FieldKey FK, unsigned Dst) {
    Nodes[Base].HasUses = true;
    markDirty(Base);
    Nodes[Base].Loads.emplace_back(FK, Dst);
  }

  void registerStore(unsigned Base, FieldKey FK, unsigned Src) {
    Nodes[Base].HasUses = true;
    markDirty(Base);
    Nodes[Base].Stores.emplace_back(FK, Src);
  }

  void registerCallUse(unsigned Recv, const Stmt *S, Ctx C) {
    Nodes[Recv].HasUses = true;
    markDirty(Recv);
    Nodes[Recv].Calls.emplace_back(S, C);
  }

  //===--------------------------------------------------------------------===//
  // Discovery rounds
  //===--------------------------------------------------------------------===//

  /// One unit of frozen discovery work: a use node, the objects its
  /// already-seen uses still owe (Delta), and — when uses were registered
  /// since the last round — the full closure set those must catch up on.
  struct WorkItem {
    unsigned NodeId = 0;
    SmallVector<unsigned, 8> Delta;
    SmallVector<unsigned, 8> Full;
    unsigned LoadsEnd = 0;
    unsigned StoresEnd = 0;
    unsigned CallsEnd = 0;
  };

  /// Freezes the outstanding work of every dirty use node against the
  /// propagated closure, then applies it in ascending node order. Returns
  /// true if another propagate/apply round is needed. The freeze-then-apply
  /// split makes the application sequence a pure function of the closure,
  /// which is the unique least solution of the current constraints, so the
  /// numbering that reports print does not depend on the worklist order.
  /// Freezing only the dirty nodes keeps that sequence: a clean use node
  /// has Pts == Applied and no new uses, so it would freeze no work.
  bool applyRound() {
    if (Stopped)
      return false;
    std::vector<unsigned> Frozen = std::exchange(DirtyUses, {});
    std::sort(Frozen.begin(), Frozen.end());
    std::vector<WorkItem> Work;
    Work.reserve(Frozen.size());
    for (unsigned N : Frozen) {
      Node &Nd = Nodes[N];
      Nd.Dirty = false;
      bool NewUses = Nd.Loads.size() > Nd.OldLoads ||
                     Nd.Stores.size() > Nd.OldStores ||
                     Nd.Calls.size() > Nd.OldCalls;
      WorkItem W;
      W.NodeId = N;
      Nd.Pts.forEachSetWord([&](size_t I, BitVector::Word Bits) {
        Bits &= ~Nd.Applied.word(I);
        for (; Bits; Bits &= Bits - 1)
          W.Delta.push_back(static_cast<unsigned>(
              I * BitVector::WordBits + __builtin_ctzll(Bits)));
      });
      if (W.Delta.empty() && !NewUses)
        continue;
      if (NewUses)
        for (unsigned Obj : Nd.Pts)
          W.Full.push_back(Obj);
      W.LoadsEnd = static_cast<unsigned>(Nd.Loads.size());
      W.StoresEnd = static_cast<unsigned>(Nd.Stores.size());
      W.CallsEnd = static_cast<unsigned>(Nd.Calls.size());
      Nd.Applied.unionWithChanged(Nd.Pts);
      Work.push_back(std::move(W));
    }
    if (Work.empty())
      return false;
    for (const WorkItem &W : Work) {
      if (Stopped || checkCancelled())
        return false;
      applyUses(W);
    }
    return true;
  }

  void applyUses(const WorkItem &W) {
    const unsigned N = W.NodeId;
    const unsigned OldL = Nodes[N].OldLoads;
    const unsigned OldS = Nodes[N].OldStores;
    const unsigned OldC = Nodes[N].OldCalls;
    // Uses from earlier rounds receive only the new objects... (indexed
    // accesses throughout: handlers create nodes and reallocate Nodes).
    for (unsigned Obj : W.Delta) {
      for (unsigned I = 0; I != OldL; ++I) {
        auto [FK, Dst] = Nodes[N].Loads[I];
        addCopyEdge(fieldNode(Obj, FK), Dst);
      }
      for (unsigned I = 0; I != OldS; ++I) {
        auto [FK, Src] = Nodes[N].Stores[I];
        addCopyEdge(Src, fieldNode(Obj, FK));
      }
      for (unsigned I = 0; I != OldC; ++I) {
        auto [S, C] = Nodes[N].Calls[I];
        applyCallToObj(S, C, Obj);
      }
    }
    // ... while uses registered since the last round catch up on the full
    // frozen set. Uses registered during this very application (beyond
    // the frozen *End marks) wait for the next round.
    for (unsigned Obj : W.Full) {
      for (unsigned I = OldL; I != W.LoadsEnd; ++I) {
        auto [FK, Dst] = Nodes[N].Loads[I];
        addCopyEdge(fieldNode(Obj, FK), Dst);
      }
      for (unsigned I = OldS; I != W.StoresEnd; ++I) {
        auto [FK, Src] = Nodes[N].Stores[I];
        addCopyEdge(Src, fieldNode(Obj, FK));
      }
      for (unsigned I = OldC; I != W.CallsEnd; ++I) {
        auto [S, C] = Nodes[N].Calls[I];
        applyCallToObj(S, C, Obj);
      }
    }
    Nodes[N].OldLoads = W.LoadsEnd;
    Nodes[N].OldStores = W.StoresEnd;
    Nodes[N].OldCalls = W.CallsEnd;
  }

  //===--------------------------------------------------------------------===//
  // Propagation
  //===--------------------------------------------------------------------===//

  /// Closes the current copy-edge graph: afterwards every node's Pts is
  /// the least solution of the registered edges and direct facts, and no
  /// deltas are pending.
  void propagate() {
    while (!Worklist.empty()) {
      if (checkCancelled()) {
        for (unsigned N : Worklist)
          Nodes[N].Queued = false;
        Worklist.clear();
        return;
      }
      unsigned N = Worklist.front();
      Worklist.pop_front();
      Nodes[N].Queued = false;
      BitVector Delta = std::exchange(Nodes[N].PropDelta, BitVector());
      for (unsigned S : Nodes[N].Succs)
        addPtsSet(S, Delta);
    }
  }

  //===--------------------------------------------------------------------===//
  // Call binding
  //===--------------------------------------------------------------------===//

  std::vector<CallTarget> &targetsSlot(const Stmt *S, Ctx C) {
    uint64_t Key = (uint64_t(S->getId()) << 32) | C;
    return R->CallTargets[Key];
  }

  bool recordTarget(const Stmt *S, Ctx C, const CallTarget &T) {
    auto &Vec = targetsSlot(S, C);
    for (const CallTarget &Existing : Vec)
      if (Existing == T)
        return false;
    Vec.push_back(T);
    return true;
  }

  /// Binds actuals to formals and the callee's returns to the target.
  void bindCall(const Function *Callee, Ctx CalleeC, unsigned RecvObj,
                ArrayRef<const Variable *> Actuals, Ctx CallerC,
                const Variable *Target) {
    const auto &Params = Callee->params();
    size_t ParamBase = RecvObj != ~0u ? 1 : 0;
    if (RecvObj != ~0u && !Params.empty())
      addPts(varNode(Params[0], CalleeC), RecvObj);
    for (size_t I = 0; I < Actuals.size() && ParamBase + I < Params.size();
         ++I) {
      if (!Actuals[I]->getType()->isReference())
        continue;
      addCopyEdge(varNode(Actuals[I], CallerC),
                  varNode(Params[ParamBase + I], CalleeC));
    }
    if (Target && Target->getType()->isReference())
      for (const ReturnStmt *Ret : returnsOf(Callee))
        if (Ret->getValue() && Ret->getValue()->getType()->isReference())
          addCopyEdge(varNode(Ret->getValue(), CalleeC),
                      varNode(Target, CallerC));
    processFunction(Callee, CalleeC);
  }

  const std::vector<const ReturnStmt *> &returnsOf(const Function *F) {
    auto [It, Inserted] = ReturnsOf.emplace(F, std::vector<const ReturnStmt *>());
    if (Inserted)
      for (const auto &S : F->body())
        if (const auto *Ret = dyn_cast<ReturnStmt>(S.get()))
          It->second.push_back(Ret);
    return It->second;
  }

  /// Resolves one receiver object for a virtual call or spawn.
  void applyCallToObj(const Stmt *S, Ctx CallerC, unsigned Obj) {
    const auto *Cls = dyn_cast<ClassType>(R->Objects[Obj].AllocatedType);
    if (!Cls)
      return; // arrays have no methods

    if (const auto *Call = dyn_cast<CallStmt>(S)) {
      const Function *Callee = Cls->findMethod(Call->getMethodName());
      if (!Callee)
        return;
      Ctx CalleeC =
          calleeCtx(CallerC, callSiteElem(Call->getSite()), Obj, Callee);
      if (!recordTarget(S, CallerC, {Callee, CalleeC, Obj}))
        return;
      SmallVector<const Variable *, 4> Actuals(Call->getArgs().begin(),
                                               Call->getArgs().end());
      bindCall(Callee, CalleeC, Obj, Actuals, CallerC, Call->getTarget());
      return;
    }

    const auto *Spawn = cast<SpawnStmt>(S);
    const Function *Entry = Cls->findMethod(Spawn->getEntryName());
    if (!Entry)
      return;
    Ctx EntryC;
    if (Opts.Kind == ContextKind::Origin) {
      // Rule ❾: the entry runs under the origin created for the receiver
      // object at its (origin) allocation.
      unsigned Origin = R->ObjOrigin[Obj];
      EntryC = Origin != ~0u ? R->OriginCtxs[Origin]
                             : calleeCtx(CallerC, callSiteElem(Spawn->getSite()),
                                         Obj, Entry);
    } else {
      EntryC =
          calleeCtx(CallerC, callSiteElem(Spawn->getSite()), Obj, Entry);
    }
    if (!recordTarget(S, CallerC, {Entry, EntryC, Obj}))
      return;
    SmallVector<const Variable *, 4> Actuals(Spawn->getArgs().begin(),
                                             Spawn->getArgs().end());
    bindCall(Entry, EntryC, Obj, Actuals, CallerC, /*Target=*/nullptr);
  }

  //===--------------------------------------------------------------------===//
  // Statement processing
  //===--------------------------------------------------------------------===//

  /// Polls after each statement rather than before, so a pass that
  /// starts always records main's first statement, however early the
  /// token fires.
  void processFunction(const Function *F, Ctx C) {
    if (Stopped)
      return;
    uint64_t Key = (uint64_t(F->getId()) << 32) | C;
    if (!ProcessedInstances.insert(Key).second)
      return;
    R->Instances.emplace_back(F, C);
    for (const auto &S : F->body()) {
      processStmt(*S, F, C);
      if (checkCancelled())
        return;
    }
  }

  void processAlloc(const AllocStmt &A, Ctx C) {
    ClassType *Cls = A.getAllocType();
    bool IsOriginAlloc =
        Opts.Kind == ContextKind::Origin && Spec.isOriginClass(Cls);
    unsigned NumDups = IsOriginAlloc && A.isInLoop() ? 2 : 1;

    for (unsigned Dup = 0; Dup != NumDups; ++Dup) {
      Ctx ObjCtx;
      Ctx InitCtx;
      unsigned Obj;
      if (IsOriginAlloc) {
        // Rule ❽: switch to a fresh origin; the object, its constructor,
        // and (later) its entry all live in the new origin.
        OriginKind Kind = OriginKind::Thread;
        auto Entries = Spec.entriesOf(Cls);
        if (!Entries.empty())
          Kind = Spec.kindOf(Entries.front());
        for (const std::string &E : Entries)
          if (Spec.kindOf(E) == OriginKind::Thread)
            Kind = OriginKind::Thread;
        // Recursion collapse: an origin that (transitively) re-allocates
        // its own allocation site folds back onto the ancestor origin,
        // so recursive spawning reaches a fixpoint (the k-limiting
        // analogue for origin chains).
        unsigned OriginId = ~0u;
        for (uint32_t Ancestor : originChainOf(C)) {
          const OriginInfo &Info = R->Origins.info(Ancestor);
          if (Info.AllocSite == A.getSite() && Info.DupIndex == Dup) {
            OriginId = Ancestor;
            break;
          }
        }
        // Backstop for mutual recursion between origin classes: bound
        // the origins per allocation site, folding the overflow onto the
        // first one.
        constexpr unsigned MaxOriginsPerSite = 8;
        uint64_t SiteKey = (uint64_t(A.getSite()) << 1) | Dup;
        if (OriginId == ~0u) {
          auto &PerSite = OriginsPerSite[SiteKey];
          if (PerSite.size() >= MaxOriginsPerSite) {
            OriginId = PerSite.front();
          } else {
            OriginId = R->Origins.getOrCreate(A.getSite(), C, Dup, Kind, Cls);
            if (OriginId == R->OriginCtxs.size())
              PerSite.push_back(OriginId);
          }
        }
        if (OriginId == R->OriginCtxs.size()) {
          SmallVector<uint32_t, 8> Chain = originChainOf(C);
          Chain.push_back(OriginId);
          size_t Keep = std::min<size_t>(Chain.size(), Opts.K);
          R->OriginCtxs.push_back(intern(ArrayRef<uint32_t>(
              Chain.data() + (Chain.size() - Keep), Keep)));
        }
        ObjCtx = R->OriginCtxs[OriginId];
        InitCtx = ObjCtx;
        Obj = objectFor(A.getSite(), ObjCtx, Dup, Cls, &A);
        R->ObjOrigin[Obj] = OriginId;
      } else {
        ObjCtx = heapCtx(C);
        Obj = objectFor(A.getSite(), ObjCtx, Dup, Cls, &A);
        if (Opts.Kind == ContextKind::Origin) {
          // Owner origin: the origin executing this allocation.
          SmallVector<uint32_t, 8> Chain = originChainOf(C);
          R->ObjOrigin[Obj] =
              Chain.empty() ? OriginTable::MainOrigin : Chain.back();
        }
        InitCtx = ~0u; // computed below per context kind
      }

      addPts(varNode(A.getTarget(), C), Obj);

      if (const Function *Init = Cls->findMethod("init")) {
        if (InitCtx == ~0u)
          InitCtx =
              calleeCtx(C, allocSiteElem(A.getSite()), Obj, Init);
        if (recordTarget(&A, C, {Init, InitCtx, Obj})) {
          SmallVector<const Variable *, 4> Actuals(A.getArgs().begin(),
                                                   A.getArgs().end());
          bindCall(Init, InitCtx, Obj, Actuals, C, /*Target=*/nullptr);
        }
      }
    }
  }

  void processStmt(const Stmt &S, const Function *F, Ctx C) {
    switch (S.getKind()) {
    case Stmt::SK_Alloc:
      processAlloc(cast<AllocStmt>(S), C);
      return;
    case Stmt::SK_ArrayAlloc: {
      const auto &A = cast<ArrayAllocStmt>(S);
      unsigned Obj =
          objectFor(A.getSite(), heapCtx(C), 0, A.getAllocType(), &A);
      if (Opts.Kind == ContextKind::Origin && R->ObjOrigin[Obj] == ~0u) {
        SmallVector<uint32_t, 8> Chain = originChainOf(C);
        R->ObjOrigin[Obj] =
            Chain.empty() ? OriginTable::MainOrigin : Chain.back();
      }
      addPts(varNode(A.getTarget(), C), Obj);
      return;
    }
    case Stmt::SK_Assign: {
      const auto &A = cast<AssignStmt>(S);
      if (A.getSource()->getType()->isReference() &&
          A.getTarget()->getType()->isReference())
        addCopyEdge(varNode(A.getSource(), C), varNode(A.getTarget(), C));
      return;
    }
    case Stmt::SK_FieldLoad: {
      const auto &L = cast<FieldLoadStmt>(S);
      if (L.getField()->getType()->isReference())
        registerLoad(varNode(L.getBase(), C), fieldKeyOf(L.getField()),
                     varNode(L.getTarget(), C));
      return;
    }
    case Stmt::SK_FieldStore: {
      const auto &St = cast<FieldStoreStmt>(S);
      if (St.getField()->getType()->isReference())
        registerStore(varNode(St.getBase(), C), fieldKeyOf(St.getField()),
                      varNode(St.getSource(), C));
      return;
    }
    case Stmt::SK_ArrayLoad: {
      const auto &L = cast<ArrayLoadStmt>(S);
      if (L.getTarget()->getType()->isReference())
        registerLoad(varNode(L.getBase(), C), ArrayElemKey,
                     varNode(L.getTarget(), C));
      return;
    }
    case Stmt::SK_ArrayStore: {
      const auto &St = cast<ArrayStoreStmt>(S);
      if (St.getSource()->getType()->isReference())
        registerStore(varNode(St.getBase(), C), ArrayElemKey,
                      varNode(St.getSource(), C));
      return;
    }
    case Stmt::SK_GlobalLoad: {
      const auto &L = cast<GlobalLoadStmt>(S);
      if (L.getGlobal()->getType()->isReference())
        addCopyEdge(globalNode(L.getGlobal()), varNode(L.getTarget(), C));
      return;
    }
    case Stmt::SK_GlobalStore: {
      const auto &St = cast<GlobalStoreStmt>(S);
      if (St.getGlobal()->getType()->isReference())
        addCopyEdge(varNode(St.getSource(), C), globalNode(St.getGlobal()));
      return;
    }
    case Stmt::SK_Call: {
      const auto &Call = cast<CallStmt>(S);
      if (Call.isVirtual()) {
        registerCallUse(varNode(Call.getReceiver(), C), &Call, C);
        return;
      }
      const Function *Callee = Call.getDirectCallee();
      Ctx CalleeC =
          calleeCtx(C, callSiteElem(Call.getSite()), ~0u, Callee);
      if (recordTarget(&Call, C, {Callee, CalleeC, ~0u})) {
        SmallVector<const Variable *, 4> Actuals(Call.getArgs().begin(),
                                                 Call.getArgs().end());
        bindCall(Callee, CalleeC, ~0u, Actuals, C, Call.getTarget());
      }
      return;
    }
    case Stmt::SK_Spawn:
      registerCallUse(varNode(cast<SpawnStmt>(S).getReceiver(), C), &S, C);
      return;
    case Stmt::SK_Join:
      // Joins only matter for happens-before; ensure the receiver node
      // exists so SHB can query its points-to set.
      varNode(cast<JoinStmt>(S).getReceiver(), C);
      return;
    case Stmt::SK_Acquire:
      varNode(cast<AcquireStmt>(S).getLock(), C);
      return;
    case Stmt::SK_Release:
      varNode(cast<ReleaseStmt>(S).getLock(), C);
      return;
    case Stmt::SK_Return:
      // Return values are wired at call-binding time.
      (void)F;
      return;
    }
    O2_UNREACHABLE("covered switch");
  }

  //===--------------------------------------------------------------------===//
  // Finalization
  //===--------------------------------------------------------------------===//

  void finalize() {
    R->NodePts.reserve(Nodes.size());
    for (Node &Nd : Nodes)
      R->NodePts.push_back(std::move(Nd.Pts));
    // A cancelled run feeds no downstream pass.
    if (!R->Cancelled)
      buildAccessTable();
    R->Stats.set("pta.pointer-nodes", Nodes.size());
    R->Stats.set("pta.objects", R->Objects.size());
    R->Stats.set("pta.copy-edges", EdgeSet.size());
    R->Stats.set("pta.instances", R->Instances.size());
    R->Stats.set("pta.contexts", R->Ctxs.size());
    R->Stats.set("pta.origins",
                 Opts.Kind == ContextKind::Origin ? R->Origins.size() : 0);
    R->Stats.set("pta.propagated-words", NumPropWords);
    if (R->Cancelled)
      R->Stats.set("pta.cancelled", 1);
  }

  /// Resolves every access of every reached instance once, for OSA, SHB
  /// and the escape baseline.
  void buildAccessTable() {
    for (const auto &[F, C] : R->Instances) {
      if (checkCancelled())
        return;
      addAccessRun(F, C);
    }
    // A budget stop can leave call targets whose bodies were never
    // processed; SHB still walks them.
    if (R->HitBudget)
      for (const auto &[Key, Targets] : R->CallTargets)
        for (const CallTarget &T : Targets)
          addAccessRun(T.Callee, T.CalleeCtx);
    // AccessLocs has stopped growing: point each entry at its run.
    const MemLoc *Next = R->AccessLocs.data();
    for (Access &A : R->Accesses) {
      A.Locs = ArrayRef<MemLoc>(Next, A.Locs.size());
      Next += A.Locs.size();
    }
  }

  /// Appends one instance's accesses, unless already present. Each
  /// entry's Locs holds only its length until buildAccessTable patches it.
  void addAccessRun(const Function *F, Ctx C) {
    auto Begin = static_cast<uint32_t>(R->Accesses.size());
    auto [Run, Inserted] = R->AccessRuns.try_emplace(
        (uint64_t(F->getId()) << 32) | C, Begin, Begin);
    if (!Inserted)
      return;
    for (const auto &SPtr : F->body()) {
      const Stmt &S = *SPtr;
      const Variable *Base = nullptr;
      FieldKey FK = ArrayElemKey;
      const Global *G = nullptr;
      switch (S.getKind()) {
      case Stmt::SK_FieldLoad:
        Base = cast<FieldLoadStmt>(S).getBase();
        FK = fieldKeyOf(cast<FieldLoadStmt>(S).getField());
        break;
      case Stmt::SK_FieldStore:
        Base = cast<FieldStoreStmt>(S).getBase();
        FK = fieldKeyOf(cast<FieldStoreStmt>(S).getField());
        break;
      case Stmt::SK_ArrayLoad:
        Base = cast<ArrayLoadStmt>(S).getBase();
        break;
      case Stmt::SK_ArrayStore:
        Base = cast<ArrayStoreStmt>(S).getBase();
        break;
      case Stmt::SK_GlobalLoad:
        G = cast<GlobalLoadStmt>(S).getGlobal();
        break;
      case Stmt::SK_GlobalStore:
        G = cast<GlobalStoreStmt>(S).getGlobal();
        break;
      default:
        continue;
      }
      size_t First = R->AccessLocs.size();
      if (G)
        R->AccessLocs.push_back(MemLoc::global(G->getId()));
      else if (const BitVector *Pts = R->pts(Base, C))
        for (unsigned Obj : *Pts)
          R->AccessLocs.push_back(MemLoc::field(Obj, FK));
      bool IsWrite = isa<FieldStoreStmt, ArrayStoreStmt, GlobalStoreStmt>(&S);
      R->Accesses.push_back(
          {&S, IsWrite, {nullptr, R->AccessLocs.size() - First}});
    }
    Run->second.second = static_cast<uint32_t>(R->Accesses.size());
  }
};

} // namespace o2

//===----------------------------------------------------------------------===//
// MemLoc and PTAResult queries
//===----------------------------------------------------------------------===//

const Field *o2::fieldOf(MemLoc Loc, const PTAResult &PTA) {
  if (Loc.isGlobal() || Loc.fieldKey() == ArrayElemKey)
    return nullptr;
  const Type *Ty = PTA.object(Loc.object()).AllocatedType;
  for (const ClassType *C = Ty ? dyn_cast<ClassType>(Ty) : nullptr; C;
       C = C->getSuper())
    for (const auto &F : C->fields())
      if (fieldKeyOf(F.get()) == Loc.fieldKey())
        return F.get();
  return nullptr;
}

std::string MemLoc::toString(const PTAResult &PTA) const {
  if (isGlobal())
    return "@" + PTA.module().globals()[globalId()]->getName();
  std::string Out = "obj" + std::to_string(object());
  if (fieldKey() == ArrayElemKey)
    return Out + "[*]";
  if (const Field *F = fieldOf(*this, PTA))
    return Out + "." + F->getName();
  return Out + ".f" + std::to_string(fieldKey() - 1);
}

const BitVector *PTAResult::pts(const Variable *V, Ctx C) const {
  auto It = VarNodes.find((uint64_t(V->getId()) << 32) | C);
  if (It == VarNodes.end())
    return nullptr;
  return &NodePts[It->second];
}

const BitVector *PTAResult::ptsGlobal(const Global *G) const {
  int Slot = GlobalNodes[G->getId()];
  return Slot < 0 ? nullptr : &NodePts[static_cast<unsigned>(Slot)];
}

const BitVector *PTAResult::ptsField(unsigned Obj, FieldKey FK) const {
  auto It = FieldNodes.find((uint64_t(Obj) << 32) | FK);
  return It == FieldNodes.end() ? nullptr : &NodePts[It->second];
}

ArrayRef<Access> PTAResult::accesses(const Function *F, Ctx C) const {
  auto It = AccessRuns.find((uint64_t(F->getId()) << 32) | C);
  if (It == AccessRuns.end())
    return {};
  auto [Begin, End] = It->second;
  return ArrayRef<Access>(Accesses.data() + Begin, End - Begin);
}

const std::vector<CallTarget> &PTAResult::callTargets(const Stmt *S,
                                                      Ctx C) const {
  static const std::vector<CallTarget> None;
  auto It = CallTargets.find((uint64_t(S->getId()) << 32) | C);
  return It == CallTargets.end() ? None : It->second;
}

std::vector<unsigned> PTAResult::originAttributes(unsigned OriginId) const {
  std::vector<unsigned> Attrs;
  if (OriginId == OriginTable::MainOrigin)
    return Attrs;
  const OriginInfo &Info = Origins.info(OriginId);
  // Find the origin's receiver object to recover its allocation stmt.
  const AllocStmt *Alloc = nullptr;
  for (const ObjInfo &O : Objects)
    if (O.Site == Info.AllocSite && originOfObject(O.Id) == OriginId)
      if ((Alloc = dyn_cast<AllocStmt>(O.Alloc)))
        break;
  if (!Alloc)
    return Attrs;
  for (const Variable *Arg : Alloc->getArgs()) {
    if (!Arg->getType()->isReference())
      continue;
    if (const BitVector *P = pts(Arg, Info.ParentCtx))
      for (unsigned Obj : *P)
        Attrs.push_back(Obj);
  }
  std::sort(Attrs.begin(), Attrs.end());
  Attrs.erase(std::unique(Attrs.begin(), Attrs.end()), Attrs.end());
  return Attrs;
}

std::string PTAResult::ctxToString(Ctx C) const {
  std::string Out = "[";
  bool First = true;
  for (uint32_t E : Ctxs.get(C)) {
    if (!First)
      Out += ",";
    First = false;
    if (Opts.Kind == ContextKind::Origin) {
      Out += (E & 0x80000000u) ? 'w' : 'O';
      Out += std::to_string(E & 0x7fffffffu);
    } else {
      Out += std::to_string(E);
    }
  }
  Out += "]";
  return Out;
}

std::unique_ptr<PTAResult> o2::runPointerAnalysis(const Module &M,
                                                  const PTAOptions &Opts) {
  return PTASolver(M, Opts).run();
}
