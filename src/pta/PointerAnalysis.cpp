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
// The graph allocates far less than once per node: a one-word points-to
// set, the common case, is stored inside its BitVector, successor and
// use lists keep their first entries inline, and call targets go to one
// flat table.
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
  PTASolver(const Module &M, const PTAOptions &Opts,
            const CancellationToken *Cancel)
      : M(M), Opts(Opts), Spec(Opts.Spec), Cancel(Cancel) {
    R = std::make_unique<PTAResult>();
    R->M = &M;
    R->Opts = Opts;
    R->GlobalNodes.assign(M.numGlobals(), -1);
    R->OriginCtxs.push_back(InternTable::Empty); // main origin
    indexModule();
    // Size the growing tables for a typical module up front (roughly:
    // nodes up to four per variable, two use lists per variable, an object
    // and a field node per site and context, a copy edge per variable),
    // so that growth, which moves or rehashes everything, happens rarely.
    // Untouched reserved memory costs no resident pages.
    Nodes.reserve(std::min<uint64_t>(
        Opts.NodeBudget,
        4 * uint64_t(M.numVariables() + M.numGlobals()) + M.numAllocSites()));
    UseLists.reserve(2 * size_t(M.numVariables()));
    R->FrameIds.reserve(2 * M.functions().size());
    R->FieldNodes.reserve(2 * M.numAllocSites());
    ObjMap.reserve(2 * M.numAllocSites());
    EdgeSet.reserve(M.numVariables());
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
    processFunction(frameOf(Main, InternTable::Empty));
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

  /// Inline capacities, sized from the seed-1 perfbench corpus: 82% of
  /// nodes have no successor and 13% one or two; a use list holds one
  /// call in 93% of cases and no load or store in 94%.
  static constexpr unsigned NumInlineSuccs = 2;
  static constexpr unsigned NumInlineUses = 1;

  struct Node {
    /// Full points-to set.
    BitVector Pts;
    /// Bits not yet pushed along outgoing copy edges.
    BitVector PropDelta;
    SmallVector<unsigned, NumInlineSuccs> Succs;
    /// This node's entry in UseLists once it is the base of a load or
    /// store or the receiver of a call; NoUses before.
    unsigned Uses = NoUses;
    bool Queued = false;
    /// On DirtyUses: a use node whose Pts grew or that gained uses since
    /// the last discovery round froze it.
    bool Dirty = false;
  };

  static constexpr unsigned NoUses = ~0u;
  static constexpr uint32_t NoIndex = ~0u;

  /// The constraints waiting on a use node's objects. Only use nodes have
  /// one, which keeps Node small.
  struct UseList {
    /// Bits already handed to Loads/Stores/Calls by earlier discovery
    /// rounds.
    BitVector Applied;
    /// Field loads/stores waiting on base objects: (field key, other node).
    SmallVector<std::pair<FieldKey, unsigned>, NumInlineUses> Loads;
    SmallVector<std::pair<FieldKey, unsigned>, NumInlineUses> Stores;
    /// Virtual calls / spawns waiting on receiver objects: (statement,
    /// caller frame).
    SmallVector<std::pair<const Stmt *, unsigned>, NumInlineUses> Calls;
    /// Prefix of Loads/Stores/Calls that already caught up with Applied;
    /// uses registered after the last round instead receive the full
    /// frozen set in the next one.
    unsigned OldLoads = 0;
    unsigned OldStores = 0;
    unsigned OldCalls = 0;
  };

  /// What allocation and dispatch need to know about a class, computed
  /// once per run instead of once per allocation or receiver object.
  struct ClassFacts {
    /// Declares or inherits a configured entry method (rule ❽).
    bool IsOrigin = false;
    /// Thread if any of its entries is a thread entry, else the kind of
    /// its first entry by name.
    OriginKind Kind = OriginKind::Thread;
    /// Its constructor, if any.
    const Function *Init = nullptr;
  };

  /// The call targets recorded so far for one (frame, call slot): the
  /// first inline, later ones chained through TargetOverflow in insertion
  /// order. finalize() compacts them into PTAResult's flat table.
  struct SlotTargets {
    CallTarget First; ///< Callee null: no target yet.
    uint32_t More = NoIndex;
  };
  struct OverflowTarget {
    CallTarget T;
    uint32_t Next = NoIndex;
  };

  std::vector<Node> Nodes;
  std::vector<UseList> UseLists;
  std::vector<SlotTargets> Targets; ///< by Frame::CallBase + call slot
  std::vector<OverflowTarget> TargetOverflow;
  /// Under OPA, by context: the context of its origin chain (wrapper
  /// elements stripped), or NoIndex until a call first needs it.
  std::vector<Ctx> OriginChainCtx;
  U64Set EdgeSet;
  std::deque<unsigned> Worklist;
  /// Use nodes with possibly outstanding discovery work; every other use
  /// node has Pts == Applied and no uses newer than the last round.
  std::vector<unsigned> DirtyUses;
  uint64_t NumPropWords = 0;

  const Module &M;
  PTAOptions Opts;
  OriginSpec Spec;
  const CancellationToken *Cancel;
  std::unique_ptr<PTAResult> R;
  std::vector<ClassFacts> Classes;        ///< by ClassType::getId()
  std::vector<uint32_t> NumCallSlots;     ///< by Function::getId()
  std::vector<uint8_t> IsWrapper;         ///< by Function::getId()
  /// Return statements of function I: Returns[ReturnsBegin[I],
  /// ReturnsBegin[I + 1]).
  std::vector<uint32_t> ReturnsBegin;
  std::vector<const ReturnStmt *> Returns;
  /// One field, array-element or global access statement, decoded once
  /// per run for the access table.
  struct AccessStmt {
    const Stmt *S;
    /// The base variable's index in its function, or ~0u for a global.
    unsigned BaseIndex;
    /// The field key, or the global's ID.
    unsigned Key;
    bool IsWrite;
  };
  /// Access statements of function I, in body order:
  /// AccessStmts[AccessStmtsBegin[I], AccessStmtsBegin[I + 1]).
  std::vector<uint32_t> AccessStmtsBegin;
  std::vector<AccessStmt> AccessStmts;
  std::vector<uint8_t> FrameProcessed;    ///< by frame
  std::vector<unsigned> InstanceFrames;   ///< R->Instances[I]'s frame
  /// classId<<32|stmtId -> the method a call or spawn statement dispatches
  /// to on that class (null: none).
  U64Map<const Function *> Dispatch;
  U64Map<unsigned> ObjMap;
  /// Origins created per (allocation site, dup index): their count and
  /// the first one. Sized on the first origin allocation.
  struct SiteOrigins {
    unsigned Count = 0;
    unsigned First = 0;
  };
  std::vector<SiteOrigins> OriginsPerSite;
  bool Stopped = false;

  /// Polls the cancellation token; once it fires, the solver behaves like
  /// a budget stop (Stopped) with the result additionally flagged.
  bool checkCancelled() {
    if (R->Cancelled)
      return true;
    if (!pollCancelled(Cancel))
      return false;
    Stopped = true;
    R->Cancelled = true;
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Setup
  //===--------------------------------------------------------------------===//

  const ClassFacts &factsOf(const ClassType *C) const {
    return Classes[C->getId()];
  }

  /// One walk over every statement: numbers each function's call slots,
  /// collects its return and access statements, registers the entry
  /// names spawns use, then computes the per-class facts and marks the
  /// wrapper functions.
  void indexModule() {
    const size_t NumFns = M.functions().size();
    Classes.resize(M.classes().size());
    for (const auto &C : M.classes())
      Classes[C->getId()].Init = C->findMethod("init");
    R->CallSlots.assign(M.numStmts(), ~0u);
    NumCallSlots.assign(NumFns, 0);
    IsWrapper.assign(NumFns, 0);
    ReturnsBegin.assign(NumFns + 1, 0);
    AccessStmtsBegin.assign(NumFns + 1, 0);
    // (function, class) of every allocation, for the wrapper marks.
    std::vector<std::pair<unsigned, const ClassType *>> Allocs;
    for (const auto &F : M.functions()) {
      unsigned FId = F->getId();
      ReturnsBegin[FId] = static_cast<uint32_t>(Returns.size());
      AccessStmtsBegin[FId] = static_cast<uint32_t>(AccessStmts.size());
      for (const auto &SPtr : F->body()) {
        const Stmt &S = *SPtr;
        bool HasTargets = false;
        switch (S.getKind()) {
        case Stmt::SK_Alloc: {
          const ClassType *C = cast<AllocStmt>(S).getAllocType();
          HasTargets = factsOf(C).Init != nullptr;
          Allocs.emplace_back(FId, C);
          break;
        }
        case Stmt::SK_Spawn: {
          // Entry names used by spawn statements are origin entries even
          // when the configuration does not list them (custom thread
          // abstractions).
          StringRef Entry = cast<SpawnStmt>(S).getEntryName();
          if (!Spec.isEntry(Entry))
            Spec.addEntry(Entry.str(), OriginKind::Thread);
          HasTargets = true;
          IsWrapper[FId] = 1;
          break;
        }
        case Stmt::SK_Call:
          HasTargets = true;
          break;
        case Stmt::SK_Return:
          Returns.push_back(&cast<ReturnStmt>(S));
          break;
        case Stmt::SK_FieldLoad: {
          const auto &L = cast<FieldLoadStmt>(S);
          AccessStmts.push_back({&S, L.getBase()->getIndex(),
                                 fieldKeyOf(L.getField()), false});
          break;
        }
        case Stmt::SK_FieldStore: {
          const auto &St = cast<FieldStoreStmt>(S);
          AccessStmts.push_back({&S, St.getBase()->getIndex(),
                                 fieldKeyOf(St.getField()), true});
          break;
        }
        case Stmt::SK_ArrayLoad:
          AccessStmts.push_back({&S,
                                 cast<ArrayLoadStmt>(S).getBase()->getIndex(),
                                 ArrayElemKey, false});
          break;
        case Stmt::SK_ArrayStore:
          AccessStmts.push_back({&S,
                                 cast<ArrayStoreStmt>(S).getBase()->getIndex(),
                                 ArrayElemKey, true});
          break;
        case Stmt::SK_GlobalLoad:
          AccessStmts.push_back(
              {&S, ~0u, cast<GlobalLoadStmt>(S).getGlobal()->getId(), false});
          break;
        case Stmt::SK_GlobalStore:
          AccessStmts.push_back(
              {&S, ~0u, cast<GlobalStoreStmt>(S).getGlobal()->getId(), true});
          break;
        default:
          break;
        }
        if (HasTargets)
          R->CallSlots[S.getId()] = NumCallSlots[FId]++;
      }
    }
    ReturnsBegin[NumFns] = static_cast<uint32_t>(Returns.size());
    AccessStmtsBegin[NumFns] = static_cast<uint32_t>(AccessStmts.size());

    // Origin facts need every spawn's entry registered first.
    for (const auto &C : M.classes()) {
      ClassFacts &Facts = Classes[C->getId()];
      bool First = true;
      for (const auto &[Name, Kind] : Spec.entries()) {
        if (!C->findMethod(Name))
          continue;
        if (First || Kind == OriginKind::Thread)
          Facts.Kind = Kind;
        First = false;
        Facts.IsOrigin = true;
      }
    }

    // Under OPA, a function other than main that directly contains an
    // origin allocation or a spawn is a wrapper: origins created inside
    // it are extended with one call-site (Section 3.2, "Wrapper
    // Functions and Loops").
    for (const auto &[FId, C] : Allocs)
      if (factsOf(C).IsOrigin)
        IsWrapper[FId] = 1;
    const Function *Main = M.getMain();
    if (Opts.Kind != ContextKind::Origin)
      IsWrapper.assign(NumFns, 0);
    else if (Main)
      IsWrapper[Main->getId()] = 0;
  }

  ArrayRef<AccessStmt> accessStmtsOf(const Function *F) const {
    unsigned FId = F->getId();
    return ArrayRef<AccessStmt>(AccessStmts.data() + AccessStmtsBegin[FId],
                                AccessStmtsBegin[FId + 1] -
                                    AccessStmtsBegin[FId]);
  }

  ArrayRef<const ReturnStmt *> returnsOf(const Function *F) const {
    unsigned FId = F->getId();
    return ArrayRef<const ReturnStmt *>(Returns.data() + ReturnsBegin[FId],
                                        ReturnsBegin[FId + 1] -
                                            ReturnsBegin[FId]);
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

  /// The context of \p C's origin chain, interned on first use (where an
  /// unmemoized lookup would intern it too, so numbering is unchanged).
  Ctx originChainCtx(Ctx C) {
    if (C >= OriginChainCtx.size())
      OriginChainCtx.resize(R->Ctxs.size(), NoIndex);
    if (OriginChainCtx[C] == NoIndex) {
      ArrayRef<uint32_t> Elems = R->Ctxs.get(C);
      bool HasWrapper =
          std::any_of(Elems.begin(), Elems.end(),
                      [](uint32_t E) { return (E & WrapperElemBit) != 0; });
      OriginChainCtx[C] = HasWrapper ? intern(originChainOf(C)) : C;
    }
    return OriginChainCtx[C];
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
      if (Callee && IsWrapper[Callee->getId()]) {
        SmallVector<uint32_t, 8> Chain = originChainOf(CallerCtx);
        Chain.push_back(WrapperElemBit | SiteElem);
        return intern(Chain);
      }
      return originChainCtx(CallerCtx);
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
  // Nodes, frames and objects
  //===--------------------------------------------------------------------===//

  unsigned newNode() {
    Nodes.emplace_back();
    if (Nodes.size() > Opts.NodeBudget && !Stopped) {
      Stopped = true;
      R->HitBudget = true;
    }
    return static_cast<unsigned>(Nodes.size() - 1);
  }

  /// The frame of ⟨F, C⟩, created on first use. Creating a frame creates
  /// no nodes, so the node numbering follows the varNode calls alone.
  unsigned frameOf(const Function *F, Ctx C) {
    auto [Id, Inserted] = R->FrameIds.tryEmplace(
        PTAResult::frameKey(F, C), static_cast<uint32_t>(R->Frames.size()));
    if (Inserted) {
      PTAResult::Frame Fr;
      Fr.F = F;
      Fr.C = C;
      Fr.VarBase = static_cast<uint32_t>(R->FrameVarNodes.size());
      Fr.NumVars = static_cast<uint32_t>(F->variables().size());
      Fr.CallBase = static_cast<uint32_t>(Targets.size());
      R->Frames.push_back(Fr);
      R->FrameVarNodes.resize(R->FrameVarNodes.size() + Fr.NumVars,
                              PTAResult::NoNode);
      Targets.resize(Targets.size() + NumCallSlots[F->getId()]);
      FrameProcessed.push_back(0);
    }
    return *Id;
  }

  Ctx ctxOf(unsigned Fr) const { return R->Frames[Fr].C; }

  /// The node of ⟨V, C⟩ where \p Fr is the frame of ⟨V's function, C⟩.
  unsigned varNode(const Variable *V, unsigned Fr) {
    assert(V->getIndex() < R->Frames[Fr].NumVars &&
           "variable of another frame");
    uint32_t &Slot = R->FrameVarNodes[R->Frames[Fr].VarBase + V->getIndex()];
    if (Slot == PTAResult::NoNode)
      Slot = newNode();
    return Slot;
  }

  unsigned globalNode(const Global *G) {
    int &Slot = R->GlobalNodes[G->getId()];
    if (Slot < 0)
      Slot = static_cast<int>(newNode());
    return static_cast<unsigned>(Slot);
  }

  unsigned fieldNode(unsigned Obj, FieldKey FK) {
    auto [Node, Inserted] =
        R->FieldNodes.tryEmplace((uint64_t(Obj) << 32) | FK);
    if (Inserted)
      *Node = newNode(); // newNode does not touch FieldNodes
    return *Node;
  }

  unsigned objectFor(unsigned Site, Ctx HCtx, unsigned Dup, const Type *Ty,
                     const Stmt *AllocS) {
    uint64_t Key = (uint64_t(Site) << 34) | (uint64_t(Dup) << 32) | HCtx;
    auto [Id, Inserted] =
        ObjMap.tryEmplace(Key, static_cast<unsigned>(R->Objects.size()));
    if (Inserted) {
      ObjInfo Info;
      Info.Id = *Id;
      Info.Site = Site;
      Info.HeapCtx = HCtx;
      Info.AllocatedType = Ty;
      Info.Alloc = AllocS;
      Info.DupIndex = Dup;
      R->Objects.push_back(Info);
      R->ObjOrigin.push_back(~0u);
    }
    return *Id;
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
      if (Nodes[N].Uses != NoUses)
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
    if (Nd.Uses != NoUses)
      markDirty(N);
    schedule(N);
  }

  void addCopyEdge(unsigned Src, unsigned Dst) {
    if (Src == Dst)
      return;
    uint64_t Key = (uint64_t(Src) << 32) | Dst;
    if (!EdgeSet.insert(Key))
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
    usesOf(Base).Loads.emplace_back(FK, Dst);
  }

  void registerStore(unsigned Base, FieldKey FK, unsigned Src) {
    usesOf(Base).Stores.emplace_back(FK, Src);
  }

  void registerCallUse(unsigned Recv, const Stmt *S, unsigned CallerFr) {
    usesOf(Recv).Calls.emplace_back(S, CallerFr);
  }

  /// The use list of node \p N, created on first use, with \p N marked
  /// dirty for the next round.
  UseList &usesOf(unsigned N) {
    markDirty(N);
    if (Nodes[N].Uses == NoUses) {
      Nodes[N].Uses = static_cast<unsigned>(UseLists.size());
      UseLists.emplace_back();
    }
    return UseLists[Nodes[N].Uses];
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
      UseList &U = UseLists[Nd.Uses];
      Nd.Dirty = false;
      bool NewUses = U.Loads.size() > U.OldLoads ||
                     U.Stores.size() > U.OldStores ||
                     U.Calls.size() > U.OldCalls;
      WorkItem &W = Work.emplace_back();
      W.NodeId = N;
      Nd.Pts.forEachSetWord([&](size_t I, BitVector::Word Bits) {
        Bits &= ~U.Applied.word(I);
        for (; Bits; Bits &= Bits - 1)
          W.Delta.push_back(static_cast<unsigned>(
              I * BitVector::WordBits + __builtin_ctzll(Bits)));
      });
      if (W.Delta.empty() && !NewUses) {
        Work.pop_back();
        continue;
      }
      if (NewUses)
        for (unsigned Obj : Nd.Pts)
          W.Full.push_back(Obj);
      W.LoadsEnd = static_cast<unsigned>(U.Loads.size());
      W.StoresEnd = static_cast<unsigned>(U.Stores.size());
      W.CallsEnd = static_cast<unsigned>(U.Calls.size());
      U.Applied.unionWithChanged(Nd.Pts);
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
    const unsigned U = Nodes[W.NodeId].Uses;
    const unsigned OldL = UseLists[U].OldLoads;
    const unsigned OldS = UseLists[U].OldStores;
    const unsigned OldC = UseLists[U].OldCalls;
    // Uses from earlier rounds receive only the new objects... (indexed
    // accesses throughout: handlers create nodes and use lists and
    // reallocate Nodes and UseLists).
    for (unsigned Obj : W.Delta) {
      for (unsigned I = 0; I != OldL; ++I) {
        auto [FK, Dst] = UseLists[U].Loads[I];
        addCopyEdge(fieldNode(Obj, FK), Dst);
      }
      for (unsigned I = 0; I != OldS; ++I) {
        auto [FK, Src] = UseLists[U].Stores[I];
        addCopyEdge(Src, fieldNode(Obj, FK));
      }
      for (unsigned I = 0; I != OldC; ++I) {
        auto [S, Fr] = UseLists[U].Calls[I];
        applyCallToObj(S, Fr, Obj);
      }
    }
    // ... while uses registered since the last round catch up on the full
    // frozen set. Uses registered during this very application (beyond
    // the frozen *End marks) wait for the next round.
    for (unsigned Obj : W.Full) {
      for (unsigned I = OldL; I != W.LoadsEnd; ++I) {
        auto [FK, Dst] = UseLists[U].Loads[I];
        addCopyEdge(fieldNode(Obj, FK), Dst);
      }
      for (unsigned I = OldS; I != W.StoresEnd; ++I) {
        auto [FK, Src] = UseLists[U].Stores[I];
        addCopyEdge(Src, fieldNode(Obj, FK));
      }
      for (unsigned I = OldC; I != W.CallsEnd; ++I) {
        auto [S, Fr] = UseLists[U].Calls[I];
        applyCallToObj(S, Fr, Obj);
      }
    }
    UseLists[U].OldLoads = W.LoadsEnd;
    UseLists[U].OldStores = W.StoresEnd;
    UseLists[U].OldCalls = W.CallsEnd;
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

  /// Records \p T as a target of \p S in frame \p Fr; false if known.
  bool recordTarget(const Stmt *S, unsigned Fr, const CallTarget &T) {
    assert(R->CallSlots[S->getId()] != ~0u && "statement has no call slot");
    SlotTargets &Slot =
        Targets[R->Frames[Fr].CallBase + R->CallSlots[S->getId()]];
    if (!Slot.First.Callee) {
      Slot.First = T;
      return true;
    }
    if (Slot.First == T)
      return false;
    uint32_t Last = NoIndex;
    for (uint32_t I = Slot.More; I != NoIndex; I = TargetOverflow[I].Next) {
      if (TargetOverflow[I].T == T)
        return false;
      Last = I;
    }
    uint32_t New = static_cast<uint32_t>(TargetOverflow.size());
    TargetOverflow.push_back({T, NoIndex});
    (Last == NoIndex ? Slot.More : TargetOverflow[Last].Next) = New;
    return true;
  }

  /// Binds actuals to formals and the callee's returns to the target.
  void bindCall(const Function *Callee, Ctx CalleeC, unsigned RecvObj,
                ArrayRef<Variable *> Actuals, unsigned CallerFr,
                const Variable *Target) {
    unsigned CalleeFr = frameOf(Callee, CalleeC);
    const auto &Params = Callee->params();
    size_t ParamBase = RecvObj != ~0u ? 1 : 0;
    if (RecvObj != ~0u && !Params.empty())
      addPts(varNode(Params[0], CalleeFr), RecvObj);
    for (size_t I = 0; I < Actuals.size() && ParamBase + I < Params.size();
         ++I) {
      if (!Actuals[I]->getType()->isReference())
        continue;
      addCopyEdge(varNode(Actuals[I], CallerFr),
                  varNode(Params[ParamBase + I], CalleeFr));
    }
    if (Target && Target->getType()->isReference())
      for (const ReturnStmt *Ret : returnsOf(Callee))
        if (Ret->getValue() && Ret->getValue()->getType()->isReference())
          addCopyEdge(varNode(Ret->getValue(), CalleeFr),
                      varNode(Target, CallerFr));
    processFunction(CalleeFr);
  }

  /// The method a call or spawn statement \p S dispatches to on class
  /// \p Cls, resolved once per (class, statement).
  const Function *dispatch(const ClassType *Cls, const Stmt &S) {
    auto [Method, Inserted] = Dispatch.tryEmplace(
        (uint64_t(Cls->getId()) << 32) | S.getId(), nullptr);
    if (Inserted) {
      StringRef Name = isa<CallStmt>(S) ? cast<CallStmt>(S).getMethodName()
                                        : cast<SpawnStmt>(S).getEntryName();
      *Method = Cls->findMethod(Name);
    }
    return *Method;
  }

  /// Resolves one receiver object for a virtual call or spawn.
  void applyCallToObj(const Stmt *S, unsigned CallerFr, unsigned Obj) {
    const auto *Cls = dyn_cast<ClassType>(R->Objects[Obj].AllocatedType);
    if (!Cls)
      return; // arrays have no methods
    const Function *Callee = dispatch(Cls, *S);
    if (!Callee)
      return;
    Ctx CallerC = ctxOf(CallerFr);

    if (const auto *Call = dyn_cast<CallStmt>(S)) {
      Ctx CalleeC =
          calleeCtx(CallerC, callSiteElem(Call->getSite()), Obj, Callee);
      if (!recordTarget(S, CallerFr, {Callee, CalleeC, Obj}))
        return;
      bindCall(Callee, CalleeC, Obj, Call->getArgs(), CallerFr,
               Call->getTarget());
      return;
    }

    const auto *Spawn = cast<SpawnStmt>(S);
    Ctx EntryC;
    if (Opts.Kind == ContextKind::Origin) {
      // Rule ❾: the entry runs under the origin created for the receiver
      // object at its (origin) allocation.
      unsigned Origin = R->ObjOrigin[Obj];
      EntryC = Origin != ~0u ? R->OriginCtxs[Origin]
                             : calleeCtx(CallerC, callSiteElem(Spawn->getSite()),
                                         Obj, Callee);
    } else {
      EntryC =
          calleeCtx(CallerC, callSiteElem(Spawn->getSite()), Obj, Callee);
    }
    if (!recordTarget(S, CallerFr, {Callee, EntryC, Obj}))
      return;
    bindCall(Callee, EntryC, Obj, Spawn->getArgs(), CallerFr,
             /*Target=*/nullptr);
  }

  //===--------------------------------------------------------------------===//
  // Statement processing
  //===--------------------------------------------------------------------===//

  /// Polls after each statement rather than before, so a pass that
  /// starts always records main's first statement, however early the
  /// token fires.
  void processFunction(unsigned Fr) {
    if (Stopped || FrameProcessed[Fr])
      return;
    FrameProcessed[Fr] = 1;
    const Function *F = R->Frames[Fr].F;
    R->Instances.emplace_back(F, ctxOf(Fr));
    InstanceFrames.push_back(Fr);
    for (const auto &S : F->body()) {
      processStmt(*S, Fr);
      if (checkCancelled())
        return;
    }
  }

  void processAlloc(const AllocStmt &A, unsigned Fr) {
    const Ctx C = ctxOf(Fr);
    ClassType *Cls = A.getAllocType();
    const ClassFacts &Facts = factsOf(Cls);
    bool IsOriginAlloc = Opts.Kind == ContextKind::Origin && Facts.IsOrigin;
    unsigned NumDups = IsOriginAlloc && A.isInLoop() ? 2 : 1;

    for (unsigned Dup = 0; Dup != NumDups; ++Dup) {
      Ctx InitCtx;
      unsigned Obj;
      if (IsOriginAlloc) {
        // Rule ❽: switch to a fresh origin; the object, its constructor,
        // and (later) its entry all live in the new origin.
        unsigned OriginId = originFor(A, C, Dup, Facts.Kind);
        Ctx ObjCtx = R->OriginCtxs[OriginId];
        InitCtx = ObjCtx;
        Obj = objectFor(A.getSite(), ObjCtx, Dup, Cls, &A);
        R->ObjOrigin[Obj] = OriginId;
      } else {
        Obj = objectFor(A.getSite(), heapCtx(C), Dup, Cls, &A);
        if (Opts.Kind == ContextKind::Origin)
          R->ObjOrigin[Obj] = R->originOfCtx(C);
        InitCtx = ~0u; // computed below per context kind
      }

      addPts(varNode(A.getTarget(), Fr), Obj);

      if (const Function *Init = Facts.Init) {
        if (InitCtx == ~0u)
          InitCtx =
              calleeCtx(C, allocSiteElem(A.getSite()), Obj, Init);
        if (recordTarget(&A, Fr, {Init, InitCtx, Obj}))
          bindCall(Init, InitCtx, Obj, A.getArgs(), Fr, /*Target=*/nullptr);
      }
    }
  }

  /// The origin that origin allocation \p A (copy \p Dup) creates under
  /// \p C, creating it and its context on first sight.
  unsigned originFor(const AllocStmt &A, Ctx C, unsigned Dup,
                     OriginKind Kind) {
    // Recursion collapse: an origin that (transitively) re-allocates its
    // own allocation site folds back onto the ancestor origin, so
    // recursive spawning reaches a fixpoint (the k-limiting analogue for
    // origin chains).
    unsigned OriginId = ~0u;
    for (uint32_t Ancestor : R->Ctxs.get(C)) {
      if (Ancestor & WrapperElemBit)
        continue;
      const OriginInfo &Info = R->Origins.info(Ancestor);
      if (Info.AllocSite == A.getSite() && Info.DupIndex == Dup) {
        OriginId = Ancestor;
        break;
      }
    }
    // Backstop for mutual recursion between origin classes: bound the
    // origins per allocation site, folding the overflow onto the first
    // one.
    constexpr unsigned MaxOriginsPerSite = 8;
    if (OriginId == ~0u) {
      if (OriginsPerSite.empty())
        OriginsPerSite.resize(2 * size_t(M.numAllocSites()));
      SiteOrigins &PerSite = OriginsPerSite[2 * size_t(A.getSite()) + Dup];
      if (PerSite.Count >= MaxOriginsPerSite) {
        OriginId = PerSite.First;
      } else {
        OriginId =
            R->Origins.getOrCreate(A.getSite(), C, Dup, Kind, A.getAllocType());
        if (OriginId == R->OriginCtxs.size() && PerSite.Count++ == 0)
          PerSite.First = OriginId;
      }
    }
    if (OriginId == R->OriginCtxs.size()) {
      SmallVector<uint32_t, 8> Chain = originChainOf(C);
      Chain.push_back(OriginId);
      size_t Keep = std::min<size_t>(Chain.size(), Opts.K);
      R->OriginCtxs.push_back(intern(
          ArrayRef<uint32_t>(Chain.data() + (Chain.size() - Keep), Keep)));
    }
    return OriginId;
  }

  void processStmt(const Stmt &S, unsigned Fr) {
    switch (S.getKind()) {
    case Stmt::SK_Alloc:
      processAlloc(cast<AllocStmt>(S), Fr);
      return;
    case Stmt::SK_ArrayAlloc: {
      const auto &A = cast<ArrayAllocStmt>(S);
      Ctx C = ctxOf(Fr);
      unsigned Obj =
          objectFor(A.getSite(), heapCtx(C), 0, A.getAllocType(), &A);
      if (Opts.Kind == ContextKind::Origin && R->ObjOrigin[Obj] == ~0u)
        R->ObjOrigin[Obj] = R->originOfCtx(C);
      addPts(varNode(A.getTarget(), Fr), Obj);
      return;
    }
    case Stmt::SK_Assign: {
      const auto &A = cast<AssignStmt>(S);
      if (A.getSource()->getType()->isReference() &&
          A.getTarget()->getType()->isReference())
        addCopyEdge(varNode(A.getSource(), Fr), varNode(A.getTarget(), Fr));
      return;
    }
    case Stmt::SK_FieldLoad: {
      const auto &L = cast<FieldLoadStmt>(S);
      if (L.getField()->getType()->isReference())
        registerLoad(varNode(L.getBase(), Fr), fieldKeyOf(L.getField()),
                     varNode(L.getTarget(), Fr));
      return;
    }
    case Stmt::SK_FieldStore: {
      const auto &St = cast<FieldStoreStmt>(S);
      if (St.getField()->getType()->isReference())
        registerStore(varNode(St.getBase(), Fr), fieldKeyOf(St.getField()),
                      varNode(St.getSource(), Fr));
      return;
    }
    case Stmt::SK_ArrayLoad: {
      const auto &L = cast<ArrayLoadStmt>(S);
      if (L.getTarget()->getType()->isReference())
        registerLoad(varNode(L.getBase(), Fr), ArrayElemKey,
                     varNode(L.getTarget(), Fr));
      return;
    }
    case Stmt::SK_ArrayStore: {
      const auto &St = cast<ArrayStoreStmt>(S);
      if (St.getSource()->getType()->isReference())
        registerStore(varNode(St.getBase(), Fr), ArrayElemKey,
                      varNode(St.getSource(), Fr));
      return;
    }
    case Stmt::SK_GlobalLoad: {
      const auto &L = cast<GlobalLoadStmt>(S);
      if (L.getGlobal()->getType()->isReference())
        addCopyEdge(globalNode(L.getGlobal()), varNode(L.getTarget(), Fr));
      return;
    }
    case Stmt::SK_GlobalStore: {
      const auto &St = cast<GlobalStoreStmt>(S);
      if (St.getGlobal()->getType()->isReference())
        addCopyEdge(varNode(St.getSource(), Fr), globalNode(St.getGlobal()));
      return;
    }
    case Stmt::SK_Call: {
      const auto &Call = cast<CallStmt>(S);
      if (Call.isVirtual()) {
        registerCallUse(varNode(Call.getReceiver(), Fr), &Call, Fr);
        return;
      }
      const Function *Callee = Call.getDirectCallee();
      Ctx CalleeC =
          calleeCtx(ctxOf(Fr), callSiteElem(Call.getSite()), ~0u, Callee);
      if (recordTarget(&Call, Fr, {Callee, CalleeC, ~0u}))
        bindCall(Callee, CalleeC, ~0u, Call.getArgs(), Fr, Call.getTarget());
      return;
    }
    case Stmt::SK_Spawn:
      registerCallUse(varNode(cast<SpawnStmt>(S).getReceiver(), Fr), &S, Fr);
      return;
    case Stmt::SK_Join:
      // Joins only matter for happens-before; ensure the receiver node
      // exists so SHB can query its points-to set.
      varNode(cast<JoinStmt>(S).getReceiver(), Fr);
      return;
    case Stmt::SK_Acquire:
      varNode(cast<AcquireStmt>(S).getLock(), Fr);
      return;
    case Stmt::SK_Release:
      varNode(cast<ReleaseStmt>(S).getLock(), Fr);
      return;
    case Stmt::SK_Return:
      // Return values are wired at call-binding time.
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
    buildTargetTable();
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

  /// Compacts the recorded call targets into PTAResult's table: each
  /// slot's run, in insertion order, in slot order.
  void buildTargetTable() {
    R->TargetBegin.reserve(Targets.size() + 1);
    R->TargetTable.reserve(Targets.size() + TargetOverflow.size());
    for (const SlotTargets &Slot : Targets) {
      R->TargetBegin.push_back(static_cast<uint32_t>(R->TargetTable.size()));
      if (!Slot.First.Callee)
        continue;
      R->TargetTable.push_back(Slot.First);
      for (uint32_t I = Slot.More; I != NoIndex; I = TargetOverflow[I].Next)
        R->TargetTable.push_back(TargetOverflow[I].T);
    }
    R->TargetBegin.push_back(static_cast<uint32_t>(R->TargetTable.size()));
  }

  /// Resolves every access of every reached instance once, for OSA, SHB
  /// and the escape baseline.
  void buildAccessTable() {
    // A budget stop can leave call targets whose bodies were never
    // processed; SHB still walks them. Every frame is an instance or a
    // call target, so a budget-stopped run gives every frame a run.
    std::vector<unsigned> Order = InstanceFrames;
    if (R->HitBudget) {
      std::vector<uint8_t> IsInstance(R->Frames.size(), 0);
      for (unsigned Fr : InstanceFrames)
        IsInstance[Fr] = 1;
      for (unsigned Fr = 0; Fr != R->Frames.size(); ++Fr)
        if (!IsInstance[Fr])
          Order.push_back(Fr);
    }
    size_t NumAccesses = 0;
    for (unsigned Fr : Order)
      NumAccesses += accessStmtsOf(R->Frames[Fr].F).size();
    R->Accesses.reserve(NumAccesses);
    R->AccessLocs.reserve(NumAccesses); // most bases point to one object
    for (unsigned Fr : Order) {
      if (checkCancelled())
        return;
      addAccessRun(Fr);
    }
    // AccessLocs has stopped growing: point each entry at its run.
    const MemLoc *Next = R->AccessLocs.data();
    for (Access &A : R->Accesses) {
      A.Locs = ArrayRef<MemLoc>(Next, A.Locs.size());
      Next += A.Locs.size();
    }
  }

  /// Appends one frame's accesses. Each entry's Locs holds only its length
  /// until buildAccessTable patches it.
  void addAccessRun(unsigned Fr) {
    PTAResult::Frame &Frame = R->Frames[Fr];
    Frame.AccessBegin = static_cast<uint32_t>(R->Accesses.size());
    for (const AccessStmt &A : accessStmtsOf(Frame.F)) {
      size_t First = R->AccessLocs.size();
      if (A.BaseIndex == ~0u) {
        R->AccessLocs.push_back(MemLoc::global(A.Key));
      } else {
        uint32_t N = R->FrameVarNodes[Frame.VarBase + A.BaseIndex];
        if (N != PTAResult::NoNode)
          for (unsigned Obj : R->NodePts[N])
            R->AccessLocs.push_back(MemLoc::field(Obj, A.Key));
      }
      R->Accesses.push_back(
          {A.S, A.IsWrite, {nullptr, R->AccessLocs.size() - First}});
    }
    Frame.AccessEnd = static_cast<uint32_t>(R->Accesses.size());
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
  const Frame *Fr = frame(V->getFunction(), C);
  if (!Fr || V->getIndex() >= Fr->NumVars)
    return nullptr;
  uint32_t N = FrameVarNodes[Fr->VarBase + V->getIndex()];
  return N == NoNode ? nullptr : &NodePts[N];
}

const BitVector *PTAResult::ptsGlobal(const Global *G) const {
  int Slot = GlobalNodes[G->getId()];
  return Slot < 0 ? nullptr : &NodePts[static_cast<unsigned>(Slot)];
}

const BitVector *PTAResult::ptsField(unsigned Obj, FieldKey FK) const {
  const unsigned *N = FieldNodes.find((uint64_t(Obj) << 32) | FK);
  return N ? &NodePts[*N] : nullptr;
}

ArrayRef<Access> PTAResult::accesses(const Function *F, Ctx C) const {
  const Frame *Fr = frame(F, C);
  if (!Fr)
    return {};
  return ArrayRef<Access>(Accesses.data() + Fr->AccessBegin,
                          Fr->AccessEnd - Fr->AccessBegin);
}

ArrayRef<CallTarget> PTAResult::callTargets(const Stmt *S, Ctx C) const {
  uint32_t Slot = S->getId() < CallSlots.size() ? CallSlots[S->getId()] : ~0u;
  if (Slot == ~0u)
    return {};
  const Frame *Fr = frame(S->getFunction(), C);
  if (!Fr)
    return {};
  uint32_t I = Fr->CallBase + Slot;
  return ArrayRef<CallTarget>(TargetTable.data() + TargetBegin[I],
                              TargetBegin[I + 1] - TargetBegin[I]);
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

std::unique_ptr<PTAResult>
o2::runPointerAnalysis(const Module &M, const PTAOptions &Opts,
                       const CancellationToken *Cancel) {
  return PTASolver(M, Opts, Cancel).run();
}
