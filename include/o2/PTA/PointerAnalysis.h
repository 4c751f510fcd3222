//===- o2/PTA/PointerAnalysis.h - Context-sensitive pointer analysis -*- C++ *-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-program, flow-insensitive, field-sensitive, subset-based
/// pointer analysis with an on-the-fly call graph, parameterized by the
/// calling-context abstraction:
///
///   - Insensitive  (the paper's "0-ctx" baseline),
///   - KCallsite    (k-CFA + heap),
///   - KObject      (k-obj + heap),
///   - Origin       (the paper's OPA, Table 2 rules; k-origin for K>1).
///
/// Under Origin sensitivity, contexts are chains of origin IDs; context
/// switches happen only at origin allocations (rule ❽) and origin entry
/// invocations (rule ❾), wrapper functions are distinguished by one
/// call-site, and origins allocated in loops are duplicated.
///
//===----------------------------------------------------------------------===//

#ifndef O2_PTA_POINTERANALYSIS_H
#define O2_PTA_POINTERANALYSIS_H

#include "o2/IR/Module.h"
#include "o2/PTA/MemLoc.h"
#include "o2/PTA/OriginSpec.h"
#include "o2/Support/ArrayRef.h"
#include "o2/Support/BitVector.h"
#include "o2/Support/CancellationToken.h"
#include "o2/Support/InternTable.h"
#include "o2/Support/Statistic.h"
#include "o2/Support/U64Map.h"

#include <memory>
#include <vector>

namespace o2 {

/// A calling context: a handle into the analysis's context table. Handle 0
/// is the empty (root) context.
using Ctx = uint32_t;

/// The context abstraction to run with.
enum class ContextKind : uint8_t {
  Insensitive, ///< 0-ctx.
  KCallsite,   ///< k-CFA + heap.
  KObject,     ///< k-obj + heap.
  Origin,      ///< origin-sensitive (OPA); K is the origin-chain depth.
};

struct PTAOptions {
  ContextKind Kind = ContextKind::Origin;

  /// Context depth k (ignored for Insensitive).
  unsigned K = 1;

  /// Origin entry-point configuration (used by Origin sensitivity and by
  /// downstream clients that classify origins).
  OriginSpec Spec = OriginSpec::standard();

  /// Hard cap on pointer nodes; the solver stops growing beyond it and
  /// flags the result, the way the paper reports ">4h" timeouts.
  uint64_t NodeBudget = 4'000'000;

  /// Short human-readable configuration name ("2-cfa", "1-origin", ...).
  std::string name() const;
};

/// An abstract heap object: allocation site + heap context.
struct ObjInfo {
  unsigned Id = 0;
  unsigned Site = ~0u;         ///< Allocation-site ID.
  Ctx HeapCtx = 0;             ///< Heap context handle.
  const Type *AllocatedType = nullptr;
  const Stmt *Alloc = nullptr; ///< The AllocStmt/ArrayAllocStmt.
  unsigned DupIndex = 0;       ///< Loop-duplication index for origin objects.
};

/// One resolved callee of a call, constructor, or spawn instance.
struct CallTarget {
  const Function *Callee = nullptr;
  Ctx CalleeCtx = 0;
  /// Receiver object for virtual/ctor/spawn targets; ~0u for direct calls.
  unsigned ReceiverObj = ~0u;

  bool operator==(const CallTarget &RHS) const {
    return Callee == RHS.Callee && CalleeCtx == RHS.CalleeCtx &&
           ReceiverObj == RHS.ReceiverObj;
  }
};

/// One field, array-element or global access statement of a reached
/// instance, resolved against the final points-to sets.
struct Access {
  const Stmt *S = nullptr;
  bool IsWrite = false;
  /// MemLoc::field(o, key) for each o in pts(base) in ascending order, or
  /// the global's one location. Empty when the base points to nothing.
  ArrayRef<MemLoc> Locs;
};

/// The result of a pointer-analysis run: points-to sets, abstract objects,
/// the context-sensitive call graph, and (under Origin sensitivity) the
/// origin table.
class PTAResult {
public:
  PTAResult() = default;
  /// Not copyable: access entries point into the result's own storage.
  PTAResult(const PTAResult &) = delete;
  PTAResult &operator=(const PTAResult &) = delete;

  const Module &module() const { return *M; }
  const PTAOptions &options() const { return Opts; }

  /// Points-to set of ⟨V, C⟩ as a bitset of object IDs; null if the
  /// variable instance was never reached.
  const BitVector *pts(const Variable *V, Ctx C) const;

  /// Points-to set of a global; null if never reached.
  const BitVector *ptsGlobal(const Global *G) const;

  /// Points-to set of an object field (or array element); null if empty.
  const BitVector *ptsField(unsigned Obj, FieldKey FK) const;

  const std::vector<ObjInfo> &objects() const { return Objects; }
  const ObjInfo &object(unsigned Id) const { return Objects[Id]; }

  /// All reachable ⟨function, context⟩ instances in discovery order.
  const std::vector<std::pair<const Function *, Ctx>> &instances() const {
    return Instances;
  }

  /// The access table: the accesses of \p F's body under \p C, in body
  /// order. OSA, SHB and the escape baseline read it instead of decoding
  /// statements and querying points-to sets themselves. Empty for
  /// unreached instances and for cancelled runs.
  ArrayRef<Access> accesses(const Function *F, Ctx C) const;

  /// The whole access table, every instance's run back to back: the runs
  /// of instances() in order, then (after a budget stop) the runs of the
  /// frames SHB walks that are not instances. An entry's index is its
  /// address minus data().
  ArrayRef<Access> accessTable() const { return Accesses; }

  /// Resolved targets of the call/ctor/spawn statement \p S under \p C,
  /// in the order the solver found them. Empty for unreached instances
  /// and for statements that cannot have targets.
  ArrayRef<CallTarget> callTargets(const Stmt *S, Ctx C) const;

  const OriginTable &origins() const { return Origins; }

  /// Origin that allocated object \p Obj (i.e. the origin the object
  /// belongs to), or ~0u when origins are not tracked. Under Origin
  /// sensitivity every object has one.
  unsigned originOfObject(unsigned Obj) const {
    return Obj < ObjOrigin.size() ? ObjOrigin[Obj] : ~0u;
  }

  /// Context assigned to origin \p OriginId's entry/constructor.
  Ctx originCtx(unsigned OriginId) const {
    assert(OriginId < OriginCtxs.size() && "invalid origin");
    return OriginCtxs[OriginId];
  }

  /// The origin's attributes (Section 3.1): the abstract objects passed
  /// as pointer arguments to the origin allocation, resolved in the
  /// allocating context. Empty for the main origin and for origins whose
  /// constructors take no reference arguments.
  std::vector<unsigned> originAttributes(unsigned OriginId) const;

  /// The context table (contexts are interned element sequences).
  const InternTable &contexts() const { return Ctxs; }

  /// #pointer nodes / #objects / #PAG edges / #origins, etc.
  const StatisticRegistry &stats() const { return Stats; }

  /// True if the node budget was exhausted (result is partial).
  bool hitBudget() const { return HitBudget; }

  /// True if runPointerAnalysis's cancellation token fired (the result
  /// is partial and not schedule-independent).
  bool cancelled() const { return Cancelled; }

  /// True if the module has no main() entry point. The verifier reports
  /// this as a verify-error up front; callers that skip verification get
  /// an empty (trivially sound: nothing executes) result with the
  /// "pta.no-entry" counter set instead of tripping an assert.
  bool entryMissing() const { return EntryMissing; }

  /// Renders a context for diagnostics, e.g. "[O1,O3]".
  std::string ctxToString(Ctx C) const;

  /// Executing origin of an instance context: the most recent origin in
  /// the chain, or the main origin for the root context. Only meaningful
  /// for ContextKind::Origin results.
  unsigned originOfCtx(Ctx C) const {
    assert(Opts.Kind == ContextKind::Origin && "origin-sensitive only");
    unsigned Origin = OriginTable::MainOrigin;
    for (uint32_t E : Ctxs.get(C))
      if (!(E & 0x80000000u))
        Origin = E;
    return Origin;
  }

  /// Visits every (object, field-key, points-to set) triple.
  template <typename CallbackT> void forEachFieldPts(CallbackT Callback) const {
    FieldNodes.forEach([&](uint64_t Key, unsigned NodeId) {
      Callback(static_cast<unsigned>(Key >> 32),
               static_cast<FieldKey>(Key & 0xffffffffu), NodePts[NodeId]);
    });
  }

private:
  friend class PTASolver;

  static constexpr uint32_t NoNode = ~0u;

  /// The tables of one ⟨function, context⟩ pair: a reached instance, or
  /// (after a budget stop) a call target whose body was never processed.
  /// Frames are numbered in creation order.
  struct Frame {
    const Function *F = nullptr;
    Ctx C = 0;
    /// First of the function's variables' node slots in FrameVarNodes,
    /// indexed by Variable::getIndex().
    uint32_t VarBase = 0;
    uint32_t NumVars = 0;
    /// First of the function's call slots in TargetBegin (see CallSlots).
    uint32_t CallBase = 0;
    /// The instance's [begin, end) run in Accesses.
    uint32_t AccessBegin = 0;
    uint32_t AccessEnd = 0;
  };

  static uint64_t frameKey(const Function *F, Ctx C) {
    return (uint64_t(F->getId()) << 32) | C;
  }
  /// The frame of ⟨F, C⟩, or null if it has none.
  const Frame *frame(const Function *F, Ctx C) const {
    const uint32_t *Id = FrameIds.find(frameKey(F, C));
    return Id ? &Frames[*Id] : nullptr;
  }

  const Module *M = nullptr;
  PTAOptions Opts;
  InternTable Ctxs;
  std::vector<ObjInfo> Objects;
  OriginTable Origins;
  std::vector<unsigned> ObjOrigin;  ///< object -> origin (~0u none)
  std::vector<Ctx> OriginCtxs;      ///< origin -> entry context
  std::vector<std::pair<const Function *, Ctx>> Instances;
  std::vector<Frame> Frames;
  U64Map<uint32_t> FrameIds;                 ///< funcId<<32|ctx -> frame
  std::vector<uint32_t> FrameVarNodes;       ///< node, or NoNode
  /// The call-target table: the targets of call slot I (a frame's CallBase
  /// plus a statement's CallSlots entry) are
  /// TargetTable[TargetBegin[I], TargetBegin[I + 1]).
  std::vector<uint32_t> TargetBegin;
  std::vector<CallTarget> TargetTable;
  /// Statement ID -> its index among its function's statements that can
  /// have targets (calls, spawns, allocations of a class with `init`);
  /// ~0u for every other statement.
  std::vector<uint32_t> CallSlots;
  std::vector<int> GlobalNodes;              ///< globalId -> node/-1
  U64Map<unsigned> FieldNodes;               ///< obj<<32|fieldKey -> node
  std::vector<BitVector> NodePts;
  std::vector<Access> Accesses;
  std::vector<MemLoc> AccessLocs; ///< Every entry's Locs, back to back.
  StatisticRegistry Stats;
  bool HitBudget = false;
  bool Cancelled = false;
  bool EntryMissing = false;
};

/// Runs the pointer analysis over \p M (starting at main()) with the given
/// options. \p Cancel, when given, is polled each propagation step and
/// statement scan; on expiry the solver stops and flags the (partial)
/// result, and the batch driver reports the module as timed out in this
/// phase.
std::unique_ptr<PTAResult>
runPointerAnalysis(const Module &M, const PTAOptions &Opts,
                   const CancellationToken *Cancel = nullptr);

} // namespace o2

#endif // O2_PTA_POINTERANALYSIS_H
