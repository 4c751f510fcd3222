//===- EscapeAnalysis.cpp - Thread-escape baseline -----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/OSA/EscapeAnalysis.h"

#include "o2/Support/Casting.h"

#include <algorithm>
#include <vector>

using namespace o2;

namespace o2 {

class EscapeAnalysis {
public:
  EscapeAnalysis(const PTAResult &PTA, const CancellationToken *Cancel)
      : PTA(PTA), Cancel(Cancel) {}

  EscapeResult run() {
    seedRoots();
    if (!R.Cancelled)
      closeOverFields();
    if (!R.Cancelled)
      countSharedAccesses();
    return std::move(R);
  }

private:
  void markEscaped(const BitVector *Pts) {
    if (!Pts)
      return;
    for (unsigned Obj : *Pts)
      if (R.Escaped.set(Obj))
        Worklist.push_back(Obj);
  }

  void markEscaped(unsigned Obj) {
    if (R.Escaped.set(Obj))
      Worklist.push_back(Obj);
  }

  void seedRoots() {
    // Globals (static fields) escape.
    for (const auto &G : PTA.module().globals())
      markEscaped(PTA.ptsGlobal(G.get()));

    const OriginSpec &Spec = PTA.options().Spec;
    for (const auto &[F, C] : PTA.instances()) {
      for (const auto &SPtr : F->body()) {
        const Stmt &S = *SPtr;
        // Origin (thread/handler) objects and everything passed into
        // their constructors escapes to the child.
        if (const auto *A = dyn_cast<AllocStmt>(&S)) {
          if (!Spec.isOriginClass(A->getAllocType()))
            continue;
          markEscaped(PTA.pts(A->getTarget(), C));
          for (const Variable *Arg : A->getArgs())
            if (Arg->getType()->isReference())
              markEscaped(PTA.pts(Arg, C));
          continue;
        }
        // Spawn receivers and arguments escape.
        if (const auto *Sp = dyn_cast<SpawnStmt>(&S)) {
          markEscaped(PTA.pts(Sp->getReceiver(), C));
          for (const Variable *Arg : Sp->getArgs())
            if (Arg->getType()->isReference())
              markEscaped(PTA.pts(Arg, C));
        }
      }
    }
  }

  void closeOverFields() {
    // Anything reachable through a field of an escaped object escapes.
    // Iterate to a fixpoint: the field points-to relation is fixed, so one
    // worklist pass over (escaped object -> field pts) suffices.
    std::vector<std::pair<unsigned, const BitVector *>> FieldPtsByObj;
    PTA.forEachFieldPts([&](unsigned Obj, FieldKey, const BitVector &Pts) {
      FieldPtsByObj.emplace_back(Obj, &Pts);
    });
    // Index: object -> its field points-to sets.
    std::sort(FieldPtsByObj.begin(), FieldPtsByObj.end());
    while (!Worklist.empty()) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        return;
      }
      unsigned Obj = Worklist.back();
      Worklist.pop_back();
      auto It = std::lower_bound(
          FieldPtsByObj.begin(), FieldPtsByObj.end(), Obj,
          [](const auto &Entry, unsigned O) { return Entry.first < O; });
      for (; It != FieldPtsByObj.end() && It->first == Obj; ++It)
        markEscaped(It->second);
    }
  }

  /// Statics are always thread-escaped in this baseline; a field or
  /// element is shared when one of its base objects escaped.
  bool isSharedAccess(const Access &A) const {
    return std::any_of(A.Locs.begin(), A.Locs.end(), [&](MemLoc Loc) {
      return Loc.isGlobal() || R.Escaped.test(Loc.object());
    });
  }

  void countSharedAccesses() {
    BitVector AccessStmts;
    BitVector SharedStmts;
    for (const auto &[F, C] : PTA.instances()) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        return;
      }
      for (const Access &A : PTA.accesses(F, C)) {
        AccessStmts.set(A.S->getId());
        if (isSharedAccess(A))
          SharedStmts.set(A.S->getId());
      }
    }
    R.NumAccessStmts = AccessStmts.count();
    R.NumSharedAccessStmts = SharedStmts.count();
  }

  const PTAResult &PTA;
  const CancellationToken *Cancel;
  EscapeResult R;
  std::vector<unsigned> Worklist;
};

} // namespace o2

EscapeResult o2::runEscapeAnalysis(const PTAResult &PTA,
                                   const CancellationToken *Cancel) {
  return EscapeAnalysis(PTA, Cancel).run();
}
