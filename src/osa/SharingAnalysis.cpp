//===- SharingAnalysis.cpp - Origin-sharing analysis --------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/OSA/SharingAnalysis.h"

#include <algorithm>

using namespace o2;

namespace o2 {

/// Implements Algorithm 1. The traversal over visitedMethods is the
/// pointer analysis's reachable-instance list; FindPointsToOrigins is
/// already answered by PTA's access table.
class SharingAnalysis {
public:
  SharingAnalysis(const PTAResult &PTA, const CancellationToken *Cancel)
      : PTA(PTA), Cancel(Cancel) {
    assert(PTA.options().Kind == ContextKind::Origin &&
           "OSA runs on origin-sensitive points-to results");
  }

  SharingResult run() {
    const auto &Instances = PTA.instances();
    size_t Scanned = 0;
    for (; Scanned != Instances.size(); ++Scanned) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        break;
      }
      const auto &[F, C] = Instances[Scanned];
      unsigned Origin = PTA.originOfCtx(C);
      for (const Access &A : PTA.accesses(F, C)) {
        AccessStmts.set(A.S->getId());
        for (MemLoc Loc : A.Locs) {
          LocAccessSets &Sets = R.Locs[Loc];
          (A.IsWrite ? Sets.WriteOrigins : Sets.ReadOrigins).set(Origin);
        }
      }
    }
    finalize(Scanned);
    return std::move(R);
  }

private:
  /// Decides which locations are shared, then which of the first
  /// \p Scanned instances' access statements may touch one.
  void finalize(size_t Scanned) {
    BitVector SharedObjs;
    for (const auto &[Loc, Sets] : R.Locs)
      if (Sets.isShared()) {
        R.Shared.push_back(Loc);
        if (!Loc.isGlobal())
          SharedObjs.set(Loc.object());
      }
    std::sort(R.Shared.begin(), R.Shared.end());
    R.NumSharedObjects = SharedObjs.count();
    R.NumAccessStmts = AccessStmts.count();
    auto IsShared = [&](MemLoc Loc) { return R.isShared(Loc); };
    for (size_t I = 0; I != Scanned; ++I) {
      const auto &[F, C] = PTA.instances()[I];
      for (const Access &A : PTA.accesses(F, C))
        if (!R.SharedStmts.test(A.S->getId()) &&
            std::any_of(A.Locs.begin(), A.Locs.end(), IsShared))
          R.SharedStmts.set(A.S->getId());
    }
    R.NumSharedAccessStmts = R.SharedStmts.count();
  }

  const PTAResult &PTA;
  const CancellationToken *Cancel;
  SharingResult R;
  BitVector AccessStmts;
};

} // namespace o2

SharingResult o2::runSharingAnalysis(const PTAResult &PTA,
                                     const CancellationToken *Cancel) {
  return SharingAnalysis(PTA, Cancel).run();
}
