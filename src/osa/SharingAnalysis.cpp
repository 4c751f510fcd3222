//===- SharingAnalysis.cpp - Origin-sharing analysis --------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/OSA/SharingAnalysis.h"

#include "o2/SHB/SHBGraph.h"

#include <algorithm>

using namespace o2;

void SharingResult::add(unsigned Who, bool IsWrite,
                        ArrayRef<MemLoc> Accessed) {
  for (MemLoc Loc : Accessed) {
    auto [I, New] =
        Index.tryEmplace(Loc.key(), static_cast<unsigned>(Sets.size()));
    if (New) {
      Locs.push_back(Loc);
      Sets.emplace_back();
    }
    LocAccessSets &S = Sets[*I];
    (IsWrite ? S.Writers : S.Readers).set(Who);
  }
}

void SharingResult::finish(bool WasCancelled) {
  BitVector SharedObjs;
  for (unsigned I = 0; I != Sets.size(); ++I)
    if (Sets[I].isShared()) {
      Shared.push_back(Locs[I]);
      if (!Locs[I].isGlobal())
        SharedObjs.set(Locs[I].object());
    }
  std::sort(Shared.begin(), Shared.end());
  NumSharedObjects = SharedObjs.count();
  Cancelled = WasCancelled;
}

/// Implements Algorithm 1. The traversal over visitedMethods is the
/// pointer analysis's reachable-instance list; FindPointsToOrigins is
/// already answered by PTA's access table.
SharingResult o2::runSharingAnalysis(const PTAResult &PTA,
                                     const CancellationToken *Cancel) {
  assert(PTA.options().Kind == ContextKind::Origin &&
         "OSA runs on origin-sensitive points-to results");
  const auto &Instances = PTA.instances();
  SharingResult R;
  size_t Scanned = 0;
  for (; Scanned != Instances.size() && !pollCancelled(Cancel); ++Scanned) {
    const auto &[F, C] = Instances[Scanned];
    unsigned Origin = PTA.originOfCtx(C);
    for (const Access &A : PTA.accesses(F, C)) {
      R.AccessStmts.set(A.S->getId());
      R.add(Origin, A.IsWrite, A.Locs);
    }
  }
  R.finish(Scanned != Instances.size());
  // Which scanned access statements may touch a shared location.
  auto IsShared = [&R](MemLoc Loc) { return R.isShared(Loc); };
  for (size_t I = 0; I != Scanned; ++I) {
    const auto &[F, C] = Instances[I];
    for (const Access &A : PTA.accesses(F, C))
      if (!R.SharedStmts.test(A.S->getId()) &&
          std::any_of(A.Locs.begin(), A.Locs.end(), IsShared))
        R.SharedStmts.set(A.S->getId());
  }
  return R;
}

SharingResult o2::runThreadSharing(const SHBGraph &SHB,
                                   const CancellationToken *Cancel) {
  SharingResult R;
  unsigned Scanned = 0;
  for (; Scanned != SHB.numThreads() && !pollCancelled(Cancel); ++Scanned)
    for (const AccessEvent &E : SHB.thread(Scanned).Accesses)
      R.add(E.Thread, E.IsWrite, E.Locs);
  R.finish(Scanned != SHB.numThreads());
  return R;
}

const SharingResult &o2::sharingTableFor(const PTAResult &PTA,
                                         const SHBGraph &SHB,
                                         const SharingResult *OSA,
                                         SharingResult &Built,
                                         const CancellationToken *Cancel) {
  if (!sharingFromOSA(PTA))
    return Built = runThreadSharing(SHB, Cancel);
  if (OSA)
    return *OSA;
  return Built = runSharingAnalysis(PTA, Cancel);
}
