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

unsigned SharingResult::add(unsigned Who, bool IsWrite, MemLoc Loc) {
  auto [Slot, New] =
      Index.tryEmplace(Loc.key(), static_cast<unsigned>(Sets.size()));
  unsigned I = *Slot;
  if (New) {
    Locs.push_back(Loc);
    Sets.emplace_back();
  }
  LocAccessSets &S = Sets[I];
  (IsWrite ? S.Writers : S.Readers).set(Who);
  return I;
}

void SharingResult::finish(bool WasCancelled) {
  BitVector SharedObjs;
  SharedLoc.assign(Sets.size(), false);
  for (unsigned I = 0; I != Sets.size(); ++I)
    if (Sets[I].isShared()) {
      SharedLoc[I] = true;
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
  ArrayRef<Access> Table = PTA.accessTable();
  SharingResult R;
  R.AccessStmts.assign(PTA.module().numStmts(), false);
  R.SharedStmts.assign(PTA.module().numStmts(), false);
  // The instances' runs are the table's prefix, in order: the scan covers
  // its first NumScanned entries, whose locations' indices LocIds keeps
  // in table order.
  std::vector<unsigned> LocIds;
  size_t Scanned = 0, NumScanned = 0;
  for (; Scanned != Instances.size() && !pollCancelled(Cancel); ++Scanned) {
    const auto &[F, C] = Instances[Scanned];
    unsigned Origin = PTA.originOfCtx(C);
    ArrayRef<Access> Run = PTA.accesses(F, C);
    assert((Run.empty() || Run.data() == Table.data() + NumScanned) &&
           "instance runs are the access table's prefix");
    NumScanned += Run.size();
    for (const Access &A : Run) {
      R.AccessStmts[A.S->getId()] = true;
      for (MemLoc Loc : A.Locs)
        LocIds.push_back(R.add(Origin, A.IsWrite, Loc));
    }
  }
  R.finish(Scanned != Instances.size());
  // Which entries may touch a shared location. Past the scanned prefix
  // (frames a budget stop left outside instances(), which SHB still
  // walks) the locations are looked up.
  R.SharedEntries.assign(Table.size(), false);
  const unsigned *NextId = LocIds.data();
  for (size_t E = 0; E != Table.size(); ++E) {
    const Access &A = Table[E];
    bool Shared = false;
    for (MemLoc Loc : A.Locs) {
      unsigned I = E < NumScanned ? *NextId++ : R.indexOf(Loc);
      Shared |= I != SharingResult::NoLoc && R.SharedLoc[I];
    }
    if (!Shared)
      continue;
    R.SharedEntries[E] = true;
    if (E < NumScanned)
      R.SharedStmts[A.S->getId()] = true;
  }
  return R;
}

SharingResult o2::runThreadSharing(const SHBGraph &SHB,
                                   const CancellationToken *Cancel) {
  SharingResult R;
  unsigned Scanned = 0;
  for (; Scanned != SHB.numThreads() && !pollCancelled(Cancel); ++Scanned) {
    const ThreadInfo &T = SHB.thread(Scanned);
    assert(T.Accesses.size() == T.NumAccesses &&
           "the threads' table needs a graph that stores every access");
    for (const AccessEvent &E : T.Accesses)
      for (MemLoc Loc : E.Locs)
        R.add(E.Thread, E.IsWrite, Loc);
  }
  R.finish(Scanned != SHB.numThreads());
  return R;
}

