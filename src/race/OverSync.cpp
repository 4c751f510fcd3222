//===- OverSync.cpp - Over-synchronization analysis ----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Race/OverSync.h"


#include <algorithm>

using namespace o2;

OverSyncReport
o2::detectOverSynchronization(const SharingResult &Sharing,
                              const SHBGraph &SHB,
                              const CancellationToken *Cancel) {
  OverSyncReport R;
  // By region id: a stored access in the region (innermost) touches a
  // shared location. Each acquire opens one region, numbered from 1.
  size_t NumRegions = 0;
  for (const ThreadInfo &T : SHB.threads())
    NumRegions += T.Acquires.size();
  std::vector<bool> GuardsShared(NumRegions + 1, false);
  for (const ThreadInfo &T : SHB.threads()) {
    if (pollCancelled(Cancel)) {
      R.Cancelled = true;
      return R;
    }
    for (const AccessEvent &E : T.Accesses)
      if (E.LockRegion != 0 && !GuardsShared[E.LockRegion])
        GuardsShared[E.LockRegion] =
            std::any_of(E.Locs.begin(), E.Locs.end(),
                        [&](MemLoc Loc) { return Sharing.isShared(Loc); });
    // A thread's acquires ascend by region id.
    for (const AcquireEvent &A : T.Acquires) {
      if (A.NumAccesses == 0)
        continue;
      ++R.NumRegionsChecked;
      if (GuardsShared[A.Region])
        continue;
      OverSyncRegion O;
      O.Acquire = A.S;
      O.Thread = T.Id;
      O.NumAccesses = A.NumAccesses;
      R.Regions.push_back(O);
    }
  }
  return R;
}

