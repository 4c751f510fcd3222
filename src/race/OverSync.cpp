//===- OverSync.cpp - Over-synchronization analysis ----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Race/OverSync.h"

#include "o2/IR/Printer.h"
#include "o2/Support/OutputStream.h"

#include <map>

using namespace o2;

OverSyncReport
o2::detectOverSynchronization(const SharingResult &Sharing,
                              const SHBGraph &SHB,
                              const CancellationToken *Cancel) {
  OverSyncReport R;
  for (const ThreadInfo &T : SHB.threads()) {
    if (pollCancelled(Cancel)) {
      R.Cancelled = true;
      return R;
    }
    // Group this thread's accesses by innermost lock region.
    struct RegionState {
      unsigned NumAccesses = 0;
      bool TouchesShared = false;
    };
    std::map<uint32_t, RegionState> Regions;
    for (const AccessEvent &E : T.Accesses) {
      if (E.LockRegion == 0)
        continue;
      RegionState &State = Regions[E.LockRegion];
      ++State.NumAccesses;
      for (const MemLoc &Loc : E.Locs)
        State.TouchesShared |= Sharing.isShared(Loc);
    }
    // Map each region to its opening acquire.
    std::map<uint32_t, const Stmt *> RegionAcquire;
    for (const AcquireEvent &A : T.Acquires)
      RegionAcquire[A.Region] = A.S;
    for (const auto &[Region, State] : Regions) {
      ++R.NumRegionsChecked;
      if (State.TouchesShared)
        continue;
      OverSyncRegion O;
      O.Acquire =
          RegionAcquire.count(Region) ? RegionAcquire[Region] : nullptr;
      O.Thread = T.Id;
      O.NumAccesses = State.NumAccesses;
      R.Regions.push_back(O);
    }
  }
  return R;
}

void OverSyncReport::print(OutputStream &OS) const {
  OS << "==== " << Regions.size() << " over-synchronized region(s) (of "
     << NumRegionsChecked << " checked) ====\n";
  for (const OverSyncRegion &O : Regions) {
    OS << "lock region";
    if (O.Acquire)
      OS << " at '" << printStmt(*O.Acquire) << "' in "
         << O.Acquire->getFunction()->getName();
    OS << " [thread " << O.Thread << "] guards only origin-local data ("
       << O.NumAccesses << " access(es))\n";
  }
}
