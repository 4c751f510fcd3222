//===- o2/Race/OverSync.h - Over-synchronization analysis ---------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Over-synchronization detection: the second further application of
/// OPA/OSA that Section 3 names. A lock region whose accesses touch only
/// origin-local (non-shared) memory does not protect anything — the lock
/// can be removed (or the code is missing the accesses it was meant to
/// protect). OSA's per-origin read/write sets (without origins, the SHB
/// threads') answer this directly; thread-escape analysis cannot.
///
//===----------------------------------------------------------------------===//

#ifndef O2_RACE_OVERSYNC_H
#define O2_RACE_OVERSYNC_H

#include "o2/OSA/SharingAnalysis.h"
#include "o2/SHB/SHBGraph.h"
#include "o2/Support/CancellationToken.h"

#include <vector>

namespace o2 {

/// One unnecessary lock region.
struct OverSyncRegion {
  const Stmt *Acquire = nullptr; ///< the acquire opening the region
  unsigned Thread = 0;
  unsigned NumAccesses = 0; ///< accesses inside, all origin-local
};

class OverSyncReport {
public:
  const std::vector<OverSyncRegion> &regions() const { return Regions; }
  unsigned numRegions() const {
    return static_cast<unsigned>(Regions.size());
  }

  /// Lock regions inspected in total.
  unsigned numRegionsChecked() const { return NumRegionsChecked; }

  /// True if a cancellation token fired mid-analysis.
  bool cancelled() const { return Cancelled; }

private:
  friend OverSyncReport
  detectOverSynchronization(const SharingResult &, const SHBGraph &,
                            const CancellationToken *);

  std::vector<OverSyncRegion> Regions;
  unsigned NumRegionsChecked = 0;
  bool Cancelled = false;
};

/// Flags lock regions that guard only origin-local accesses. Empty
/// regions (no accesses at all) are not reported — they usually guard
/// control flow the IR does not model. \p Cancel is polled in the
/// per-thread event walk.
OverSyncReport
detectOverSynchronization(const SharingResult &Sharing, const SHBGraph &SHB,
                          const CancellationToken *Cancel = nullptr);

} // namespace o2

#endif // O2_RACE_OVERSYNC_H
