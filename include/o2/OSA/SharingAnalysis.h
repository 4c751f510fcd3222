//===- o2/OSA/SharingAnalysis.h - Origin-sharing analysis ---------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OSA (paper Section 3.3, Algorithm 1): a linear scan over the reachable
/// ⟨method, origin⟩ instances that computes, for every abstract memory
/// location, the set of origins that read it and the set that write it.
/// A location is origin-shared iff at least two origins access it and at
/// least one of them writes. Compared to thread-escape analysis, OSA also
/// says *how* a location is shared (which origins, reads vs writes),
/// which the over-synchronization check consumes. The race detector does
/// not read it: it derives thread-sharing from the SHB graph's access
/// events, and a property test checks that every racy location is
/// OSA-shared.
///
//===----------------------------------------------------------------------===//

#ifndef O2_OSA_SHARINGANALYSIS_H
#define O2_OSA_SHARINGANALYSIS_H

#include "o2/PTA/MemLoc.h"
#include "o2/PTA/PointerAnalysis.h"
#include "o2/Support/BitVector.h"

#include <unordered_map>
#include <vector>

namespace o2 {

/// Read/write origin sets of one location.
struct LocAccessSets {
  BitVector ReadOrigins;
  BitVector WriteOrigins;

  /// Origin-shared: ≥2 accessing origins, ≥1 writer. That is, two
  /// writers, or one writer and a reader other than it.
  bool isShared() const {
    unsigned Writers = WriteOrigins.count();
    if (Writers != 1)
      return Writers > 1;
    auto Writer = static_cast<unsigned>(WriteOrigins.findFirst());
    return ReadOrigins.count() > (ReadOrigins.test(Writer) ? 1u : 0u);
  }
};

class SharingResult {
public:
  /// Access sets of \p Loc; null if the location is never accessed.
  const LocAccessSets *get(MemLoc Loc) const {
    auto It = Locs.find(Loc);
    return It == Locs.end() ? nullptr : &It->second;
  }

  bool isShared(MemLoc Loc) const {
    const LocAccessSets *S = get(Loc);
    return S && S->isShared();
  }

  /// All origin-shared locations, sorted by key (deterministic).
  const std::vector<MemLoc> &sharedLocations() const { return Shared; }

  /// Number of distinct abstract objects with at least one shared
  /// location (globals not included).
  unsigned numSharedObjects() const { return NumSharedObjects; }

  /// Number of access statements that may touch a shared location
  /// (the paper's "#S-access").
  unsigned numSharedAccessStmts() const { return NumSharedAccessStmts; }

  /// Total number of access statements scanned.
  unsigned numAccessStmts() const { return NumAccessStmts; }

  /// True if the access statement with module-wide ID \p StmtId may touch
  /// an origin-shared location.
  bool isSharedAccess(unsigned StmtId) const {
    return StmtId < SharedStmts.size() && SharedStmts.test(StmtId);
  }

  /// True if the scan was cancelled (the result covers a prefix of the
  /// reachable instances).
  bool cancelled() const { return Cancelled; }

private:
  friend class SharingAnalysis;

  bool Cancelled = false;

  std::unordered_map<MemLoc, LocAccessSets> Locs;
  std::vector<MemLoc> Shared;
  BitVector SharedStmts;
  unsigned NumSharedObjects = 0;
  unsigned NumSharedAccessStmts = 0;
  unsigned NumAccessStmts = 0;
};

/// Runs OSA over an Origin-sensitive pointer-analysis result, reading its
/// access table. \p Cancel, when given, is polled per scanned instance; on
/// expiry the scan stops and the partial result is flagged.
SharingResult runSharingAnalysis(const PTAResult &PTA,
                                 const CancellationToken *Cancel = nullptr);

} // namespace o2

#endif // O2_OSA_SHARINGANALYSIS_H
