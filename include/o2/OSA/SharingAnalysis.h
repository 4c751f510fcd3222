//===- o2/OSA/SharingAnalysis.h - Origin-sharing analysis ---------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharing table: for every abstract memory location, who reads it
/// and who writes it, and the one predicate that calls it shared. Race
/// detection (paper §4) considers only shared locations; over-sync flags
/// lock regions that touch none. OSA (§3.3, Algorithm 1) fills it by a
/// linear scan over the reachable ⟨method, origin⟩ instances, so it says
/// which origins share a location, unlike thread-escape analysis; without
/// origins, runThreadSharing fills it with the SHB graph's threads.
///
//===----------------------------------------------------------------------===//

#ifndef O2_OSA_SHARINGANALYSIS_H
#define O2_OSA_SHARINGANALYSIS_H

#include "o2/PTA/MemLoc.h"
#include "o2/PTA/PointerAnalysis.h"
#include "o2/Support/BitVector.h"
#include "o2/Support/U64Map.h"

#include <algorithm>
#include <vector>

namespace o2 {

class SHBGraph;

/// Readers and writers of one location: origins or SHB threads.
struct LocAccessSets {
  BitVector Readers;
  BitVector Writers;

  /// Shared: ≥2 accessors, ≥1 writer. That is, two writers, or one
  /// writer and a reader other than it.
  bool isShared() const {
    unsigned NumWriters = Writers.count();
    if (NumWriters != 1)
      return NumWriters > 1;
    auto Writer = static_cast<unsigned>(Writers.findFirst());
    return Readers.count() > (Readers.test(Writer) ? 1u : 0u);
  }
};

class SharingResult {
public:
  static constexpr unsigned NoLoc = ~0u;

  /// Dense index of \p Loc, in [0, numLocations()); NoLoc if the location
  /// is never accessed.
  unsigned indexOf(MemLoc Loc) const {
    const unsigned *I = Index.find(Loc.key());
    return I ? *I : NoLoc;
  }

  /// Number of accessed locations.
  unsigned numLocations() const { return static_cast<unsigned>(Sets.size()); }

  /// Access sets of \p Loc; null if the location is never accessed.
  const LocAccessSets *get(MemLoc Loc) const {
    unsigned I = indexOf(Loc);
    return I == NoLoc ? nullptr : &Sets[I];
  }

  bool isShared(MemLoc Loc) const {
    unsigned I = indexOf(Loc);
    return I != NoLoc && SharedLoc[I];
  }

  /// All shared locations, sorted by key (deterministic).
  const std::vector<MemLoc> &sharedLocations() const { return Shared; }

  /// Number of distinct abstract objects with at least one shared
  /// location (globals not included).
  unsigned numSharedObjects() const { return NumSharedObjects; }

  /// Number of access statements that may touch a shared location
  /// (the paper's "#S-access").
  unsigned numSharedAccessStmts() const {
    return static_cast<unsigned>(
        std::count(SharedStmts.begin(), SharedStmts.end(), true));
  }

  /// Total number of access statements scanned.
  unsigned numAccessStmts() const {
    return static_cast<unsigned>(
        std::count(AccessStmts.begin(), AccessStmts.end(), true));
  }

  /// True if the access statement with module-wide ID \p StmtId may touch
  /// a shared location.
  bool isSharedAccess(unsigned StmtId) const {
    return StmtId < SharedStmts.size() && SharedStmts[StmtId];
  }

  /// OSA's flag per entry of PTA's access table (PTAResult::accessTable()):
  /// the entry may touch a shared location. Covers every entry, also those
  /// of frames outside instances(); empty for runThreadSharing's table.
  const std::vector<bool> &sharedAccesses() const { return SharedEntries; }

  /// True if the scan was cancelled (the result covers a prefix of the
  /// scanned instances or threads).
  bool cancelled() const { return Cancelled; }

private:
  friend SharingResult runSharingAnalysis(const PTAResult &,
                                          const CancellationToken *);
  friend SharingResult runThreadSharing(const SHBGraph &,
                                        const CancellationToken *);

  /// Records that \p Who reads or writes \p Loc; returns its index.
  unsigned add(unsigned Who, bool IsWrite, MemLoc Loc);
  /// Decides which locations are shared; flags a scan that stopped early.
  void finish(bool WasCancelled);

  bool Cancelled = false;

  /// MemLoc key -> dense index into Locs, Sets and SharedLoc.
  U64Map<unsigned> Index;
  std::vector<MemLoc> Locs;
  std::vector<LocAccessSets> Sets;
  std::vector<bool> SharedLoc;
  std::vector<MemLoc> Shared;
  /// By Stmt::getId(), sized from Module::numStmts().
  std::vector<bool> AccessStmts, SharedStmts;
  std::vector<bool> SharedEntries;
  unsigned NumSharedObjects = 0;
};

/// Runs OSA over an Origin-sensitive pointer-analysis result, reading its
/// access table, and flags the table's entries that may touch a shared
/// location (sharedAccesses()). \p Cancel, when given, is polled per
/// scanned instance; on expiry the scan stops and the partial result is
/// flagged.
SharingResult runSharingAnalysis(const PTAResult &PTA,
                                 const CancellationToken *Cancel = nullptr);

/// Fills the sharing table from the access events of \p SHB's threads,
/// counting no access statements. \p SHB must store every access it
/// walks (built without an OSA filter). Polls \p Cancel per thread.
SharingResult runThreadSharing(const SHBGraph &SHB,
                               const CancellationToken *Cancel = nullptr);

/// True when \p PTA has origins, so that OSA can run on it.
inline bool sharingFromOSA(const PTAResult &PTA) {
  return PTA.options().Kind == ContextKind::Origin;
}

} // namespace o2

#endif // O2_OSA_SHARINGANALYSIS_H
