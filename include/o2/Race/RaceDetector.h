//===- o2/Race/RaceDetector.h - Static race detection -------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The race detection engine of Section 4: hybrid happens-before + lockset
/// over the SHB graph, for the sharing table's shared non-atomic locations.
///
/// detectRaces is the pairwise scan of Section 4.1: per shared location,
/// every pair of accesses from different threads with a write is checked
/// for a common lock, then for happens-before in either direction. Both
/// checks are lookups into tables the SHB graph builds with itself:
/// per-segment reachability rows for happens-before, and the
/// lockset-intersection bit matrix when the interned universe is small
/// (the sorted-list merge otherwise). The scan is quadratic in a
/// location's accesses after lock-region merging; a deadline (the
/// cancellation token) bounds it on pathological modules.
///
/// Each optimization of Section 4.1 can be disabled, which yields the
/// D4-style straw-man detector the paper compares against; naive HB with
/// the uncached lockset merge is also the test oracle for the tables.
///
//===----------------------------------------------------------------------===//

#ifndef O2_RACE_RACEDETECTOR_H
#define O2_RACE_RACEDETECTOR_H

#include "o2/OSA/SharingAnalysis.h"
#include "o2/SHB/SHBGraph.h"
#include "o2/Support/Statistic.h"

#include <set>
#include <vector>

namespace o2 {

/// How happens-before queries are answered.
enum class RaceHBKind : uint8_t {
  Naive, ///< Per-event BFS over the SHB graph (D4-style straw man).
  Index, ///< The SHB graph's reachability rows, O(1) per query (default).
};

struct RaceDetectorOptions {
  /// Happens-before implementation (`o2cli --race-hb=`). Both are
  /// semantically identical; Naive is the correctness oracle for the
  /// reachability rows.
  RaceHBKind HB = RaceHBKind::Index;

  /// Optimization 2: canonical lockset IDs with precomputed
  /// intersections (the SHB graph's bit matrix, when it fits); off, every
  /// check merges the two sorted element lists.
  bool CacheLocksetChecks = true;

  /// Optimization 3: merge same-location accesses within a lock region.
  bool LockRegionMerging = true;

  /// Hard cap on conflicting pairs checked; exceeding it aborts the scan
  /// and sets the "race.budget-hit" statistic — benchmark harnesses use
  /// this the way the paper reports ">4h" detector runs.
  uint64_t MaxPairChecks = ~uint64_t(0);
};

/// One reported race: an unordered pair of conflicting statements.
struct Race {
  MemLoc Loc;                 ///< One shared location they collide on.
  const Stmt *A = nullptr;
  const Stmt *B = nullptr;
  unsigned ThreadA = 0;
  unsigned ThreadB = 0;
  bool AIsWrite = false;
  bool BIsWrite = false;
};

class RaceReport {
public:
  const std::vector<Race> &races() const { return Races; }
  unsigned numRaces() const { return static_cast<unsigned>(Races.size()); }

  /// Detector counters: pairs checked, HB queries, lockset checks,
  /// shared locations, threads, events.
  const StatisticRegistry &stats() const { return Stats; }

  /// True if the scan was cancelled (the report covers a subset of the
  /// candidate locations).
  bool cancelled() const { return Cancelled; }

private:
  friend class RaceDetector;

  bool Cancelled = false;
  std::vector<Race> Races;
  StatisticRegistry Stats;
};

/// Detects races over a prebuilt SHB graph and sharing table (OSA's
/// under OPA, runThreadSharing's otherwise; AnalysisManager picks it).
/// \p Cancel, when given, is polled per candidate pair; on expiry the
/// scan stops and the partial report is flagged (the "race.cancelled"
/// statistic). A cancelled SHB graph stops the scan the same way.
RaceReport detectRaces(const PTAResult &PTA, const SHBGraph &SHB,
                       const SharingResult &Sharing,
                       const RaceDetectorOptions &Opts = {},
                       const CancellationToken *Cancel = nullptr);

} // namespace o2

#endif // O2_RACE_RACEDETECTOR_H
