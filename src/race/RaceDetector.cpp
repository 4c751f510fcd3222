//===- RaceDetector.cpp - Static race detection ----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The pairwise scan of Section 4.1. For each shared non-atomic location,
// in location order, the accesses to it (merged per lock region) are
// paired in (thread, position) order; a pair of different threads with a
// write races unless their locksets intersect or happens-before orders
// them. Each statement pair is reported once, by the first pair that
// races, and the report is sorted by statement ids.
//
//===----------------------------------------------------------------------===//

#include "o2/Race/RaceDetector.h"

#include "o2/Support/BitVector.h"
#include "o2/Support/U64Map.h"

#include <algorithm>
#include <cassert>

using namespace o2;

namespace {

/// Sorted candidate list: each shared location with all accesses to it,
/// in (thread, position) order — threads ascend, positions strictly
/// ascend per thread (trace order). The scan reports in this order.
using CandidateList =
    std::vector<std::pair<MemLoc, std::vector<const AccessEvent *>>>;

/// True if \p Loc is an `atomic` field or global: synchronization, not
/// data.
bool isAtomicLoc(MemLoc Loc, const PTAResult &PTA) {
  if (Loc.isGlobal())
    return PTA.module().globals()[Loc.globalId()]->isAtomic();
  const Field *F = fieldOf(Loc, PTA);
  return F && F->isAtomic();
}

/// The race candidates: the sharing table's shared locations, minus the
/// atomics, each with its SHB access events grouped through the table's
/// index. Returns the list sorted by location and records the
/// corpus-shape statistics.
CandidateList collectCandidates(const PTAResult &PTA, const SHBGraph &SHB,
                                const SharingResult &Sharing,
                                StatisticRegistry &Stats) {
  CandidateList Candidates;
  // Dense table index -> position in Candidates, or ~0u.
  std::vector<unsigned> Slot(Sharing.numLocations(), ~0u);
  BitVector SharedObjects;
  for (MemLoc Loc : Sharing.sharedLocations()) {
    if (isAtomicLoc(Loc, PTA))
      continue;
    if (!Loc.isGlobal())
      SharedObjects.set(Loc.object());
    Slot[Sharing.indexOf(Loc)] = static_cast<unsigned>(Candidates.size());
    Candidates.emplace_back(Loc, std::vector<const AccessEvent *>());
  }
  if (!Candidates.empty())
    for (const ThreadInfo &T : SHB.threads())
      for (const AccessEvent &E : T.Accesses)
        for (MemLoc Loc : E.Locs) {
          unsigned I = Sharing.indexOf(Loc);
          if (I != SharingResult::NoLoc && Slot[I] != ~0u)
            Candidates[Slot[I]].second.push_back(&E);
        }
  Stats.set("race.shared-locations", Candidates.size());
  Stats.set("race.shared-objects", SharedObjects.count());
  Stats.set("race.threads", SHB.numThreads());
  Stats.set("race.access-events", SHB.numAccessEvents());
  return Candidates;
}

/// Optimization 3: within one thread, all accesses to one location inside
/// the same sync-free lock region with the same lockset have identical
/// happens-before and lockset behaviour — keep one representative.
/// Preserves input order, so the hashed dedup stays deterministic;
/// \p MergedOut is incremented once per dropped access.
std::vector<const AccessEvent *>
mergeByLockRegion(const std::vector<const AccessEvent *> &In,
                  uint64_t &MergedOut) {
  std::vector<const AccessEvent *> Out;
  // Key: lock region (its id also names the thread), lockset, is-write.
  U64Map<bool> Seen;
  for (const AccessEvent *E : In) {
    if (E->LockRegion == 0 || E->RegionHasSync) {
      Out.push_back(E);
      continue;
    }
    assert(E->Lockset < (1u << 31) && "lockset id overflows the key");
    if (Seen.tryEmplace((uint64_t(E->LockRegion) << 32) |
                        (uint64_t(E->Lockset) << 1) | E->IsWrite)
            .second)
      Out.push_back(E);
    else
      ++MergedOut;
  }
  return Out;
}

/// Dedup key of an unordered statement pair: ids packed low/high.
uint64_t stmtPairKey(const Stmt *SA, const Stmt *SB) {
  uint32_t A = SA->getId(), B = SB->getId();
  if (A > B)
    std::swap(A, B);
  return (uint64_t(A) << 32) | B;
}

/// Builds the race payload for a conflicting access pair: participants
/// ordered by statement id.
Race makeRace(MemLoc Loc, const AccessEvent &A, const AccessEvent &B) {
  const AccessEvent *EA = &A, *EB = &B;
  if (EA->S->getId() > EB->S->getId())
    std::swap(EA, EB);
  Race Rc;
  Rc.Loc = Loc;
  Rc.A = EA->S;
  Rc.B = EB->S;
  Rc.ThreadA = EA->Thread;
  Rc.ThreadB = EB->Thread;
  Rc.AIsWrite = EA->IsWrite;
  Rc.BIsWrite = EB->IsWrite;
  return Rc;
}

} // namespace

namespace o2 {

class RaceDetector {
public:
  RaceDetector(const PTAResult &PTA, const SHBGraph &SHB,
               const SharingResult &Sharing, const RaceDetectorOptions &Opts,
               const CancellationToken *Cancel)
      : PTA(PTA), SHB(SHB), Sharing(Sharing), Opts(Opts), Cancel(Cancel) {}

  RaceReport run() {
    // A cancelled sharing table is partial, so nothing is scanned.
    R.Cancelled = Sharing.cancelled();
    if (!R.Cancelled)
      Candidates = collectCandidates(PTA, SHB, Sharing, R.Stats);
    if (!Candidates.empty() && Opts.HB == RaceHBKind::Index)
      R.Stats.set("race.hb-index-segments", SHB.numSegments());
    for (auto &[Loc, Accesses] : Candidates) {
      if (BudgetExhausted || R.Cancelled)
        break;
      checkPairs(Loc, Accesses);
    }
    return finalize();
  }

private:
  /// A cancelled graph is partial and has no query tables, so scanning it
  /// stops as if the token had fired.
  bool stopRequested() const {
    return SHB.cancelled() || pollCancelled(Cancel);
  }

  std::vector<const AccessEvent *>
  merged(const std::vector<const AccessEvent *> &AllAccesses) {
    return Opts.LockRegionMerging ? mergeByLockRegion(AllAccesses, Merged)
                                  : AllAccesses;
  }

  bool locksetsIntersect(LocksetId A, LocksetId B) const {
    return Opts.CacheLocksetChecks ? SHB.locksetsIntersect(A, B)
                                   : SHB.locksetsIntersectUncached(A, B);
  }

  bool happensBefore(const AccessEvent &A, const AccessEvent &B) {
    ++HBQueries;
    if (Opts.HB == RaceHBKind::Index)
      return SHB.happensBefore(A.Thread, A.Pos, B.Thread, B.Pos);
    return SHB.happensBeforeNaive(A.Thread, A.Pos, B.Thread, B.Pos);
  }

  void checkPairs(MemLoc Loc,
                  const std::vector<const AccessEvent *> &AllAccesses) {
    std::vector<const AccessEvent *> Accesses = merged(AllAccesses);
    const size_t N = Accesses.size();
    // Two reads never conflict, so a read pairs only with the writes after
    // it: NextWrite[K] is the first write at index K or later (N if none).
    std::vector<size_t> NextWrite(N + 1, N);
    for (size_t K = N; K-- > 0;)
      NextWrite[K] = Accesses[K]->IsWrite ? K : NextWrite[K + 1];
    for (size_t I = 0; I < N; ++I) {
      const AccessEvent &A = *Accesses[I];
      auto Next = [&](size_t J) { return A.IsWrite ? J : NextWrite[J]; };
      for (size_t J = Next(I + 1); J < N; J = Next(J + 1)) {
        if (stopRequested()) {
          R.Cancelled = true;
          return;
        }
        const AccessEvent &B = *Accesses[J];
        if (A.Thread == B.Thread)
          continue;
        // The budget is charged per conflicting pair actually examined;
        // the pair that would exceed it is not examined and trips the
        // budget flag instead, wherever in the scan it falls.
        if (PairsChecked >= Opts.MaxPairChecks) {
          R.Stats.set("race.budget-hit", 1);
          BudgetExhausted = true;
          return;
        }
        ++PairsChecked;
        ++LocksetChecks;
        if (locksetsIntersect(A.Lockset, B.Lockset))
          continue;
        if (happensBefore(A, B) || happensBefore(B, A))
          continue;
        if (ReportedPairs.tryEmplace(stmtPairKey(A.S, B.S)).second)
          Races.push_back(makeRace(Loc, A, B));
      }
    }
  }

  /// Final report ordering and summary counters. Work counters
  /// materialize only once charged.
  RaceReport finalize() {
    if (Merged)
      R.Stats.add("race.merged-accesses", Merged);
    if (PairsChecked)
      R.Stats.add("race.pairs-checked", PairsChecked);
    if (LocksetChecks)
      R.Stats.add("race.lockset-checks", LocksetChecks);
    if (HBQueries)
      R.Stats.add("race.hb-queries", HBQueries);
    std::sort(Races.begin(), Races.end(), [](const Race &X, const Race &Y) {
      if (X.A->getId() != Y.A->getId())
        return X.A->getId() < Y.A->getId();
      return X.B->getId() < Y.B->getId();
    });
    R.Races = std::move(Races);
    R.Stats.set("race.races", R.Races.size());
    if (R.Cancelled)
      R.Stats.set("race.cancelled", 1);
    return std::move(R);
  }

  const PTAResult &PTA;
  const SHBGraph &SHB;
  const SharingResult &Sharing;
  const RaceDetectorOptions &Opts;
  const CancellationToken *Cancel;
  RaceReport R;
  CandidateList Candidates;
  std::vector<Race> Races;
  /// Reported (stmt A, stmt B) pairs, A < B, packed into one word.
  U64Map<bool> ReportedPairs;
  uint64_t PairsChecked = 0, LocksetChecks = 0, HBQueries = 0, Merged = 0;
  bool BudgetExhausted = false;
};

} // namespace o2

RaceReport o2::detectRaces(const PTAResult &PTA, const SHBGraph &SHB,
                           const SharingResult &Sharing,
                           const RaceDetectorOptions &Opts,
                           const CancellationToken *Cancel) {
  return RaceDetector(PTA, SHB, Sharing, Opts, Cancel).run();
}
