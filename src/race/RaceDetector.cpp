//===- RaceDetector.cpp - Static race detection ----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The race engine and its pairwise reference scan. Both share one
// candidate collection, one lock-region merge, one race payload and one
// report finalization, so they may only differ in how they *pair*
// accesses, never in which accesses they consider or how a race is
// materialized.
//
// ## Equivalence classes
//
// Accesses to one location are grouped by (thread, HB segment, lockset,
// is-write). Every member of a class has the same reachability row in the
// SHB graph and the same lockset, so for a pair of classes (Ci, Cj) one
// lockset lookup and two reach() lookups decide *all* |Ci|*|Cj| access
// pairs at once:
//
//   - the pairwise scan's first HB query hb(A, B) for A in Ci, B in Cj is
//     false exactly for the B whose position precedes
//     R12 = reach(row(Ci), thread(Cj)) — a prefix of Cj's
//     position-sorted members, found by binary search;
//   - symmetrically hb(B, A) is false exactly for the prefix of Ci
//     before R21 = reach(row(Cj), thread(Ci));
//   - the racy pairs of the class pair are the rectangle
//     prefix(Ci, cut21) x prefix(Cj, cut12).
//
// ## Equivalence with the pairwise scan
//
// The class scan reproduces the pairwise report byte-for-byte and its
// counters exactly:
//
//   - Counters charge what the pairwise scan *would have done* (|Ci|*|Cj|
//     pair checks and lockset checks; N + |Ci|*cut12 HB queries, the
//     short-circuited second query included), not the lookups actually
//     performed.
//   - The pairwise scan dedups statement pairs globally in scan order and
//     the first reporting pair fixes the race payload. Candidate
//     locations are sorted, and within one location the access vector is
//     sorted by (thread, position); because classes never span threads,
//     the first racy (I, J) index pair for a statement pair inside a
//     rectangle is (first occurrence of stmt A in the Ci prefix, first
//     occurrence of stmt B in the Cj prefix). Each location therefore
//     reduces to "per statement pair, the minimum (I, J) rank and its
//     payload", folded in rank order through the same global dedup set
//     the pairwise scan uses.
//
//===----------------------------------------------------------------------===//

#include "o2/Race/RaceDetector.h"

#include "o2/IR/Printer.h"
#include "o2/Support/BitVector.h"
#include "o2/Support/JSONWriter.h"
#include "o2/Support/OutputStream.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace o2;

namespace {

/// Sorted candidate list: each shared location with all accesses to it,
/// in (thread, position) order — threads ascend, positions strictly
/// ascend per thread (trace order). Both scans rely on this order.
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
/// atomics when those are handled, each with its SHB access events
/// grouped through the table's index. Returns the list sorted by location
/// and records the corpus-shape statistics.
CandidateList collectCandidates(const PTAResult &PTA, const SHBGraph &SHB,
                                const SharingResult &Sharing,
                                const RaceDetectorOptions &Opts,
                                StatisticRegistry &Stats) {
  CandidateList Candidates;
  // Dense table index -> position in Candidates, or ~0u.
  std::vector<unsigned> Slot(Sharing.numLocations(), ~0u);
  BitVector SharedObjects;
  for (MemLoc Loc : Sharing.sharedLocations()) {
    if (Opts.HandleAtomics && isAtomicLoc(Loc, PTA))
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

/// Hash of a key packed into two words.
struct PairKeyHash {
  size_t operator()(const std::pair<uint64_t, uint64_t> &K) const {
    uint64_t H = K.first * 0x9e3779b97f4a7c15ull;
    H ^= K.second + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    return static_cast<size_t>(H);
  }
};

/// Optimization 3: within one thread, all accesses to one location inside
/// the same sync-free lock region with the same lockset have identical
/// happens-before and lockset behaviour — keep one representative.
/// Preserves input order, so the hashed dedup stays deterministic;
/// \p MergedOut is incremented once per dropped access.
std::vector<const AccessEvent *>
mergeByLockRegion(const std::vector<const AccessEvent *> &In,
                  uint64_t &MergedOut) {
  std::vector<const AccessEvent *> Out;
  // Key: (thread, lock region) and (lockset, is-write).
  std::unordered_set<std::pair<uint64_t, uint64_t>, PairKeyHash> Seen;
  for (const AccessEvent *E : In) {
    if (E->LockRegion == 0 || E->RegionHasSync) {
      Out.push_back(E);
      continue;
    }
    if (Seen.emplace((uint64_t(E->Thread) << 32) | E->LockRegion,
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

/// One equivalence class: accesses of one thread/segment/lockset/is-write
/// at one location, in position order.
struct AccessClass {
  unsigned Thread;
  unsigned Row; ///< SHBGraph reachability row of (Thread, segment).
  LocksetId Lockset;
  bool IsWrite;
  std::vector<uint32_t> Pos; ///< Ascending.
  std::vector<uint32_t> Idx; ///< Index in the (merged) access vector.
  std::vector<const AccessEvent *> Ev;

  /// First occurrence of each distinct statement: (member rank, event).
  /// Built on demand — only classes that land in a racy rectangle pay.
  bool StmtsBuilt = false;
  std::vector<std::pair<uint32_t, const AccessEvent *>> Stmts;

  size_t size() const { return Pos.size(); }

  const std::vector<std::pair<uint32_t, const AccessEvent *>> &stmts() {
    if (!StmtsBuilt) {
      StmtsBuilt = true;
      std::unordered_set<const Stmt *> Seen;
      for (uint32_t R = 0; R < Ev.size(); ++R)
        if (Seen.insert(Ev[R]->S).second)
          Stmts.emplace_back(R, Ev[R]);
    }
    return Stmts;
  }
};

/// One statement pair a location wants to report: the minimum-rank racy
/// access pair with that statement pair, payload prebuilt.
struct PendingRace {
  uint64_t Rank; ///< (lower access index << 32) | higher access index.
  uint64_t Key;  ///< stmtPairKey of the two statements.
  Race Rc;
};

} // namespace

namespace o2 {

class RaceDetector {
public:
  RaceDetector(const PTAResult &PTA, const SHBGraph &SHB,
               const SharingResult &Sharing, const RaceDetectorOptions &Opts)
      : PTA(PTA), SHB(SHB), Sharing(Sharing), Opts(Opts) {}

  /// The pairwise reference scan, or the class-based scan over the graph's
  /// reachability rows (see the file comment).
  RaceReport run(bool Pairwise) {
    // A cancelled sharing table is partial, so nothing is scanned.
    R.Cancelled = Sharing.cancelled();
    if (!R.Cancelled)
      Candidates = collectCandidates(PTA, SHB, Sharing, Opts, R.Stats);
    if (!Candidates.empty() && Opts.HB == RaceHBKind::Index)
      R.Stats.set("race.hb-index-segments", SHB.numSegments());
    for (auto &[Loc, Accesses] : Candidates) {
      if (BudgetExhausted || R.Cancelled)
        break;
      if (Pairwise)
        checkPairs(Loc, Accesses);
      else if (stopRequested())
        R.Cancelled = true;
      else
        checkClasses(Loc, Accesses);
    }
    return finalize();
  }

private:
  /// A cancelled graph is partial and has no query tables, so scanning it
  /// stops as if the token had fired.
  bool stopRequested() const {
    return SHB.cancelled() || pollCancelled(Opts.Cancel);
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
    for (size_t I = 0; I < Accesses.size(); ++I) {
      for (size_t J = I + 1; J < Accesses.size(); ++J) {
        if (stopRequested()) {
          R.Cancelled = true;
          return;
        }
        const AccessEvent &A = *Accesses[I];
        const AccessEvent &B = *Accesses[J];
        if (A.Thread == B.Thread)
          continue;
        if (!A.IsWrite && !B.IsWrite)
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
        if (ReportedPairs.insert(stmtPairKey(A.S, B.S)).second)
          Races.push_back(makeRace(Loc, A, B));
      }
    }
  }

  void checkClasses(MemLoc Loc,
                    const std::vector<const AccessEvent *> &AllAccesses) {
    std::vector<const AccessEvent *> Accesses = merged(AllAccesses);

    // Group into equivalence classes, in first-occurrence order. The
    // access vector ascends by (thread, position), so classes of
    // different threads never interleave: for I < J with different
    // threads, every member of class I has a smaller index than every
    // member of class J — which is what lets a rectangle's minimum rank
    // be read off the class prefixes below.
    std::vector<AccessClass> Classes;
    std::unordered_map<std::pair<uint64_t, uint64_t>, size_t, PairKeyHash>
        ByKey;
    for (uint32_t K = 0; K < Accesses.size(); ++K) {
      const AccessEvent *E = Accesses[K];
      unsigned Seg = SHB.segmentOf(E->Thread, E->Pos);
      auto [It, New] = ByKey.emplace(
          std::make_pair((uint64_t(E->Thread) << 32) | Seg,
                         (uint64_t(E->Lockset) << 1) | E->IsWrite),
          Classes.size());
      if (New) {
        AccessClass C;
        C.Thread = E->Thread;
        C.Row = SHB.rowOf(E->Thread, Seg);
        C.Lockset = E->Lockset;
        C.IsWrite = E->IsWrite;
        Classes.push_back(std::move(C));
      }
      AccessClass &C = Classes[It->second];
      C.Pos.push_back(E->Pos);
      C.Idx.push_back(K);
      C.Ev.push_back(E);
    }

    // Minimum-rank racy pair per statement pair of this location.
    std::unordered_map<uint64_t, PendingRace> Wanted;
    for (size_t I = 0; I < Classes.size(); ++I) {
      for (size_t J = I + 1; J < Classes.size(); ++J) {
        AccessClass &A = Classes[I];
        AccessClass &B = Classes[J];
        if (A.Thread == B.Thread)
          continue;
        if (!A.IsWrite && !B.IsWrite)
          continue;
        uint64_t N = uint64_t(A.size()) * B.size();
        PairsChecked += N;
        LocksetChecks += N;
        if (locksetsIntersect(A.Lockset, B.Lockset))
          continue;
        // hb(a, b) is false exactly for b before R12; the pairwise scan
        // issues its second query hb(b, a) for exactly those pairs.
        uint32_t R12 = SHB.reach(A.Row, B.Thread);
        size_t Cut12 = std::lower_bound(B.Pos.begin(), B.Pos.end(), R12) -
                       B.Pos.begin();
        HBQueries += N + uint64_t(A.size()) * Cut12;
        if (Cut12 == 0)
          continue;
        uint32_t R21 = SHB.reach(B.Row, A.Thread);
        size_t Cut21 = std::lower_bound(A.Pos.begin(), A.Pos.end(), R21) -
                       A.Pos.begin();
        if (Cut21 == 0)
          continue;
        // Racy rectangle: prefix(A, Cut21) x prefix(B, Cut12). For each
        // statement pair, its minimum-rank racy pair uses the first
        // occurrence of each statement within the prefixes.
        for (const auto &[RankA, EA] : A.stmts()) {
          if (RankA >= Cut21)
            break;
          for (const auto &[RankB, EB] : B.stmts()) {
            if (RankB >= Cut12)
              break;
            uint64_t Rank = (uint64_t(A.Idx[RankA]) << 32) | B.Idx[RankB];
            uint64_t Key = stmtPairKey(EA->S, EB->S);
            auto [It, New] =
                Wanted.emplace(Key, PendingRace{Rank, Key, Race{}});
            if (New || Rank < It->second.Rank) {
              It->second.Rank = Rank;
              It->second.Rc = makeRace(Loc, *EA, *EB);
            }
          }
        }
      }
    }

    // Fold in pairwise scan order through the global dedup set.
    std::vector<PendingRace> Pending;
    Pending.reserve(Wanted.size());
    for (auto &[Key, P] : Wanted)
      Pending.push_back(std::move(P));
    std::sort(Pending.begin(), Pending.end(),
              [](const PendingRace &X, const PendingRace &Y) {
                return X.Rank < Y.Rank;
              });
    for (PendingRace &P : Pending)
      if (ReportedPairs.insert(P.Key).second)
        Races.push_back(std::move(P.Rc));
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
  RaceReport R;
  CandidateList Candidates;
  std::vector<Race> Races;
  /// Reported (stmt A, stmt B) pairs, A < B, packed into one word.
  std::unordered_set<uint64_t> ReportedPairs;
  uint64_t PairsChecked = 0, LocksetChecks = 0, HBQueries = 0, Merged = 0;
  bool BudgetExhausted = false;
};

} // namespace o2

void RaceReport::print(OutputStream &OS, const PTAResult &PTA) const {
  OS << "==== " << Races.size() << " race(s) ====\n";
  for (const Race &Rc : Races) {
    OS << "race on " << Rc.Loc.toString(PTA) << ":\n";
    OS << "  " << (Rc.AIsWrite ? "write" : "read ") << " '"
       << printStmt(*Rc.A) << "' in "
       << Rc.A->getFunction()->getName() << " [thread " << Rc.ThreadA
       << "]\n";
    OS << "  " << (Rc.BIsWrite ? "write" : "read ") << " '"
       << printStmt(*Rc.B) << "' in "
       << Rc.B->getFunction()->getName() << " [thread " << Rc.ThreadB
       << "]\n";
  }
}

void RaceReport::printJSON(OutputStream &OS, const PTAResult &PTA) const {
  JSONWriter W(OS);
  W.beginObject();
  W.key("races");
  W.beginArray();
  for (const Race &Rc : Races) {
    W.beginObject();
    W.attribute("location", Rc.Loc.toString(PTA));
    W.key("first");
    W.beginObject();
    W.attribute("stmt", printStmt(*Rc.A));
    W.attribute("function", Rc.A->getFunction()->getName());
    W.attribute("thread", Rc.ThreadA);
    W.attribute("write", Rc.AIsWrite);
    W.endObject();
    W.key("second");
    W.beginObject();
    W.attribute("stmt", printStmt(*Rc.B));
    W.attribute("function", Rc.B->getFunction()->getName());
    W.attribute("thread", Rc.ThreadB);
    W.attribute("write", Rc.BIsWrite);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.key("stats");
  W.beginObject();
  for (const auto &[Name, Value] : Stats.counters())
    W.attribute(Name, Value);
  W.endObject();
  W.endObject();
  OS << '\n';
}

RaceReport o2::detectRaces(const PTAResult &PTA, const SHBGraph &SHB,
                           const SharingResult &Sharing,
                           const RaceDetectorOptions &Opts) {
  // The naive-HB ablation runs the pairwise scan, and a finite pair
  // budget is defined by its order.
  if (Opts.HB == RaceHBKind::Naive || Opts.MaxPairChecks != ~uint64_t(0))
    return detectRacesPairwise(PTA, SHB, Sharing, Opts);
  return RaceDetector(PTA, SHB, Sharing, Opts).run(false);
}

RaceReport o2::detectRacesPairwise(const PTAResult &PTA, const SHBGraph &SHB,
                                   const SharingResult &Sharing,
                                   const RaceDetectorOptions &Opts) {
  return RaceDetector(PTA, SHB, Sharing, Opts).run(true);
}

RaceReport o2::detectRaces(const PTAResult &PTA,
                           const RaceDetectorOptions &Opts) {
  SHBGraph SHB = buildSHBGraph(PTA, Opts.SHB);
  SharingResult Built;
  return detectRaces(PTA, SHB,
                     sharingTableFor(PTA, SHB, nullptr, Built, Opts.Cancel),
                     Opts);
}
