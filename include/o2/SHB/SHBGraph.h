//===- o2/SHB/SHBGraph.h - Static happens-before graph -----------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static happens-before (SHB) graph of Section 4 (Table 4), built
/// over any pointer-analysis result:
///
///  - One abstract thread per spawn-target instance (plus main); origins
///    map 1:1 onto abstract threads under OPA.
///  - Intra-thread happens-before is represented by monotonically
///    increasing integer positions instead of explicit edges
///    (optimization 1 of Section 4.1): checking order is an integer
///    comparison.
///  - Locksets are interned into canonical lockset IDs; when the interned
///    universe is small, the pairwise intersection relation is
///    precomputed as a bit matrix (optimization 2).
///  - Lock regions are tracked so the detector can merge all accesses to
///    the same location within one region (optimization 3).
///  - Inter-thread edges exist only at spawns (entry ⇒ origin_first) and
///    joins (origin_last ⇒ join). Cross-thread reachability only changes
///    where a thread spawns, so each thread's trace is cut into segments
///    at its spawn-edge positions, and the builder stores, per (thread,
///    segment), the earliest reachable position of every thread: a
///    happens-before query is one row lookup plus an integer compare.
///
/// The graph is immutable once built: every query is a const lookup into
/// tables built with it, so one graph can be shared across threads.
///
/// Event-handler threads can be serialized by an implicit global lock
/// (the paper's Android treatment, Section 4.2).
///
/// Given OSA's result, the builder stores only the accesses OSA flags as
/// touching a shared location; it still walks and counts every access, so
/// positions, locksets and regions are unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SHB_SHBGRAPH_H
#define O2_SHB_SHBGRAPH_H

#include "o2/PTA/MemLoc.h"
#include "o2/PTA/PointerAnalysis.h"
#include "o2/Support/InternTable.h"

#include <vector>

namespace o2 {

class OutputStream;
class SharingResult;

/// Canonical lockset handle; InternTable::Empty is the empty lockset.
using LocksetId = uint32_t;

struct SHBOptions {
  /// Serialize event-handler threads with an implicit global lock
  /// (Section 4.2: all events run on the looper thread).
  bool SerializeEventHandlers = true;

  /// Caps to keep degenerate inputs bounded.
  unsigned MaxThreads = 4096;
  uint64_t MaxEventsPerThread = 1u << 22;
};

/// One read or write of a set of abstract memory locations.
struct AccessEvent {
  uint32_t Pos = 0;        ///< Intra-thread position (integer HB).
  uint32_t Thread = 0;
  const Stmt *S = nullptr;
  LocksetId Lockset = 0;
  /// Innermost lock region, 0 outside any. Ids are unique in the graph,
  /// numbered from 1 in acquire order (AcquireEvent::Region).
  uint32_t LockRegion = 0;
  bool IsWrite = false;
  /// The region contained a spawn/join, so region merging is unsound for
  /// it and the detector must not collapse its accesses.
  bool RegionHasSync = false;
  SmallVector<MemLoc, 2> Locs;
};

/// One lock acquisition, with the locks already held at that point.
/// Feeds the lock-order (deadlock) analysis.
struct AcquireEvent {
  uint32_t Pos = 0;
  uint32_t Thread = 0;
  const Stmt *S = nullptr;
  /// Canonical lockset held BEFORE this acquire.
  LocksetId HeldBefore = 0;
  /// Lock elements this acquire may take (points-to of the lock var).
  SmallVector<uint32_t, 2> Acquired;
  /// The lock region this acquire opens (matches AccessEvent::LockRegion).
  uint32_t Region = 0;
  /// Accesses walked while this region was the innermost, stored or not.
  uint32_t NumAccesses = 0;
};

/// One abstract thread (origin instance).
struct ThreadInfo {
  unsigned Id = 0;
  OriginKind Kind = OriginKind::Main;
  const Function *Entry = nullptr;
  Ctx EntryCtx = 0;
  const SpawnStmt *Spawn = nullptr; ///< Creating spawn; null for main.
  unsigned RecvObj = ~0u;           ///< Receiver (origin) object; ~0u main.
  unsigned Dup = 0;                 ///< Loop-duplication index.
  uint32_t NumEvents = 0;           ///< Total positions in the trace.
  uint32_t NumAccesses = 0;         ///< Accesses walked, stored or not.
  bool Truncated = false;           ///< Event cap hit.

  /// Inter-thread edges. Starts: (parent thread, parent position) pairs
  /// whose spawn begins this thread. SpawnEdges: (position, child) pairs
  /// for spawns performed by this thread. Joins: (joining thread,
  /// position) pairs this thread's end is ordered before.
  std::vector<std::pair<unsigned, uint32_t>> Starts;
  std::vector<std::pair<uint32_t, unsigned>> SpawnEdges;
  std::vector<std::pair<unsigned, uint32_t>> Joins;

  /// Stored accesses in trace order (see buildSHBGraph's \p OSA).
  std::vector<AccessEvent> Accesses;
  std::vector<AcquireEvent> Acquires;
};

class SHBGraph {
public:
  const std::vector<ThreadInfo> &threads() const { return Threads; }
  const ThreadInfo &thread(unsigned Id) const { return Threads[Id]; }
  unsigned numThreads() const { return static_cast<unsigned>(Threads.size()); }

  /// Total number of accesses walked across all threads, including those
  /// an OSA filter did not store.
  uint64_t numAccessEvents() const;

  /// Lock elements (object IDs; may include the implicit UI-lock element)
  /// of a canonical lockset.
  ArrayRef<uint32_t> locksetElems(LocksetId L) const {
    return Locksets.get(L);
  }

  /// Number of interned canonical locksets (valid LocksetIds are
  /// [0, numLocksets()); 0 is the empty lockset).
  size_t numLocksets() const { return Locksets.size(); }

  /// True if the two locksets share a lock (optimization 2: a bit-matrix
  /// lookup when the interned universe is small, the sorted merge of
  /// locksetsIntersectUncached otherwise).
  bool locksetsIntersect(LocksetId A, LocksetId B) const;

  /// The same test as a merge of the sorted element lists, without the
  /// matrix (the baseline the paper's optimization is measured against).
  bool locksetsIntersectUncached(LocksetId A, LocksetId B) const;

  /// Sentinel for "no position of that thread is reachable".
  static constexpr uint32_t Unreached = ~uint32_t(0);

  /// Segment of position \p P within thread \p T: the number of spawn
  /// edges of T strictly before P (O(log #spawns of T)).
  unsigned segmentOf(unsigned T, uint32_t P) const;

  /// Dense row id of (thread \p T, segment \p Seg), for reach().
  unsigned rowOf(unsigned T, unsigned Seg) const { return RowBase[T] + Seg; }

  /// Earliest position of thread \p T2 ordered after any position in the
  /// segment of row \p Row; Unreached when no path exists (O(1)).
  uint32_t reach(unsigned Row, unsigned T2) const {
    return Reach[size_t(Row) * Threads.size() + T2];
  }

  /// Total number of (thread, segment) rows; 0 for a cancelled build,
  /// which skips the query tables.
  size_t numSegments() const {
    return Threads.empty() ? 0 : Reach.size() / Threads.size();
  }

  /// Happens-before between position \p P1 of thread \p T1 and position
  /// \p P2 of thread \p T2, via integer comparison intra-thread and one
  /// reachability-row lookup across threads. Needs an uncancelled graph.
  bool happensBefore(unsigned T1, uint32_t P1, unsigned T2,
                     uint32_t P2) const;

  /// Reference implementation: breadth-first search over individual
  /// (thread, position) nodes, the way a straw-man SHB traversal would.
  /// Semantically identical to happensBefore(); used as the soundness
  /// oracle and the D4-style baseline.
  bool happensBeforeNaive(unsigned T1, uint32_t P1, unsigned T2,
                          uint32_t P2) const;

  /// The implicit lock element serializing event handlers.
  static constexpr uint32_t UILockElem = 0xfffffffeu;

  /// True if construction was cancelled (the graph covers a prefix of the
  /// threads/events).
  bool cancelled() const { return Cancelled; }

  /// True if the module has no main() entry point: the graph is empty
  /// (no threads — nothing executes, so no races). The verifier catches
  /// this up front; the flag exists for callers that skip verification.
  bool entryMissing() const { return EntryMissing; }

private:
  friend class SHBBuilder;

  bool Cancelled = false;
  bool EntryMissing = false;
  std::vector<ThreadInfo> Threads;
  InternTable Locksets;
  /// Per thread: the row id of its first segment.
  std::vector<unsigned> RowBase;
  /// numSegments() x numThreads() matrix of earliest reachable positions.
  std::vector<uint32_t> Reach;
  /// numLocksets() x numLocksets() intersection bits; empty when the
  /// universe is too large for a quadratic matrix.
  std::vector<uint64_t> LocksetBits;

  /// Builds Reach and LocksetBits once the threads are final.
  void buildQueryTables();
};

/// Builds the SHB graph from a pointer-analysis result. Given \p OSA,
/// runSharingAnalysis's result for \p PTA, it stores an AccessEvent only
/// for an entry OSA flags (sharedAccesses()), since no other can race;
/// null stores every access. \p Cancel is polled per traced statement;
/// on expiry the builder stops and flags the partial graph.
SHBGraph buildSHBGraph(const PTAResult &PTA, const SHBOptions &Opts = {},
                       const SharingResult *OSA = nullptr,
                       const CancellationToken *Cancel = nullptr);

/// Graphviz dump of the thread/spawn/join structure (one node per
/// abstract thread; spawn edges solid, join edges dashed).
void printSHBDot(const SHBGraph &SHB, OutputStream &OS);

} // namespace o2

#endif // O2_SHB_SHBGRAPH_H
