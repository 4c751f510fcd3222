//===- o2/Analysis/AnalysisManager.h - Typed pass manager ---------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass manager that runs the PTA→OSA→SHB→Detect pipeline, and the
/// one place that wires it. Every analysis the repo grows — the paper's
/// core phases plus the sibling consumers (deadlock,
/// over-synchronization, the RacerD-like baseline, the thread-escape
/// baseline) — is a registered pass with a typed result, declared
/// dependencies, a version, and a deterministic config fingerprint. The
/// manager:
///
///  - topologically schedules the requested passes (dependencies always
///    precede dependents; the order is the enum order),
///  - computes each result **once** per module and hands it to every
///    consumer (one PTA and one SHB graph, with the happens-before and
///    lockset tables built into it, feed race + deadlock + over-sync, and
///    one sharing table, OSA's under OPA and the SHB threads' otherwise,
///    feeds race + over-sync; OSA's result also filters SHB),
///  - passes its CancellationToken to every pass (each entry point takes
///    its inputs, its options, then the token) and records the pass it
///    fired in, so a timeout in *any* analysis names the real phase,
///  - exposes per-pass wall-clock seconds, invocation counters and the
///    merged per-pass statistics, and
///  - derives a per-pass / whole-request config fingerprint (every option
///    field, pass versions, dependency fingerprints) that the batch
///    driver's warm cache keys on.
///
/// \code
///   std::unique_ptr<Module> M = parseModule(Source, Err);
///   CancellationToken Deadline;
///   Deadline.setDeadlineMs(5000);
///   AnalysisManager AM(*M, O2Config(), &Deadline);
///   AM.run(AnalysisSet::defaultSet()); // OPA + OSA + SHB + detector
///   const RaceReport &Races = AM.getRaces();
///   const DeadlockReport &Cycles = AM.getDeadlocks(); // same PTA, SHB
/// \endcode
///
/// The manager renders nothing: the batch driver's recordJob turns a
/// finished manager into a JobResult, which printJobText and
/// printJobRecord print (o2/Driver/Driver.h).
///
//===----------------------------------------------------------------------===//

#ifndef O2_ANALYSIS_ANALYSISMANAGER_H
#define O2_ANALYSIS_ANALYSISMANAGER_H

#include "o2/OSA/EscapeAnalysis.h"
#include "o2/OSA/SharingAnalysis.h"
#include "o2/PTA/PointerAnalysis.h"
#include "o2/Race/DeadlockDetector.h"
#include "o2/Race/OverSync.h"
#include "o2/Race/RaceDetector.h"
#include "o2/Race/RacerDLike.h"
#include "o2/SHB/SHBGraph.h"

#include <functional>
#include <memory>
#include <string>

namespace o2 {

/// Every registered pass, in schedule order (a pass's dependencies always
/// have smaller values, so ascending enum order *is* a topological
/// order). `None` means "no pass" (e.g. "not cancelled"); it is not a
/// schedulable pass. A phase also names where an analysis was cancelled.
enum class O2Phase : uint8_t {
  None,     ///< Not a pass ("ran to completion").
  PTA,      ///< Origin-sensitive pointer analysis (paper §3.2).
  OSA,      ///< Origin-sharing analysis (paper §3.3).
  SHB,      ///< SHB graph construction and its query tables (paper §4).
  Detect,   ///< The race detector (paper §4.1); reported as "race".
  Deadlock, ///< Lock-order deadlock cycles.
  OverSync, ///< Over-synchronized (origin-local) lock regions.
  RacerD,   ///< The syntactic RacerD-like baseline (paper §5).
  Escape,   ///< The thread-escape baseline OSA is compared against.
};

/// Passes are phases: the batch driver's `"phase":` timeout field and the
/// manager's scheduling both speak O2Phase.
using AnalysisKind = O2Phase;

inline constexpr unsigned NumO2Phases = 9;

/// Short stable name of \p P: "pta", "osa", "shb", "race",
/// "deadlock", "oversync", "racerd", "escape" ("" for None). These are
/// also the `--analyses=` spelling of each pass.
const char *phaseName(O2Phase P);

/// A small set of passes. Requesting a pass implicitly requests its
/// dependency closure; the set only records what was asked for.
class AnalysisSet {
public:
  AnalysisSet() = default;
  AnalysisSet(std::initializer_list<O2Phase> Kinds) {
    for (O2Phase K : Kinds)
      insert(K);
  }

  void insert(O2Phase K) { Bits |= maskOf(K); }
  void erase(O2Phase K) { Bits &= ~maskOf(K); }
  bool contains(O2Phase K) const { return (Bits & maskOf(K)) != 0; }
  bool empty() const { return Bits == 0; }

  AnalysisSet &operator|=(AnalysisSet RHS) {
    Bits |= RHS.Bits;
    return *this;
  }
  bool operator==(const AnalysisSet &RHS) const { return Bits == RHS.Bits; }

  /// What `o2batch` runs when no `--analyses=` is given: OSA + the race
  /// detector (the classic pipeline).
  static AnalysisSet defaultSet() {
    return {O2Phase::OSA, O2Phase::Detect};
  }

  /// Every user-facing analysis: race, deadlock, oversync, racerd,
  /// escape, plus OSA.
  static AnalysisSet all() {
    return {O2Phase::OSA,      O2Phase::Detect, O2Phase::Deadlock,
            O2Phase::OverSync, O2Phase::RacerD, O2Phase::Escape};
  }

  /// Canonical comma-separated rendering in schedule order ("osa,race").
  std::string str() const;

private:
  static uint16_t maskOf(O2Phase K) {
    return static_cast<uint16_t>(1u << static_cast<unsigned>(K));
  }
  uint16_t Bits = 0;
};

/// Parses a comma-separated `--analyses=` list ("race,deadlock,oversync",
/// "all", or any phaseName including the infrastructure passes) into
/// \p Out. On failure returns false and names the bad token in \p Err.
bool parseAnalysisSet(const std::string &Spec, AnalysisSet &Out,
                      std::string &Err);

/// The pipeline's options (o2cli, the batch driver, the benchmarks). Each
/// field can change a result, so the config fingerprints hash them all.
struct O2Config {
  /// Pointer analysis configuration; defaults to 1-origin (OPA).
  PTAOptions PTA;

  /// SHB graph construction, shared by race, deadlock and over-sync.
  SHBOptions SHB;

  /// Detector configuration (all three optimizations on by default).
  RaceDetectorOptions Detector;
};

/// Deterministic fingerprint of the configuration as seen by pass \p K:
/// a hash of the options the pass reads, the pass version, and the
/// fingerprints of its dependencies.
uint64_t passFingerprint(O2Phase K, const O2Config &Config);

/// Fingerprint of a whole request: the fold of passFingerprint over the
/// dependency closure of \p Set in schedule order. Two (module, request)
/// pairs with equal content hash and equal request fingerprints produce
/// byte-identical reports — this is the warm cache's key.
uint64_t analysisSetFingerprint(AnalysisSet Set, const O2Config &Config);

/// One module's analysis session: computes requested passes at most once
/// each and hands out the shared typed results. Not thread-safe — one
/// manager per job (the batch driver gives every job its own).
class AnalysisManager {
public:
  /// \p Cancel (not owned) is polled in every pass's hot loop; once it
  /// fires, later passes are skipped (cancelledIn()). \p OnPassStart is
  /// called with each pass before its body runs, so that a crash mid-pass
  /// can name the pass (the isolated worker's progress markers).
  explicit AnalysisManager(const Module &M, const O2Config &Config = {},
                           const CancellationToken *Cancel = nullptr,
                           std::function<void(O2Phase)> OnPassStart = {});
  ~AnalysisManager();

  AnalysisManager(const AnalysisManager &) = delete;
  AnalysisManager &operator=(const AnalysisManager &) = delete;

  const Module &module() const { return M; }
  const O2Config &config() const { return Config; }

  /// Runs every pass in \p Set (plus dependencies, in schedule order)
  /// that has not run yet. Stops scheduling as soon as a pass reports
  /// cancellation. Returns true if everything requested completed.
  bool run(AnalysisSet Set);

  /// Typed accessors. Each computes the pass (and its dependency closure)
  /// on first use; afterwards it returns the shared result. After a
  /// cancellation, un-run passes return their default-constructed result
  /// — check cancelled() first when that matters.
  const PTAResult &getPTA();
  const SharingResult &getSharing();
  const SHBGraph &getSHB();
  const RaceReport &getRaces();
  const DeadlockReport &getDeadlocks();
  const OverSyncReport &getOverSync();
  const RacerDReport &getRacerD();
  const EscapeResult &getEscape();

  /// True once pass \p K has produced its result.
  bool ran(O2Phase K) const;

  /// Times pass \p K ran (0 or 1 — the whole point of the manager; the
  /// AnalysisManagerTest asserts the sharing contract through this).
  unsigned invocations(O2Phase K) const;

  /// Wall-clock seconds pass \p K took (0.0 if it never ran).
  double seconds(O2Phase K) const;

  /// Sum of every ran pass's seconds, aux analyses included.
  double totalSeconds() const;

  /// The pass the cancellation token fired in; None if no pass was cut
  /// short. Passes after the cancelled one are skipped.
  O2Phase cancelledIn() const { return CancelledIn; }
  bool cancelled() const { return CancelledIn != O2Phase::None; }

  /// Per-pass config fingerprint (see passFingerprint).
  uint64_t fingerprint(O2Phase K) const {
    return passFingerprint(K, Config);
  }

  /// Every counter the ran passes produced, merged: pta.*, osa.*,
  /// race.*, deadlock.*, oversync.*, racerd.*, escape.*.
  StatisticRegistry stats() const;

private:
  struct Impl;

  /// Ensures pass \p K and its dependencies have run (unless cancelled).
  void ensure(O2Phase K);
  void runPass(O2Phase K);

  const Module &M;
  O2Config Config;
  const CancellationToken *Cancel;
  std::function<void(O2Phase)> OnPassStart;
  O2Phase CancelledIn = O2Phase::None;
  std::unique_ptr<Impl> P;
};

} // namespace o2

#endif // O2_ANALYSIS_ANALYSISMANAGER_H
