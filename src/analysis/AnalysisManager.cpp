//===- AnalysisManager.cpp - Typed pass manager -------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Analysis/AnalysisManager.h"

#include "o2/Support/FNV1a.h"
#include "o2/Support/FaultInjector.h"
#include "o2/Support/Timer.h"

#include <array>
#include <optional>

using namespace o2;

const char *o2::phaseName(O2Phase P) {
  switch (P) {
  case O2Phase::None:
    return "";
  case O2Phase::PTA:
    return "pta";
  case O2Phase::OSA:
    return "osa";
  case O2Phase::SHB:
    return "shb";
  case O2Phase::Detect:
    return "race";
  case O2Phase::Deadlock:
    return "deadlock";
  case O2Phase::OverSync:
    return "oversync";
  case O2Phase::RacerD:
    return "racerd";
  case O2Phase::Escape:
    return "escape";
  }
  return "";
}

//===----------------------------------------------------------------------===//
// Pass registry: dependencies and versions
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned idx(O2Phase K) { return static_cast<unsigned>(K); }

/// Bump a pass's version whenever its result or serialized report format
/// changes; the warm cache folds versions into its key, so a bump turns
/// stale entries into misses instead of wrong replays.
constexpr std::array<uint32_t, NumO2Phases> PassVersion = {
    /*None=*/0,   /*PTA=*/2,      /*OSA=*/1,      /*SHB=*/2,
    /*Detect=*/2, /*Deadlock=*/1, /*OverSync=*/2, /*RacerD=*/1,
    /*Escape=*/1,
};

/// Declared dependencies of pass \p K. Every dependency has a smaller
/// enum value, so ascending enum order is a topological schedule.
SmallVector<O2Phase, 3> depsOf(O2Phase K) {
  switch (K) {
  case O2Phase::None:
  case O2Phase::PTA:
  case O2Phase::RacerD:
    return {};
  case O2Phase::OSA:
  case O2Phase::Escape:
    return {O2Phase::PTA};
  case O2Phase::SHB:
    // Under OPA, SHB stores only the accesses OSA calls shared.
    return {O2Phase::PTA, O2Phase::OSA};
  case O2Phase::Deadlock:
    return {O2Phase::PTA, O2Phase::SHB};
  case O2Phase::Detect:
  case O2Phase::OverSync:
    return {O2Phase::PTA, O2Phase::OSA, O2Phase::SHB};
  }
  return {};
}

/// Fingerprint of the options pass \p K itself consumes (no deps).
uint64_t localFingerprint(O2Phase K, const O2Config &Config) {
  uint64_t H = fnv1aField(phaseName(K));
  H = fnv1aU64(PassVersion[idx(K)], H);
  switch (K) {
  case O2Phase::PTA: {
    const PTAOptions &O = Config.PTA;
    H = fnv1aU64(static_cast<uint64_t>(O.Kind), H);
    H = fnv1aU64(O.K, H);
    H = fnv1aU64(O.NodeBudget, H);
    for (const auto &[Name, Kind] : O.Spec.entries()) {
      H = fnv1aField(Name, H);
      H = fnv1aU64(static_cast<uint64_t>(Kind), H);
    }
    return H;
  }
  case O2Phase::SHB: {
    const SHBOptions &O = Config.SHB;
    H = fnv1aU64(O.SerializeEventHandlers, H);
    H = fnv1aU64(O.MaxThreads, H);
    H = fnv1aU64(O.MaxEventsPerThread, H);
    return H;
  }
  case O2Phase::Detect: {
    const RaceDetectorOptions &O = Config.Detector;
    // HB selection changes the "race.hb-index-segments" counter.
    H = fnv1aU64(static_cast<uint64_t>(O.HB), H);
    H = fnv1aU64(O.CacheLocksetChecks, H);
    H = fnv1aU64(O.LockRegionMerging, H);
    H = fnv1aU64(O.MaxPairChecks, H);
    return H;
  }
  case O2Phase::None:
  case O2Phase::OSA:
  case O2Phase::Deadlock:
  case O2Phase::OverSync:
  case O2Phase::RacerD:
  case O2Phase::Escape:
    // Result fully determined by the module and the dependencies.
    return H;
  }
  return H;
}

/// Dependency closure of \p Set as a per-pass bool mask.
std::array<bool, NumO2Phases> closureOf(AnalysisSet Set) {
  std::array<bool, NumO2Phases> In{};
  for (unsigned K = 0; K < NumO2Phases; ++K)
    if (Set.contains(static_cast<O2Phase>(K)))
      In[K] = true;
  // Deps have smaller values: one descending sweep closes the set.
  for (unsigned K = NumO2Phases; K-- > 1;)
    if (In[K])
      for (O2Phase D : depsOf(static_cast<O2Phase>(K)))
        In[idx(D)] = true;
  In[idx(O2Phase::None)] = false;
  return In;
}

} // namespace

std::string AnalysisSet::str() const {
  std::string Out;
  for (unsigned K = 1; K < NumO2Phases; ++K)
    if (contains(static_cast<O2Phase>(K))) {
      if (!Out.empty())
        Out += ',';
      Out += phaseName(static_cast<O2Phase>(K));
    }
  return Out;
}

bool o2::parseAnalysisSet(const std::string &Spec, AnalysisSet &Out,
                          std::string &Err) {
  AnalysisSet Result;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Tok = Spec.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Tok.empty())
      continue;
    if (Tok == "all") {
      Result |= AnalysisSet::all();
      continue;
    }
    bool Found = false;
    for (unsigned K = 1; K < NumO2Phases; ++K)
      if (Tok == phaseName(static_cast<O2Phase>(K))) {
        Result.insert(static_cast<O2Phase>(K));
        Found = true;
        break;
      }
    if (!Found) {
      Err = "unknown analysis '" + Tok + "'";
      return false;
    }
  }
  if (Result.empty()) {
    Err = "empty analysis set";
    return false;
  }
  Out = Result;
  return true;
}

uint64_t o2::passFingerprint(O2Phase K, const O2Config &Config) {
  uint64_t H = localFingerprint(K, Config);
  for (O2Phase D : depsOf(K))
    H = fnv1aU64(passFingerprint(D, Config), H);
  return H;
}

uint64_t o2::analysisSetFingerprint(AnalysisSet Set, const O2Config &Config) {
  std::array<bool, NumO2Phases> In = closureOf(Set);
  uint64_t H = FingerprintBasis;
  for (unsigned K = 1; K < NumO2Phases; ++K)
    if (In[K])
      H = fnv1aU64(passFingerprint(static_cast<O2Phase>(K), Config), H);
  return H;
}

//===----------------------------------------------------------------------===//
// The manager
//===----------------------------------------------------------------------===//

struct AnalysisManager::Impl {
  std::unique_ptr<PTAResult> PTA;
  SharingResult Sharing;
  SHBGraph SHB;
  RaceReport Races;
  DeadlockReport Deadlocks;
  OverSyncReport OverSyncR;
  RacerDReport RacerDR;
  EscapeResult EscapeR;

  std::array<bool, NumO2Phases> Ran{};
  std::array<unsigned, NumO2Phases> Invocations{};
  std::array<double, NumO2Phases> Seconds{};

  /// The sharing table the race and over-sync passes read, picked here
  /// and nowhere else: OSA's under OPA, as in the paper; under the other
  /// context kinds, which have no origins, the SHB threads' table, built
  /// on first use. getSharing() stays OSA's.
  std::optional<SharingResult> ThreadSharing;
  const SharingResult &sharingTable(const CancellationToken *Cancel) {
    if (sharingFromOSA(*PTA))
      return Sharing;
    if (!ThreadSharing)
      ThreadSharing = runThreadSharing(SHB, Cancel);
    return *ThreadSharing;
  }
};

AnalysisManager::AnalysisManager(const Module &M, const O2Config &Config,
                                 const CancellationToken *Cancel,
                                 std::function<void(O2Phase)> OnPassStart)
    : M(M), Config(Config), Cancel(Cancel),
      OnPassStart(std::move(OnPassStart)), P(std::make_unique<Impl>()) {}

AnalysisManager::~AnalysisManager() = default;

bool AnalysisManager::run(AnalysisSet Set) {
  std::array<bool, NumO2Phases> In = closureOf(Set);
  for (unsigned K = 1; K < NumO2Phases; ++K)
    if (In[K]) {
      if (cancelled())
        return false;
      ensure(static_cast<O2Phase>(K));
    }
  return !cancelled();
}

void AnalysisManager::ensure(O2Phase K) {
  if (P->Ran[idx(K)] || cancelled())
    return;
  for (O2Phase D : depsOf(K)) {
    ensure(D);
    if (cancelled())
      return;
  }
  runPass(K);
}

void AnalysisManager::runPass(O2Phase K) {
  if (K == O2Phase::None)
    return;
  // Announce the pass before anything (including an injected fault) can
  // kill it, so crash records name the right phase.
  if (OnPassStart)
    OnPassStart(K);
  {
    // "pass.pta" ... "pass.escape": one named fault point per pass.
    static const std::array<const char *, NumO2Phases> FaultPoint = {
        "",         "pass.pta",      "pass.osa",      "pass.shb",
        "pass.race", "pass.deadlock", "pass.oversync", "pass.racerd",
        "pass.escape",
    };
    FaultInjector::hit(FaultPoint[idx(K)]);
  }
  ++P->Invocations[idx(K)];
  Timer T;
  bool PassCancelled = false;
  switch (K) {
  case O2Phase::None:
    return;
  case O2Phase::PTA:
    P->PTA = runPointerAnalysis(M, Config.PTA, Cancel);
    PassCancelled = P->PTA->cancelled();
    break;
  case O2Phase::OSA:
    // OSA is origin-specific: elsewhere the pass is a no-op, and race and
    // over-sync read the SHB threads' table (Impl::sharingTable).
    if (sharingFromOSA(*P->PTA)) {
      P->Sharing = runSharingAnalysis(*P->PTA, Cancel);
      PassCancelled = P->Sharing.cancelled();
    }
    break;
  case O2Phase::SHB:
    // Under OPA, SHB stores only the accesses OSA calls shared.
    P->SHB = buildSHBGraph(*P->PTA, Config.SHB,
                           sharingFromOSA(*P->PTA) ? &P->Sharing : nullptr,
                           Cancel);
    PassCancelled = P->SHB.cancelled();
    break;
  case O2Phase::Detect:
    P->Races = detectRaces(*P->PTA, P->SHB, P->sharingTable(Cancel),
                           Config.Detector, Cancel);
    PassCancelled = P->Races.cancelled();
    break;
  case O2Phase::Deadlock:
    P->Deadlocks = detectDeadlocks(*P->PTA, P->SHB, Cancel);
    PassCancelled = P->Deadlocks.cancelled();
    break;
  case O2Phase::OverSync:
    P->OverSyncR =
        detectOverSynchronization(P->sharingTable(Cancel), P->SHB, Cancel);
    PassCancelled = P->OverSyncR.cancelled();
    break;
  case O2Phase::RacerD:
    P->RacerDR = runRacerDLike(M, Cancel);
    PassCancelled = P->RacerDR.cancelled();
    break;
  case O2Phase::Escape:
    P->EscapeR = runEscapeAnalysis(*P->PTA, Cancel);
    PassCancelled = P->EscapeR.cancelled();
    break;
  }
  P->Seconds[idx(K)] += T.seconds();
  P->Ran[idx(K)] = true;
  if (PassCancelled)
    CancelledIn = K;
}

const PTAResult &AnalysisManager::getPTA() {
  ensure(O2Phase::PTA);
  return *P->PTA;
}

const SharingResult &AnalysisManager::getSharing() {
  ensure(O2Phase::OSA);
  return P->Sharing;
}

const SHBGraph &AnalysisManager::getSHB() {
  ensure(O2Phase::SHB);
  return P->SHB;
}

const RaceReport &AnalysisManager::getRaces() {
  ensure(O2Phase::Detect);
  return P->Races;
}

const DeadlockReport &AnalysisManager::getDeadlocks() {
  ensure(O2Phase::Deadlock);
  return P->Deadlocks;
}

const OverSyncReport &AnalysisManager::getOverSync() {
  ensure(O2Phase::OverSync);
  return P->OverSyncR;
}

const RacerDReport &AnalysisManager::getRacerD() {
  ensure(O2Phase::RacerD);
  return P->RacerDR;
}

const EscapeResult &AnalysisManager::getEscape() {
  ensure(O2Phase::Escape);
  return P->EscapeR;
}

bool AnalysisManager::ran(O2Phase K) const { return P->Ran[idx(K)]; }

unsigned AnalysisManager::invocations(O2Phase K) const {
  return P->Invocations[idx(K)];
}

double AnalysisManager::seconds(O2Phase K) const { return P->Seconds[idx(K)]; }

double AnalysisManager::totalSeconds() const {
  double Total = 0;
  for (unsigned K = 1; K < NumO2Phases; ++K)
    Total += P->Seconds[K];
  return Total;
}

StatisticRegistry AnalysisManager::stats() const {
  StatisticRegistry Stats;
  if (P->Ran[idx(O2Phase::PTA)])
    Stats.merge(P->PTA->stats());
  if (P->Ran[idx(O2Phase::OSA)]) {
    Stats.set("osa.shared-locations", P->Sharing.sharedLocations().size());
    Stats.set("osa.shared-objects", P->Sharing.numSharedObjects());
    Stats.set("osa.shared-accesses", P->Sharing.numSharedAccessStmts());
    Stats.set("osa.access-stmts", P->Sharing.numAccessStmts());
  }
  if (P->Ran[idx(O2Phase::Detect)])
    Stats.merge(P->Races.stats());
  if (P->Ran[idx(O2Phase::Deadlock)]) {
    Stats.set("deadlock.cycles", P->Deadlocks.numDeadlocks());
    Stats.set("deadlock.order-edges", P->Deadlocks.edges().size());
  }
  if (P->Ran[idx(O2Phase::OverSync)]) {
    Stats.set("oversync.regions", P->OverSyncR.numRegions());
    Stats.set("oversync.regions-checked", P->OverSyncR.numRegionsChecked());
  }
  if (P->Ran[idx(O2Phase::RacerD)]) {
    Stats.set("racerd.warnings", P->RacerDR.numWarnings());
    Stats.set("racerd.potential-races", P->RacerDR.numPotentialRaces());
  }
  if (P->Ran[idx(O2Phase::Escape)]) {
    Stats.set("escape.objects", P->EscapeR.numEscapedObjects());
    Stats.set("escape.shared-accesses", P->EscapeR.numSharedAccessStmts());
    Stats.set("escape.access-stmts", P->EscapeR.numAccessStmts());
  }
  return Stats;
}

