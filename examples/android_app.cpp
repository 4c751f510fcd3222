//===- android_app.cpp - event-driven app analysis ---------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Analyzes an Android-app-shaped workload (many event-handler origins,
// a few background threads) and demonstrates the Section 4.2 treatment:
// event handlers all run on the looper thread, so O2 serializes them
// with an implicit global lock — handler/handler pairs are not reported,
// while thread/handler pairs still are. Toggling the treatment off shows
// how many false handler/handler warnings it suppresses.
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"
#include "o2/Support/OutputStream.h"
#include "o2/Workload/BugModels.h"
#include "o2/Workload/Generator.h"

using namespace o2;

static unsigned countKindPairs(AnalysisManager &AM, OriginKind K1,
                               OriginKind K2) {
  unsigned N = 0;
  const SHBGraph &SHB = AM.getSHB();
  for (const Race &R : AM.getRaces().races()) {
    OriginKind KA = SHB.thread(R.ThreadA).Kind;
    OriginKind KB = SHB.thread(R.ThreadB).Kind;
    if ((KA == K1 && KB == K2) || (KA == K2 && KB == K1))
      ++N;
  }
  return N;
}

int main() {
  // An app with 6 handlers and 2 background threads sharing state.
  WorkloadProfile P;
  P.Name = "android-demo";
  P.NumThreads = 2;
  P.NumEventHandlers = 6;
  P.RacyObjects = 2;
  P.UnprotectedWritesPerOrigin = 2;
  P.Seed = 2024;
  auto M = generateWorkload(P);

  outs() << "=== with the looper serialization of Section 4.2 ===\n";
  AnalysisManager A(*M);
  A.run(AnalysisSet::defaultSet());
  outs() << "races:                 " << A.getRaces().numRaces() << '\n';
  outs() << "thread/handler races:  "
         << countKindPairs(A, OriginKind::Thread, OriginKind::Event) << '\n';
  outs() << "handler/handler races: "
         << countKindPairs(A, OriginKind::Event, OriginKind::Event) << '\n';

  outs() << "\n=== treating handlers as free-running threads ===\n";
  O2Config Parallel;
  Parallel.SHB.SerializeEventHandlers = false;
  AnalysisManager B(*M, Parallel);
  B.run(AnalysisSet::defaultSet());
  outs() << "races:                 " << B.getRaces().numRaces() << '\n';
  outs() << "thread/handler races:  "
         << countKindPairs(B, OriginKind::Thread, OriginKind::Event) << '\n';
  outs() << "handler/handler races: "
         << countKindPairs(B, OriginKind::Event, OriginKind::Event) << '\n';
  outs() << "\nfalse handler/handler warnings suppressed by Section 4.2: "
         << (B.getRaces().numRaces() - A.getRaces().numRaces()) << '\n';

  // The Firefox Focus bug shows the treatment does not hide real
  // thread<->event races.
  outs() << "\n=== Firefox Focus app-context bug (Bug-1581940) ===\n";
  const BugModel *Firefox = findBugModel("firefox_appctx");
  auto FM = buildBugModel(*Firefox);
  AnalysisManager F(*FM);
  F.run(AnalysisSet::defaultSet());
  JobResult R;
  R.Name = Firefox->Name;
  R.Analyses = AnalysisSet::defaultSet();
  recordJob(F, R);
  printJobText(R, outs());
  return 0;
}
