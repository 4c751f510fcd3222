//===- bench_table10_bugs.cpp - Table 10: confirmed real-world races ------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 10 over the bug-model programs: for every modeled
// code base, the number of races O2 finds (counter "found" must equal
// "expected"), whether the bug needs the thread<->event unification
// (counter "thread_event"), and what the RacerD-like baseline reports on
// the same program. Expected shape: O2 finds every modeled bug;
// RacerD-like floods the thread<->event cases with name-level warnings
// or (without alias reasoning) misses the object-level distinction.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "o2/Race/RacerDLike.h"
#include "o2/Workload/BugModels.h"

using namespace o2;
using namespace o2bench;

static void BM_BugModel(benchmark::State &State, const BugModel *Model) {
  auto M = buildBugModel(*Model);
  for (auto _ : State) {
    AnalysisManager AM(*M);
    AM.run(AnalysisSet::defaultSet());
    State.counters["found"] = AM.getRaces().numRaces();
    State.counters["expected"] = Model->ExpectedRaces;
    State.counters["thread_event"] = Model->ThreadEventInteraction ? 1 : 0;
    RacerDReport RacerD = runRacerDLike(*M);
    State.counters["racerd"] = RacerD.numPotentialRaces();
    // The Section 5.4 study shape: how much of the heap is origin-local.
    State.counters["objects"] =
        static_cast<double>(AM.getPTA().objects().size());
    const SharingResult &Sharing = AM.getSharing();
    State.counters["s_obj"] = Sharing.numSharedObjects();
    State.counters["accesses"] = Sharing.numAccessStmts();
    State.counters["s_access"] = Sharing.numSharedAccessStmts();
    benchmark::DoNotOptimize(AM);
  }
}

int main(int Argc, char **Argv) {
  for (const BugModel &Model : bugModels())
    benchmark::RegisterBenchmark(("table10_bugs/" + Model.Name).c_str(),
                                 BM_BugModel, &Model)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);

  return runBenchmarks(
      Argc, Argv,
      "Table 10: new races found by O2 in the modeled code bases "
      "(found == expected per model; racerd = baseline warnings)");
}
