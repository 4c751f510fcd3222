//===- bench_ablation_opts.cpp - Section 4.1 optimization ablation --------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Ablates the three sound optimizations of Section 4.1 on a large
// lock-heavy workload: integer-ID happens-before, canonical lockset IDs
// with caching, and lock-region merging. Counters report the detector's
// internal work (pairs checked, HB queries, lockset checks) so the
// mechanism behind each speedup is visible, and "races" shows that the
// verdicts do not degrade. buildSHBGraph builds the happens-before rows
// and the lockset matrix with the graph, outside the timed loop, so each
// line times the scan alone. The first line is the scan the tools run.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

using namespace o2;
using namespace o2bench;

static void BM_Ablation(benchmark::State &State, RaceDetectorOptions Opts) {
  auto M = generateWorkload(ablationProfile());
  PTAOptions PTAOpts;
  PTAOpts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, PTAOpts);
  SHBGraph SHB = buildSHBGraph(*PTA);
  SharingResult Sharing = runSharingAnalysis(*PTA);
  for (auto _ : State) {
    RaceReport R = detectRaces(*PTA, SHB, Sharing, Opts);
    State.counters["races"] = R.numRaces();
    State.counters["pairs"] =
        static_cast<double>(R.stats().get("race.pairs-checked"));
    State.counters["hb_queries"] =
        static_cast<double>(R.stats().get("race.hb-queries"));
    State.counters["lockset_checks"] =
        static_cast<double>(R.stats().get("race.lockset-checks"));
    State.counters["merged"] =
        static_cast<double>(R.stats().get("race.merged-accesses"));
    benchmark::DoNotOptimize(R);
  }
}

int main(int Argc, char **Argv) {
  auto Register = [](const char *Name, bool HB, bool Lockset, bool Merge) {
    RaceDetectorOptions Opts;
    Opts.HB = HB ? RaceHBKind::Index : RaceHBKind::Naive;
    Opts.CacheLocksetChecks = Lockset;
    Opts.LockRegionMerging = Merge;
    benchmark::RegisterBenchmark(Name, BM_Ablation, Opts)
        ->Unit(benchmark::kMillisecond);
  };
  Register("ablation/all-optimizations", true, true, true);
  Register("ablation/no-integer-hb", false, true, true);
  Register("ablation/no-lockset-cache", true, false, true);
  Register("ablation/no-region-merging", true, true, false);
  Register("ablation/none(D4-style)", false, false, false);

  return runBenchmarks(
      Argc, Argv,
      "Section 4.1 ablation: detector time and internal work with each "
      "optimization disabled (race verdicts stay equivalent)");
}
