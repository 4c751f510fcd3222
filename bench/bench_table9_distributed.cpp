//===- bench_table9_distributed.cpp - Table 9: distributed systems -------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 9: for the HBase/HDFS/Yarn/ZooKeeper profiles, the
// number of races reported by O2 and by the RacerD-like baseline, and
// the number of thread-shared objects (#S-obj) under 0-ctx, 1-CFA,
// 2-CFA, and O2. Expected shape: O2's #S-obj is the smallest — the
// reduced workload behind the paper's 57%–53x total-time speedups.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "o2/Race/RacerDLike.h"

using namespace o2;
using namespace o2bench;

static void BM_DistributedRaces(benchmark::State &State,
                                const std::string &ProfileName,
                                PTAOptions Opts) {
  auto M = generateWorkload(profileNamed(ProfileName));
  for (auto _ : State) {
    O2Config Config;
    Config.PTA = Opts;
    AnalysisManager AM(*M, Config);
    const RaceReport &R = AM.getRaces();
    State.counters["races"] = R.numRaces();
    State.counters["s_obj"] =
        static_cast<double>(R.stats().get("race.shared-objects"));
    State.counters["budget_hit"] = AM.getPTA().hitBudget() ? 1 : 0;
    benchmark::DoNotOptimize(R);
  }
}

static void BM_DistributedRacerD(benchmark::State &State,
                                 const std::string &ProfileName) {
  auto M = generateWorkload(profileNamed(ProfileName));
  for (auto _ : State) {
    RacerDReport R = runRacerDLike(*M);
    State.counters["races"] = R.numPotentialRaces();
    benchmark::DoNotOptimize(R);
  }
}

int main(int Argc, char **Argv) {
  for (const std::string &Profile : distributedProfiles()) {
    for (const auto &[CfgName, Opts] : pointerAnalysisConfigs()) {
      if (CfgName == "1-obj" || CfgName == "2-obj")
        continue; // the paper's Table 9 compares 0-ctx/1-CFA/2-CFA/O2
      std::string Label = CfgName == "1-origin" ? "O2" : CfgName;
      benchmark::RegisterBenchmark(
          ("table9_distributed/" + Profile + "/" + Label).c_str(),
          BM_DistributedRaces, Profile, Opts)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(
        ("table9_distributed/" + Profile + "/racerd").c_str(),
        BM_DistributedRacerD, Profile)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  return runBenchmarks(
      Argc, Argv,
      "Table 9: distributed systems — #races (O2 vs RacerD-like) and "
      "#thread-shared objects (s_obj) per pointer analysis");
}
