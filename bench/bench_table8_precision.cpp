//===- bench_table8_precision.cpp - Table 8: race counts per analysis ----------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 8: the number of reported races per pointer analysis
// on the DaCapo-style profiles, using race counts as the end-to-end
// precision metric, plus the RacerD-like warning counts. The reduction
// counter gives the per-row percentage relative to the 0-ctx baseline
// (the paper: O2 reduces warnings by 77% on average, 1-/2-CFA by
// 46%/60%). Expected shape: races(O2) <= races(2-cfa) <= races(1-cfa)
// <= races(0-ctx), RacerD above all of them.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "o2/Race/RacerDLike.h"

using namespace o2;
using namespace o2bench;

static unsigned racesUnder(const Module &M, PTAOptions Opts) {
  O2Config Config;
  Config.PTA = Opts;
  return AnalysisManager(M, Config).getRaces().numRaces();
}

static void BM_Precision(benchmark::State &State,
                         const std::string &ProfileName, PTAOptions Opts) {
  auto M = generateWorkload(profileNamed(ProfileName));
  PTAOptions Baseline;
  Baseline.Kind = ContextKind::Insensitive;
  unsigned BaselineRaces = racesUnder(*M, Baseline);
  for (auto _ : State) {
    unsigned Races = racesUnder(*M, Opts);
    State.counters["races"] = Races;
    State.counters["reduction_pct"] =
        BaselineRaces == 0
            ? 0.0
            : 100.0 * (1.0 - double(Races) / double(BaselineRaces));
    benchmark::DoNotOptimize(Races);
  }
}

static void BM_RacerDPrecision(benchmark::State &State,
                               const std::string &ProfileName) {
  auto M = generateWorkload(profileNamed(ProfileName));
  for (auto _ : State) {
    RacerDReport R = runRacerDLike(*M);
    State.counters["races"] = R.numPotentialRaces();
    benchmark::DoNotOptimize(R);
  }
}

int main(int Argc, char **Argv) {
  for (const std::string &Profile : dacapoProfiles()) {
    for (const auto &[CfgName, Opts] : pointerAnalysisConfigs()) {
      std::string Label = CfgName == "1-origin" ? "O2" : CfgName;
      benchmark::RegisterBenchmark(
          ("table8_precision/" + Profile + "/" + Label).c_str(),
          BM_Precision, Profile, Opts)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(
        ("table8_precision/" + Profile + "/racerd").c_str(),
        BM_RacerDPrecision, Profile)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  return runBenchmarks(
      Argc, Argv,
      "Table 8: #races per pointer analysis (precision; reduction_pct is "
      "relative to 0-ctx) and RacerD-like warning counts");
}
