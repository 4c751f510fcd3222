//===- bench_table5_pta.cpp - Table 5 (left): pointer-analysis times ----------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Regenerates the left half of Table 5: for every JVM/Android/distributed
// profile, the pointer-analysis wall time of 0-ctx, OPA (1-origin),
// 1-CFA, 2-CFA, 1-obj, and 2-obj, plus the number of origins (#O).
// Expected shape: OPA within a small factor of 0-ctx and comparable to
// 1-CFA; 2-CFA/1-obj/2-obj orders of magnitude slower or hitting the
// budget (the ">4h" analogue).
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

using namespace o2;
using namespace o2bench;

static void BM_PointerAnalysis(benchmark::State &State,
                               const std::string &ProfileName,
                               PTAOptions Opts) {
  auto M = generateWorkload(profileNamed(ProfileName));
  for (auto _ : State) {
    auto R = runPointerAnalysis(*M, Opts);
    State.counters["origins"] =
        static_cast<double>(R->stats().get("pta.origins"));
    State.counters["nodes"] =
        static_cast<double>(R->stats().get("pta.pointer-nodes"));
    State.counters["budget_hit"] = R->hitBudget() ? 1 : 0;
    benchmark::DoNotOptimize(R);
  }
}

int main(int Argc, char **Argv) {
  std::vector<std::string> Profiles;
  for (const std::string &P : dacapoProfiles())
    Profiles.push_back(P);
  for (const std::string &P : androidProfiles())
    Profiles.push_back(P);
  for (const std::string &P : distributedProfiles())
    Profiles.push_back(P);

  for (const std::string &Profile : Profiles)
    for (const auto &[CfgName, Opts] : pointerAnalysisConfigs())
      benchmark::RegisterBenchmark(
          ("table5_pta/" + Profile + "/" + CfgName).c_str(),
          BM_PointerAnalysis, Profile, Opts)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);

  return runBenchmarks(
      Argc, Argv,
      "Table 5 (left): pointer-analysis time per benchmark and context "
      "abstraction; counters: #origins, #nodes, budget_hit (paper's '>4h')");
}
