//===- bench_table6_cpp.cpp - Table 6: C/C++ applications ----------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 6: for the memcached/redis/sqlite3 profiles, the
// pointer-analysis time and graph sizes (#pointer nodes, #objects,
// #edges) of 0-ctx, O2 (1-origin), and 2-CFA. Expected shape: O2 a
// moderate constant factor over 0-ctx; 2-CFA blowing up on the larger
// profiles (the paper's OOM on sqlite3 maps to the node budget).
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

using namespace o2;
using namespace o2bench;

static void BM_CppPTA(benchmark::State &State, const std::string &ProfileName,
                      PTAOptions Opts) {
  auto M = generateWorkload(profileNamed(ProfileName));
  for (auto _ : State) {
    auto R = runPointerAnalysis(*M, Opts);
    State.counters["pointers"] =
        static_cast<double>(R->stats().get("pta.pointer-nodes"));
    State.counters["objects"] =
        static_cast<double>(R->stats().get("pta.objects"));
    State.counters["edges"] =
        static_cast<double>(R->stats().get("pta.copy-edges"));
    State.counters["origins"] =
        static_cast<double>(R->stats().get("pta.origins"));
    State.counters["budget_hit"] = R->hitBudget() ? 1 : 0;
    benchmark::DoNotOptimize(R);
  }
}

int main(int Argc, char **Argv) {
  std::vector<std::pair<std::string, PTAOptions>> Configs;
  for (const auto &[Name, Opts] : pointerAnalysisConfigs())
    if (Name == "0-ctx" || Name == "1-origin" || Name == "2-cfa")
      Configs.emplace_back(Name == "1-origin" ? "O2" : Name, Opts);

  for (const std::string &Profile : cppProfiles())
    for (const auto &[CfgName, Opts] : Configs)
      benchmark::RegisterBenchmark(
          ("table6_cpp/" + Profile + "/" + CfgName).c_str(), BM_CppPTA,
          Profile, Opts)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);

  return runBenchmarks(
      Argc, Argv,
      "Table 6: C/C++ profiles — pointer-analysis time and graph sizes "
      "(#pointers/#objects/#edges) for 0-ctx, O2, 2-CFA");
}
