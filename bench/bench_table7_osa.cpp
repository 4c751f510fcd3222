//===- bench_table7_osa.cpp - Table 7: OSA vs escape analysis ------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 7 (OSA performance and #shared accesses) and the
// Section 5.1.2 comparison with the TLOA-style escape analysis. As in
// the paper, OSA times include the OPA run. Expected shape: OSA
// completes quickly and reports strictly fewer shared accesses than the
// escape analysis, which over-approximates (all statics escape, no
// per-origin read/write refinement).
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "o2/OSA/EscapeAnalysis.h"

using namespace o2;
using namespace o2bench;

static void BM_OSA(benchmark::State &State, const std::string &ProfileName) {
  auto M = generateWorkload(profileNamed(ProfileName));
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  for (auto _ : State) {
    auto PTA = runPointerAnalysis(*M, Opts);
    SharingResult R = runSharingAnalysis(*PTA);
    State.counters["s_access"] = R.numSharedAccessStmts();
    State.counters["s_obj"] = R.numSharedObjects();
    State.counters["accesses"] = R.numAccessStmts();
    benchmark::DoNotOptimize(R);
  }
}

static void BM_Escape(benchmark::State &State,
                      const std::string &ProfileName) {
  auto M = generateWorkload(profileNamed(ProfileName));
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  for (auto _ : State) {
    auto PTA = runPointerAnalysis(*M, Opts);
    EscapeResult R = runEscapeAnalysis(*PTA);
    State.counters["s_access"] = R.numSharedAccessStmts();
    State.counters["escaped"] = R.numEscapedObjects();
    benchmark::DoNotOptimize(R);
  }
}

int main(int Argc, char **Argv) {
  for (const std::string &Profile : dacapoProfiles()) {
    benchmark::RegisterBenchmark(("table7_osa/" + Profile + "/osa").c_str(),
                                 BM_OSA, Profile)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("table7_osa/" + Profile + "/escape").c_str(), BM_Escape, Profile)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  return runBenchmarks(
      Argc, Argv,
      "Table 7: OSA #shared accesses and time (incl. OPA) vs the "
      "TLOA-style escape-analysis baseline");
}
