//===- bench_android_events.cpp - Section 4.2 event treatment ablation ----------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Ablates the Android treatment of Section 4.2 on the app-shaped
// profiles: with the implicit looper lock, handler/handler pairs are
// serialized and "no false positive among event handlers will be
// reported"; without it the detector floods with handler/handler
// warnings. Thread/handler races are unaffected either way — that is
// where the paper's real Android bugs live.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

using namespace o2;
using namespace o2bench;

static void BM_EventTreatment(benchmark::State &State,
                              const std::string &ProfileName,
                              bool Serialize) {
  auto M = generateWorkload(profileNamed(ProfileName));
  PTAOptions PTAOpts;
  PTAOpts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, PTAOpts);
  SHBOptions SHBOpts;
  SHBOpts.SerializeEventHandlers = Serialize;
  SHBGraph SHB = buildSHBGraph(*PTA, SHBOpts);
  SharingResult Sharing = runSharingAnalysis(*PTA);
  for (auto _ : State) {
    RaceReport R = detectRaces(*PTA, SHB, Sharing);
    unsigned HandlerPairs = 0, MixedPairs = 0;
    for (const Race &Rc : R.races()) {
      bool AEvent = SHB.thread(Rc.ThreadA).Kind == OriginKind::Event;
      bool BEvent = SHB.thread(Rc.ThreadB).Kind == OriginKind::Event;
      if (AEvent && BEvent)
        ++HandlerPairs;
      else if (AEvent != BEvent)
        ++MixedPairs;
    }
    State.counters["races"] = R.numRaces();
    State.counters["handler_handler"] = HandlerPairs;
    State.counters["thread_handler"] = MixedPairs;
    benchmark::DoNotOptimize(R);
  }
}

int main(int Argc, char **Argv) {
  for (const std::string &Profile : androidProfiles()) {
    benchmark::RegisterBenchmark(
        ("android_events/" + Profile + "/serialized").c_str(),
        BM_EventTreatment, Profile, true)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("android_events/" + Profile + "/free-running").c_str(),
        BM_EventTreatment, Profile, false)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  return runBenchmarks(
      Argc, Argv,
      "Section 4.2 ablation: races with/without the implicit looper lock "
      "(handler_handler must drop to 0 when serialized; thread_handler "
      "races remain)");
}
