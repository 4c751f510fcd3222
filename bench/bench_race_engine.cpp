//===- bench_race_engine.cpp - class scan vs pairwise race scan ----------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Measures the class-based race engine against the pairwise reference
// scan on race-heavy generated workloads:
//
//   - engine/pairwise-naive : the pairwise scan with naive BFS HB queries;
//   - engine/pairwise-index : the pairwise scan over the SHB graph's
//                             reachability rows — the HB-index speedup in
//                             isolation;
//   - engine/classes        : detectRaces, the equivalence-class scan —
//                             the class-math win on top of the index.
//
// buildSHBGraph builds the reachability rows and the lockset matrix with
// the graph, once per scale and outside the timed loop, so every line
// times detection alone.
//
// Every line reports the race count and the work counters, so a report
// divergence between configurations is visible directly in the table
// (the counters must match across all of them; the byte-level contract
// is enforced by RaceEngineEquivalenceTest).
// Pass --benchmark_format=json for machine-readable output.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

using namespace o2;
using namespace o2bench;

/// A race-heavy workload: many threads and handlers hammering a mix of
/// racy, locked, and read-only objects.
static WorkloadProfile engineProfile(unsigned Scale) {
  WorkloadProfile P;
  P.Name = "engine-x" + std::to_string(Scale);
  P.NumThreads = 8 * Scale;
  P.NumEventHandlers = 4 * Scale;
  P.CallDepth = 3;
  P.RacyObjects = 6 * Scale;
  P.LockedObjects = 6 * Scale;
  P.ReadOnlyObjects = 8;
  P.NumLocks = 8;
  P.ProtectedWritesPerOrigin = 6;
  P.UnprotectedWritesPerOrigin = 4;
  P.ReadsPerOrigin = 10;
  P.Seed = 4242;
  return P;
}

namespace {

struct Prepared {
  std::unique_ptr<Module> M;
  std::unique_ptr<PTAResult> PTA;
  SHBGraph SHB;
  SharingResult Sharing;
};

const Prepared &prepared(unsigned Scale) {
  // One analysis per scale, shared by every registered configuration so
  // the benchmark times only the detector.
  static std::map<unsigned, Prepared> Cache;
  auto It = Cache.find(Scale);
  if (It == Cache.end()) {
    Prepared P;
    P.M = generateWorkload(engineProfile(Scale));
    PTAOptions PTAOpts;
    PTAOpts.Kind = ContextKind::Origin;
    P.PTA = runPointerAnalysis(*P.M, PTAOpts);
    P.SHB = buildSHBGraph(*P.PTA);
    P.Sharing = runSharingAnalysis(*P.PTA);
    It = Cache.emplace(Scale, std::move(P)).first;
  }
  return It->second;
}

} // namespace

using DetectFn = RaceReport (*)(const PTAResult &, const SHBGraph &,
                                const SharingResult &,
                                const RaceDetectorOptions &);

static void BM_Engine(benchmark::State &State, unsigned Scale,
                      DetectFn Detect, RaceDetectorOptions Opts) {
  const Prepared &P = prepared(Scale);
  for (auto _ : State) {
    RaceReport R = Detect(*P.PTA, P.SHB, P.Sharing, Opts);
    State.counters["races"] = R.numRaces();
    State.counters["pairs"] =
        static_cast<double>(R.stats().get("race.pairs-checked"));
    State.counters["hb_queries"] =
        static_cast<double>(R.stats().get("race.hb-queries"));
    State.counters["locations"] =
        static_cast<double>(R.stats().get("race.shared-locations"));
    benchmark::DoNotOptimize(R);
  }
}

int main(int Argc, char **Argv) {
  auto Register = [](const std::string &Name, unsigned Scale,
                     DetectFn Detect, RaceDetectorOptions Opts) {
    benchmark::RegisterBenchmark(Name.c_str(), BM_Engine, Scale, Detect, Opts)
        ->Unit(benchmark::kMillisecond);
  };

  for (unsigned Scale : {1u, 4u}) {
    std::string Tag = "/x" + std::to_string(Scale);
    RaceDetectorOptions Naive;
    Naive.HB = RaceHBKind::Naive;
    // The naive BFS is quadratic per query; keep it off the big scale so
    // the harness stays runnable as a CI smoke test.
    if (Scale == 1)
      Register("engine/pairwise-naive" + Tag, Scale, detectRacesPairwise,
               Naive);
    Register("engine/pairwise-index" + Tag, Scale, detectRacesPairwise, {});
    Register("engine/classes" + Tag, Scale, detectRaces, {});
  }

  return runBenchmarks(
      Argc, Argv,
      "Race engine: pairwise scan (naive HB, HB index) vs the class-based "
      "scan (counters must agree across every row)");
}
