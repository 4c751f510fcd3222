//===- BenchUtils.h - shared helpers for the benchmark harnesses --*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Every bench binary regenerates one table of the paper's evaluation.
// Timings run on synthetic workloads, so absolute numbers differ from
// the paper; the *shape* (orderings, blow-ups, precision ratios) is the
// reproduction target. Analyses that explode under deep contexts are
// capped by a node budget, the analogue of the paper's ">4h" entries:
// the "budget_hit" counter marks those rows.
//
//===----------------------------------------------------------------------===//

#ifndef O2_BENCH_BENCHUTILS_H
#define O2_BENCH_BENCHUTILS_H

#include "o2/Analysis/AnalysisManager.h"
#include "o2/Workload/Generator.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

namespace o2bench {

/// The pointer-analysis configurations compared in Tables 5, 6, 8, 9.
inline std::vector<std::pair<std::string, o2::PTAOptions>>
pointerAnalysisConfigs(uint64_t NodeBudget = 64'000) {
  using o2::ContextKind;
  auto Mk = [NodeBudget](ContextKind Kind, unsigned K) {
    o2::PTAOptions Opts;
    Opts.Kind = Kind;
    Opts.K = K;
    Opts.NodeBudget = NodeBudget;
    return Opts;
  };
  return {
      {"0-ctx", Mk(ContextKind::Insensitive, 1)},
      {"1-origin", Mk(ContextKind::Origin, 1)},
      {"1-cfa", Mk(ContextKind::KCallsite, 1)},
      {"2-cfa", Mk(ContextKind::KCallsite, 2)},
      {"1-obj", Mk(ContextKind::KObject, 1)},
      {"2-obj", Mk(ContextKind::KObject, 2)},
  };
}

/// Profile subsets matching the paper's table groupings.
inline std::vector<std::string> dacapoProfiles() {
  return {"avrora",   "batik",    "eclipse",  "h2",        "jython",
          "luindex",  "lusearch", "pmd",      "sunflow",   "tomcat",
          "tradebeans", "tradesoap", "xalan"};
}

inline std::vector<std::string> androidProfiles() {
  return {"connectbot", "sipdroid",     "k9mail",  "tasks", "fbreader",
          "vlc",        "firefoxfocus", "telegram", "zoom",  "chrome"};
}

inline std::vector<std::string> distributedProfiles() {
  return {"hbase", "hdfs", "yarn", "zookeeper"};
}

inline std::vector<std::string> cppProfiles() {
  return {"memcached", "redis", "sqlite3"};
}

inline std::unique_ptr<o2::Module> buildProfile(const std::string &Name) {
  const o2::WorkloadProfile *P = o2::findProfile(Name);
  assert(P && "unknown benchmark profile");
  return o2::generateWorkload(*P);
}

/// Runs all registered benchmarks after printing a one-line banner.
inline int runBenchmarks(int Argc, char **Argv, const char *Banner) {
  std::printf("# %s\n", Banner);
  ::benchmark::Initialize(&Argc, Argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

} // namespace o2bench

#endif // O2_BENCH_BENCHUTILS_H
