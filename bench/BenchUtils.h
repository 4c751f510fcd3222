//===- BenchUtils.h - shared helpers for the benchmark harnesses --*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Every bench binary regenerates one table of the paper's evaluation.
// The tables' rows (profile groupings, pointer-analysis configurations)
// come from o2/Workload/Generator.h, which tests/paper reads too.
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

#include <cstdio>

namespace o2bench {

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
