//===- bench_cache.cpp - warm-cache speedup for batch re-runs ------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Measures the batch driver's persistent result cache (`--cache-dir`):
// the full benchmark corpus analyzed cold (every job misses and is
// stored) versus warm (every job replays its serialized record). The
// warm run skips PTA, SHB, and the detectors entirely — its cost is
// module generation/hashing plus deserialization — so the expected gap
// is one-to-two orders of magnitude on this corpus. The RacerD-like pass
// is in the analysis set because its warnings make up most of the bytes
// of a real entry. Counters: races (identical cold and warm, by
// construction), cache hits and misses, and cache-bytes, the total size
// of the entries the run leaves in the cache directory.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "o2/Driver/Driver.h"

#include <filesystem>

using namespace o2;
using namespace o2bench;

static std::vector<JobSpec> corpusSpecs() {
  std::vector<JobSpec> Specs;
  for (const WorkloadProfile &P : benchmarkProfiles()) {
    JobSpec S;
    S.Name = P.Name;
    S.Profile = &P;
    Specs.push_back(std::move(S));
  }
  return Specs;
}

static std::string cacheDir() {
  return (std::filesystem::temp_directory_path() / "o2-bench-cache")
      .string();
}

static uintmax_t cacheBytes(const std::string &Dir) {
  uintmax_t Bytes = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    Bytes += E.file_size();
  return Bytes;
}

static void BM_Cache(benchmark::State &State, bool Warm) {
  std::vector<JobSpec> Specs = corpusSpecs();
  BatchOptions Opts;
  Opts.Jobs = 4;
  Opts.Analyses = {O2Phase::OSA, O2Phase::Detect, O2Phase::Deadlock,
                   O2Phase::OverSync, O2Phase::RacerD};
  Opts.CacheDir = cacheDir();

  if (Warm) // ensure every entry exists before timing the replay
    runBatch(Specs, Opts);

  for (auto _ : State) {
    if (!Warm) {
      State.PauseTiming();
      std::filesystem::remove_all(Opts.CacheDir);
      State.ResumeTiming();
    }
    BatchResult R = runBatch(Specs, Opts);
    State.counters["races"] =
        static_cast<double>(R.Summary.get("races.total"));
    State.counters["hits"] = static_cast<double>(R.CacheHits);
    State.counters["misses"] = static_cast<double>(R.CacheMisses);
    benchmark::DoNotOptimize(R);
  }
  State.counters["cache-bytes"] =
      static_cast<double>(cacheBytes(Opts.CacheDir));
}

int main(int Argc, char **Argv) {
  std::filesystem::remove_all(cacheDir());

  benchmark::RegisterBenchmark("cache/table5-corpus/cold", BM_Cache,
                               /*Warm=*/false)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("cache/table5-corpus/warm", BM_Cache,
                               /*Warm=*/true)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);

  int Rc = runBenchmarks(
      Argc, Argv,
      "Cold vs warm batch runs over the benchmark corpus with a "
      "persistent --cache-dir; counters: races, cache hits/misses, "
      "cache-bytes");
  std::filesystem::remove_all(cacheDir());
  return Rc;
}
