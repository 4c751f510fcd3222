//===- memcached_model.cpp - the Memcached thread<->event race --------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Reproduces the paper's Memcached case study (Section 5.4): the
// do_slabs_reassign event handler reads slabclass state without
// slabs_lock while worker threads mutate it under the lock. The race
// exists only across the thread/event boundary — handlers never race
// each other (they share the looper), and workers never race each other
// (they share the lock). A detector that considers only threads or only
// events misses it; O2's origins unify them.
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"
#include "o2/Support/OutputStream.h"
#include "o2/Workload/BugModels.h"

using namespace o2;

int main() {
  const BugModel *Model = findBugModel("memcached_slabs");
  if (!Model) {
    errs() << "model registry is missing memcached_slabs\n";
    return 1;
  }
  outs() << "subject: " << Model->Subject << '\n';
  outs() << "bug:     " << Model->Description << "\n\n";

  auto M = buildBugModel(*Model);

  // Full O2 pipeline (OPA + OSA + SHB + optimized detector), next to the
  // syntactic RacerD-style baseline.
  AnalysisSet Analyses = {O2Phase::OSA, O2Phase::Detect, O2Phase::RacerD};
  AnalysisManager AM(*M);
  AM.run(Analyses);
  JobResult Record;
  Record.Name = Model->Name;
  Record.Analyses = Analyses;
  recordJob(AM, Record);
  printJobText(Record, outs());

  // Show which origin kinds collide: the paper's point is the
  // thread<->event interaction.
  const RaceReport &Races = AM.getRaces();
  const SHBGraph &SHB = AM.getSHB();
  outs() << '\n';
  for (const Race &R : Races.races()) {
    auto KindName = [](OriginKind K) {
      switch (K) {
      case OriginKind::Main:
        return "main";
      case OriginKind::Thread:
        return "thread";
      case OriginKind::Event:
        return "event";
      }
      return "?";
    };
    outs() << "race between a " << KindName(SHB.thread(R.ThreadA).Kind)
           << " and an " << KindName(SHB.thread(R.ThreadB).Kind)
           << " origin\n";
  }

  outs() << "\nO2 races: " << Races.numRaces()
         << ", RacerD-like potential races: "
         << AM.getRacerD().numPotentialRaces() << '\n';
  return 0;
}
