//===- SmallProfile.h - Seeded small workloads for tests --------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#ifndef O2_TESTS_WORKLOAD_SMALLPROFILE_H
#define O2_TESTS_WORKLOAD_SMALLPROFILE_H

#include "o2/Workload/Generator.h"

#include <cstdint>
#include <string>

namespace o2 {

/// A small generated workload per seed, for property sweeps: odd seeds
/// nest spawns two deep, seeds divisible by 3 spawn inside a loop.
inline WorkloadProfile smallProfile(uint64_t Seed) {
  WorkloadProfile P;
  P.Name = "prop-seed" + std::to_string(Seed);
  P.NumThreads = 3;
  P.NumEventHandlers = 2;
  P.CallDepth = 3;
  P.RacyObjects = 2;
  P.LockedObjects = 2;
  P.ReadOnlyObjects = 2;
  P.ProtectedWritesPerOrigin = 2;
  P.UnprotectedWritesPerOrigin = 2;
  P.ReadsPerOrigin = 2;
  P.NestedSpawnDepth = Seed % 2 ? 2 : 0;
  P.SpawnInLoop = Seed % 3 == 0;
  P.Seed = Seed;
  return P;
}

} // namespace o2

#endif // O2_TESTS_WORKLOAD_SMALLPROFILE_H
