//===- o2/Workload/Generator.h - Synthetic workload generator -----*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seeded generator of whole-program OIR workloads whose
/// analysis-relevant shape mirrors the paper's evaluation subjects:
/// number of origins (threads and event handlers), per-origin call-chain
/// depth, shared/local allocation mix with k-CFA-confusing allocation
/// wrapper chains of depths 1–3, lock density, nested thread creation,
/// loop spawns, and padding code to scale program size. Each named
/// profile in benchmarkProfiles() corresponds to one subject row of
/// Tables 5–9.
///
//===----------------------------------------------------------------------===//

#ifndef O2_WORKLOAD_GENERATOR_H
#define O2_WORKLOAD_GENERATOR_H

#include "o2/IR/Module.h"
#include "o2/PTA/PointerAnalysis.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace o2 {

struct WorkloadProfile {
  std::string Name = "synthetic";

  /// How many thread origins / event-handler origins main() creates.
  unsigned NumThreads = 4;
  unsigned NumEventHandlers = 0;

  /// Depth of the per-origin method chain run() -> step0 -> ... -> leaf.
  unsigned CallDepth = 3;

  /// Shared-object partition: racy objects take unprotected writes,
  /// locked objects are written only under their lock, read-only objects
  /// are written by main before any spawn.
  unsigned RacyObjects = 1;
  unsigned LockedObjects = 2;
  unsigned ReadOnlyObjects = 2;
  unsigned NumLocks = 2;

  /// Per-origin leaf workload.
  unsigned ProtectedWritesPerOrigin = 2;
  unsigned UnprotectedWritesPerOrigin = 1;
  unsigned ReadsPerOrigin = 3;

  /// Write/read repetitions inside each lock region (exercises the
  /// detector's lock-region merging, optimization 3).
  unsigned AccessesPerLockRegion = 3;

  /// Origin-local allocations through shared wrapper chains of depth 1,
  /// 2, and 3. Depth d is disambiguated by (d)-CFA but merged by
  /// (d-1)-CFA, while OPA and k-obj keep every depth apart — these drive
  /// the precision gradation of Table 8.
  unsigned LocalPatternsDepth1 = 1;
  unsigned LocalPatternsDepth2 = 1;
  unsigned LocalPatternsDepth3 = 1;

  /// Context amplifier: a layered utility library where every method
  /// allocates and calls into AmplifierFanOut next-layer receivers at
  /// distinct call sites. Reachable ⟨method, context⟩ instances grow
  /// roughly as FanOut^k for k-CFA/k-obj while staying linear for 0-ctx
  /// and OPA — this drives the performance blow-ups of Tables 5 and 6.
  /// Layers = 0 disables.
  unsigned AmplifierLayers = 0;
  unsigned AmplifierFanOut = 4;
  unsigned AmplifierStmtsPerMethod = 12;

  /// Nested thread creation depth (Redis-style); 0 disables.
  unsigned NestedSpawnDepth = 0;

  /// Spawn the thread origins from inside a loop (duplicated origins).
  bool SpawnInLoop = false;

  /// Sequential padding code to scale program size.
  unsigned PaddingFunctions = 0;
  unsigned PaddingStmtsPerFunction = 30;

  uint64_t Seed = 42;
};

/// Generates the workload. The result verifies and is fully determined
/// by the profile (including Seed).
std::unique_ptr<Module> generateWorkload(const WorkloadProfile &P);

/// Named profiles modeled after the paper's evaluation subjects
/// (DaCapo, Android apps, distributed systems, C/C++ applications).
const std::vector<WorkloadProfile> &benchmarkProfiles();

/// Finds a profile by name; null if absent.
const WorkloadProfile *findProfile(const std::string &Name);

/// The profile named \p Name; reports the name and aborts if there is
/// none.
const WorkloadProfile &profileNamed(const std::string &Name);

/// The paper's subject groupings, the rows of its tables: DaCapo (Tables
/// 5, 7, 8), Android apps (Table 5, Section 4.2), distributed systems
/// (Tables 5, 9) and C/C++ applications (Table 6).
std::vector<std::string> dacapoProfiles();
std::vector<std::string> androidProfiles();
std::vector<std::string> distributedProfiles();
std::vector<std::string> cppProfiles();

/// The pointer-analysis configurations compared in Tables 5, 6, 8 and 9,
/// by the tables' names ("0-ctx", "1-origin", "2-cfa", ...). Each stops
/// at 64k pointer nodes, the analogue of the paper's ">4h" entries.
std::vector<std::pair<std::string, PTAOptions>> pointerAnalysisConfigs();

/// The lock-heavy 24-origin workload of the Section 4.1 ablation.
WorkloadProfile ablationProfile();

} // namespace o2

#endif // O2_WORKLOAD_GENERATOR_H
