//===- ReportFacts.h - Detector reports as comparable text ------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The facts of a race, deadlock or over-sync report, one line per
/// finding, for tests that check two runs agree. They name locations by
/// MemLoc key, statements by id and threads by SHB number, so two reports
/// compare equal exactly when they list the same findings in the same
/// order. Rendering for people is the batch driver's job (printJobText).
///
//===----------------------------------------------------------------------===//

#ifndef O2_TESTS_REPORTFACTS_H
#define O2_TESTS_REPORTFACTS_H

#include "o2/IR/Stmt.h"
#include "o2/Race/DeadlockDetector.h"
#include "o2/Race/OverSync.h"
#include "o2/Race/RaceDetector.h"

#include <string>

namespace o2 {
namespace test {

/// "loc <key>: <stmt>/<thread>/<R|W> <stmt>/<thread>/<R|W>" per race.
inline std::string raceFacts(const RaceReport &R) {
  std::string Out;
  auto Side = [&Out](const Stmt *S, unsigned Thread, bool Write) {
    Out += ' ' + std::to_string(S->getId()) + '/' + std::to_string(Thread) +
           '/' + (Write ? 'W' : 'R');
  };
  for (const Race &Rc : R.races()) {
    Out += "loc " + std::to_string(Rc.Loc.key()) + ':';
    Side(Rc.A, Rc.ThreadA, Rc.AIsWrite);
    Side(Rc.B, Rc.ThreadB, Rc.BIsWrite);
    Out += '\n';
  }
  return Out;
}

/// The checked-region count, then "<acquire>/<thread>: <n> accesses" per
/// region ("-" for a region without an acquire statement).
inline std::string overSyncFacts(const OverSyncReport &R) {
  std::string Out =
      "checked " + std::to_string(R.numRegionsChecked()) + '\n';
  for (const OverSyncRegion &O : R.regions())
    Out += (O.Acquire ? std::to_string(O.Acquire->getId()) : "-") + '/' +
           std::to_string(O.Thread) + ": " + std::to_string(O.NumAccesses) +
           " accesses\n";
  return Out;
}

/// "cycle <lock>..." per cycle, then one "  <thread>: <outer> -> <inner>
/// at <acquire>" line per witness edge.
inline std::string deadlockFacts(const DeadlockReport &R) {
  std::string Out;
  for (const DeadlockCycle &C : R.cycles()) {
    Out += "cycle";
    for (uint32_t L : C.Locks)
      Out += ' ' + std::to_string(L);
    Out += '\n';
    for (const LockOrderEdge &E : C.Witnesses)
      Out += "  " + std::to_string(E.Thread) + ": " +
             std::to_string(E.Outer) + " -> " + std::to_string(E.Inner) +
             " at " + std::to_string(E.Acquire->getId()) + '\n';
  }
  return Out;
}

} // namespace test
} // namespace o2

#endif // O2_TESTS_REPORTFACTS_H
