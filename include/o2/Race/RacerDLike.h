//===- o2/Race/RacerDLike.h - Syntactic race detector baseline ----*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A RacerD-style compositional, syntactic detector used as the
/// state-of-the-art baseline of Section 5: it reasons by field name and
/// syntactic lock variables, with no pointer analysis, no heap contexts,
/// and no happens-before. It reports (1) read/write race pairs and
/// (2) unprotected writes, exactly the two report categories the paper
/// translates into warning counts for the comparison tables.
///
//===----------------------------------------------------------------------===//

#ifndef O2_RACE_RACERDLIKE_H
#define O2_RACE_RACERDLIKE_H

#include "o2/IR/Module.h"
#include "o2/Support/CancellationToken.h"

#include <cstdint>
#include <string>
#include <vector>

namespace o2 {

class OutputStream;

struct RacerDWarning {
  enum class Kind { ReadWriteRace, UnprotectedWrite };
  Kind WarningKind;
  /// The field/global the warning is about, as an index into
  /// RacerDReport::locations().
  uint32_t Location = 0;
  const Stmt *A = nullptr;
  const Stmt *B = nullptr; ///< null for unprotected writes
};

class RacerDReport {
public:
  /// By location, in locations() order; within one, the read/write races
  /// by their accesses' positions, then the unprotected writes.
  const std::vector<RacerDWarning> &warnings() const { return Warnings; }

  /// One name per accessed location ("Class.field", "@global" or "[]"), in
  /// byte order; RacerDWarning::Location indexes this table.
  const std::vector<std::string> &locations() const { return Locations; }

  /// The name of the location \p W is about.
  const std::string &location(const RacerDWarning &W) const {
    return Locations[W.Location];
  }

  unsigned numWarnings() const {
    return static_cast<unsigned>(Warnings.size());
  }

  /// The paper's comparison metric: read/write race pairs plus the
  /// conflicting-pair count implied by unprotected-write reports.
  unsigned numPotentialRaces() const { return NumPotentialRaces; }

  /// True if a cancellation token fired mid-analysis.
  bool cancelled() const { return Cancelled; }

  void print(OutputStream &OS) const;

private:
  friend class RacerDLikeDetector;

  std::vector<RacerDWarning> Warnings;
  std::vector<std::string> Locations;
  unsigned NumPotentialRaces = 0;
  bool Cancelled = false;
};

/// Runs the syntactic detector directly over the IR. \p Cancel is polled
/// once per concurrency root before its reachability walk, once per
/// function while collecting accesses, and once per function group of each
/// location while scanning access-class pairs for races.
RacerDReport runRacerDLike(const Module &M,
                           const CancellationToken *Cancel = nullptr);

} // namespace o2

#endif // O2_RACE_RACERDLIKE_H
