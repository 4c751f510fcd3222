//===- o2/Support/Statistic.h - Analysis statistics ------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named counters collected during an analysis run, printable as a uniform
/// report (the analogue of llvm::Statistic, but instance-based so that
/// concurrent/independent analysis runs do not share mutable globals).
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_STATISTIC_H
#define O2_SUPPORT_STATISTIC_H

#include <cstdint>
#include <map>
#include <string>

namespace o2 {

/// A set of named monotone counters. Keys iterate in sorted order so the
/// report is deterministic.
class StatisticRegistry {
public:
  /// Adds \p Delta to the counter named \p Name (creating it at zero).
  void add(const std::string &Name, uint64_t Delta = 1) {
    Counters[Name] += Delta;
  }

  /// Sets the counter named \p Name to \p Value.
  void set(const std::string &Name, uint64_t Value) { Counters[Name] = Value; }

  /// Returns the value of \p Name, or 0 if never touched.
  uint64_t get(const std::string &Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }

  /// Adds every counter of \p Other into this registry. The batch driver
  /// uses this to fold per-job registries into a fleet aggregate: each
  /// concurrent job owns its registry (no process-global mutable state),
  /// and merging happens after the job finished.
  void merge(const StatisticRegistry &Other) {
    for (const auto &[Name, Value] : Other.Counters)
      Counters[Name] += Value;
  }

  bool empty() const { return Counters.empty(); }

  const std::map<std::string, uint64_t> &counters() const { return Counters; }

private:
  std::map<std::string, uint64_t> Counters;
};

} // namespace o2

#endif // O2_SUPPORT_STATISTIC_H
