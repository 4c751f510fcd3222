//===- o2/Driver/ResultCache.h - Persistent batch result cache ----*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch driver's warm cache (`o2batch --cache-dir=DIR`): completed
/// job results are serialized to one file per (module content hash,
/// analysis-set config fingerprint) pair, so re-running an unchanged
/// corpus with an unchanged configuration replays byte-identical JSONL
/// records without analyzing anything.
///
/// The key is purely content-derived — a 64-bit hash of the module
/// *text* (the raw .oir bytes for file/source jobs, the printed module
/// for generated workloads) plus analysisSetFingerprint, which already
/// folds in every result-affecting option, each pass's version, and the
/// dependency closure. Renaming a file or reordering the corpus does not
/// invalidate entries; touching the module text or any result-affecting
/// flag does.
///
/// Robustness contract: a corrupt, truncated, version-skewed, or
/// checksum-mismatched entry degrades to a cache miss, never an error —
/// the job simply runs cold and overwrites the entry. Only completed
/// results (jobCompleted) are stored: timeouts, errors and crash records
/// always re-run (store() enforces this, lookup() re-checks it on
/// replay).
/// Writes are atomic (temp file + rename), so concurrent fleets sharing
/// one directory at worst redo work.
///
//===----------------------------------------------------------------------===//

#ifndef O2_DRIVER_RESULTCACHE_H
#define O2_DRIVER_RESULTCACHE_H

#include "o2/Driver/Driver.h"

#include <string>

namespace o2 {

class ResultCache {
public:
  /// An empty \p Dir disables the cache (lookup always misses, store is
  /// a no-op). The directory is created on first store.
  explicit ResultCache(std::string Dir) : Dir(std::move(Dir)) {}

  bool enabled() const { return !Dir.empty(); }

  /// 64-bit hash of the module text (the cache key's content half).
  static uint64_t contentHash(const std::string &ModuleText);

  /// Bump when the serialized JobResult layout changes; docs/DRIVER.md
  /// lists what each version changed.
  static constexpr uint32_t FormatVersion = 7;

  /// Loads the entry for (ContentHash, ConfigFP) into \p Out. Returns
  /// false — and leaves \p Out untouched — on absence or any form of
  /// damage. \p Out's Name is NOT restored; the caller overlays the
  /// current spec's name (the same content may live under many names).
  bool lookup(uint64_t ContentHash, uint64_t ConfigFP, JobResult &Out) const;

  /// Serializes \p R under (ContentHash, ConfigFP). Refuses anything
  /// but a completed result. Failures (unwritable directory, full disk)
  /// are silently ignored — the cache is an optimization.
  void store(uint64_t ContentHash, uint64_t ConfigFP,
             const JobResult &R) const;

private:
  std::string entryPath(uint64_t ContentHash, uint64_t ConfigFP) const;

  std::string Dir;
};

} // namespace o2

#endif // O2_DRIVER_RESULTCACHE_H
