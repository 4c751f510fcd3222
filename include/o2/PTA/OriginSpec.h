//===- o2/PTA/OriginSpec.h - Origin entry points and origin table -*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OriginSpec configures which method names are origin entry points
/// (paper Table 1) and classifies each as a thread or an event handler.
/// OriginTable assigns dense IDs to the origins discovered during
/// origin-sensitive pointer analysis (one per origin allocation instance,
/// duplicated for allocations in loops).
///
//===----------------------------------------------------------------------===//

#ifndef O2_PTA_ORIGINSPEC_H
#define O2_PTA_ORIGINSPEC_H

#include "o2/IR/Module.h"
#include "o2/Support/U64Map.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace o2 {

/// What kind of concurrent unit an origin models. The distinction matters
/// for the Android treatment (Section 4.2): event handlers running on one
/// looper thread are mutually serialized by an implicit global lock.
enum class OriginKind : uint8_t {
  Main,   ///< The root origin starting at main().
  Thread, ///< A thread-like origin (may run in parallel with anything).
  Event,  ///< An event-handler origin.
};

/// Configures automatic origin identification.
class OriginSpec {
public:
  /// The defaults of the paper's Table 1: run/call (threads) and
  /// handleEvent/onReceive/actionPerformed/onMessageEvent (events).
  static OriginSpec standard();

  /// Registers \p EntryName as an origin entry point of kind \p Kind.
  void addEntry(const std::string &EntryName, OriginKind Kind) {
    auto It = lowerBound(EntryName);
    if (It != Entries.end() && It->first == EntryName)
      It->second = Kind;
    else
      Entries.emplace(It, EntryName, Kind);
  }

  /// True if \p EntryName is a configured origin entry point.
  bool isEntry(std::string_view EntryName) const {
    auto It = lowerBound(EntryName);
    return It != Entries.end() && It->first == EntryName;
  }

  /// Kind of the entry \p EntryName (must be an entry).
  OriginKind kindOf(std::string_view EntryName) const {
    auto It = lowerBound(EntryName);
    assert(It != Entries.end() && It->first == EntryName &&
           "not an origin entry");
    return It->second;
  }

  /// True if \p C declares or inherits any configured entry method, i.e.
  /// allocations of C are origin allocations (rule ❽).
  bool isOriginClass(const ClassType *C) const {
    for (const auto &[Name, Kind] : Entries) {
      (void)Kind;
      if (C->findMethod(Name))
        return true;
    }
    return false;
  }

  /// The configured entries, in name order.
  const std::vector<std::pair<std::string, OriginKind>> &entries() const {
    return Entries;
  }

private:
  using EntryVec = std::vector<std::pair<std::string, OriginKind>>;

  EntryVec::const_iterator lowerBound(std::string_view Name) const {
    return std::lower_bound(
        Entries.begin(), Entries.end(), Name,
        [](const auto &Entry, std::string_view N) { return Entry.first < N; });
  }
  EntryVec::iterator lowerBound(std::string_view Name) {
    return std::lower_bound(
        Entries.begin(), Entries.end(), Name,
        [](const auto &Entry, std::string_view N) { return Entry.first < N; });
  }

  /// Sorted by name; a handful of entries, so a sorted vector beats a map.
  EntryVec Entries;
};

/// Everything known about one origin.
struct OriginInfo {
  /// Dense origin ID; 0 is always the main origin.
  unsigned Id = 0;

  OriginKind Kind = OriginKind::Main;

  /// The origin class allocated at the origin allocation; null for main.
  const ClassType *Class = nullptr;

  /// Allocation site that created the origin object (~0u for main).
  unsigned AllocSite = ~0u;

  /// Context (handle) the allocation executed under.
  uint32_t ParentCtx = 0;

  /// Loop-duplication index (0, or 1 for the duplicate of an in-loop
  /// allocation).
  unsigned DupIndex = 0;
};

/// Dense registry of origins discovered during the analysis.
class OriginTable {
public:
  OriginTable() {
    // Origin 0: main.
    Origins.push_back(OriginInfo());
  }

  static constexpr unsigned MainOrigin = 0;

  /// Returns the existing origin for the key, or creates it.
  unsigned getOrCreate(unsigned AllocSite, uint32_t ParentCtx,
                       unsigned DupIndex, OriginKind Kind,
                       const ClassType *Class) {
    assert(AllocSite < (1u << 30) && DupIndex < 4 && "key does not pack");
    uint64_t Key = (uint64_t(AllocSite) << 34) | (uint64_t(DupIndex) << 32) |
                   ParentCtx;
    auto [Id, Inserted] =
        ByKey.tryEmplace(Key, static_cast<unsigned>(Origins.size()));
    if (Inserted) {
      OriginInfo Info;
      Info.Id = *Id;
      Info.Kind = Kind;
      Info.Class = Class;
      Info.AllocSite = AllocSite;
      Info.ParentCtx = ParentCtx;
      Info.DupIndex = DupIndex;
      Origins.push_back(Info);
    }
    return *Id;
  }

  const OriginInfo &info(unsigned Id) const {
    assert(Id < Origins.size() && "invalid origin id");
    return Origins[Id];
  }

  unsigned size() const { return static_cast<unsigned>(Origins.size()); }

  const std::vector<OriginInfo> &origins() const { return Origins; }

private:
  std::vector<OriginInfo> Origins;
  /// AllocSite<<34 | DupIndex<<32 | ParentCtx -> origin ID.
  U64Map<unsigned> ByKey;
};

} // namespace o2

#endif // O2_PTA_ORIGINSPEC_H
