//===- ResultCache.cpp - Persistent batch result cache -------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/ResultCache.h"

#include "DriverSupport.h"
#include "JobWire.h"
#include "o2/Support/FNV1a.h"
#include "o2/Support/FaultInjector.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string_view>

using namespace o2;

using driver::hashBytes;
using driver::toHex16;

uint64_t ResultCache::contentHash(const std::string &ModuleText) {
  return hashBytes(ModuleText);
}

std::string ResultCache::entryPath(uint64_t ContentHash,
                                   uint64_t ConfigFP) const {
  return Dir + "/" + toHex16(ContentHash) + "-" + toHex16(ConfigFP) + ".o2c";
}

bool ResultCache::lookup(uint64_t ContentHash, uint64_t ConfigFP,
                         JobResult &Out) const {
  if (!enabled())
    return false;
  // Any failure below — IO, damage, or an injected cache.read fault —
  // degrades to a miss: the cache must never turn into a job error.
  try {
    FaultInjector::hit("cache.read");
    bool Ok = false;
    std::string Content = readFile(entryPath(ContentHash, ConfigFP), Ok);
    if (!Ok)
      return false;

    // Header line: "o2cache <format version> <payload checksum>".
    size_t NL = Content.find('\n');
    if (NL == std::string::npos)
      return false;
    std::string_view Header(Content.data(), NL);
    std::string Expected =
        "o2cache " + std::to_string(FormatVersion) + " ";
    if (Header.size() != Expected.size() + 16 ||
        Header.substr(0, Expected.size()) != Expected)
      return false;
    std::string_view Payload(Content.data() + NL + 1,
                             Content.size() - NL - 1);
    if (Header.substr(Expected.size()) != toHex16(hashBytes(Payload)))
      return false;

    JobResult R;
    if (!wire::deserializeJobResult(Payload, R))
      return false;
    // The wire format carries every status (the worker pipe needs that);
    // the cache's contract is narrower. A foreign or hand-edited entry
    // holding a non-terminal or degraded result is damage: miss.
    if (!jobCompleted(R.Status) || R.Degraded)
      return false;
    Out = std::move(R);
    return true;
  } catch (...) {
    return false;
  }
}

void ResultCache::store(uint64_t ContentHash, uint64_t ConfigFP,
                        const JobResult &R) const {
  if (!enabled())
    return;
  // Never cache anything that must re-run: timeouts and errors (the
  // pre-existing rule), crash records, and degraded-fallback results —
  // a degraded answer is sound but cheaper than the requested config,
  // and replaying it would silently pin the degradation forever.
  if (!jobCompleted(R.Status) || R.Degraded)
    return;
  // The cache is an optimization: IO failures and injected cache.write
  // faults are swallowed, the job's result is already in hand.
  try {
    FaultInjector::hit("cache.write");
    std::error_code EC;
    std::filesystem::create_directories(Dir, EC);

    std::string Payload = wire::serializeJobResult(R);
    std::string Content = "o2cache " + std::to_string(FormatVersion) + " " +
                          toHex16(hashBytes(Payload)) + "\n" + Payload;

    // Atomic publish: never expose a half-written entry, even to a
    // concurrent fleet sharing the directory.
    std::string Final = entryPath(ContentHash, ConfigFP);
    std::string Tmp =
        Final + ".tmp" + toHex16(fnv1a(std::to_string(uintptr_t(&Payload))));
    std::FILE *F = std::fopen(Tmp.c_str(), "wb");
    if (!F)
      return;
    bool Ok = std::fwrite(Content.data(), 1, Content.size(), F) ==
              Content.size();
    Ok &= std::fclose(F) == 0;
    if (Ok)
      std::rename(Tmp.c_str(), Final.c_str());
    else
      std::remove(Tmp.c_str());
  } catch (...) {
  }
}
