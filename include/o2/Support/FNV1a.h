//===- o2/Support/FNV1a.h - Byte-wise 64-bit FNV-1a -------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one byte-wise 64-bit FNV-1a, behind the config fingerprints (the
/// warm cache's key) and the race fingerprints (pinned by reports and
/// baselines). Both start from FingerprintBasis: the first 19 digits of
/// FNV's offset basis, kept because every stored report depends on it.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_FNV1A_H
#define O2_SUPPORT_FNV1A_H

#include <cstdint>
#include <cstring>
#include <string_view>

namespace o2 {

/// Where every O2 fingerprint starts (see the file comment).
inline constexpr uint64_t FingerprintBasis = 1469598103934665603ull;

/// 64-bit FNV-1a of \p S, continuing from \p H.
inline uint64_t fnv1a(std::string_view S, uint64_t H = FingerprintBasis) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// \p S then a 0x1f separator, so consecutive fields cannot run together.
inline uint64_t fnv1aField(std::string_view S, uint64_t H = FingerprintBasis) {
  return fnv1a("\x1f", fnv1a(S, H));
}

/// The eight bytes of \p V in memory order, continuing from \p H.
inline uint64_t fnv1aU64(uint64_t V, uint64_t H) {
  char Bytes[sizeof(V)];
  std::memcpy(Bytes, &V, sizeof(V));
  return fnv1a(std::string_view(Bytes, sizeof(V)), H);
}

} // namespace o2

#endif // O2_SUPPORT_FNV1A_H
