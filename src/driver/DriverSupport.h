//===- DriverSupport.h - Helpers shared inside o2Driver -----------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result cache's byte hash (keys, checksums) and the hex rendering
/// of fingerprints used by the batch driver and the cache. Race and
/// config fingerprints use o2/Support/FNV1a.h.
///
/// Internal to o2Driver — not installed under include/.
///
//===----------------------------------------------------------------------===//

#ifndef O2_DRIVER_DRIVERSUPPORT_H
#define O2_DRIVER_DRIVERSUPPORT_H

#include <cstdint>
#include <string>
#include <string_view>

namespace o2 {
namespace driver {

/// 64-bit hash of \p S for the result cache, which keys entries on it
/// and checksums them with it. It takes eight bytes (little endian) per
/// step, each folded into the state by a 64x64->128-bit multiply, so on
/// megabyte inputs it runs about three times faster than fnv1a's
/// byte-at-a-time chain (o2/Support/FNV1a.h). Race fingerprints stay
/// fnv1a: reports pin them.
inline uint64_t hashBytes(std::string_view S) {
  constexpr uint64_t K0 = 0x9e3779b97f4a7c15ull, K1 = 0xd6e8feb86659fd93ull;
  auto Fold = [](uint64_t A, uint64_t B) {
    unsigned __int128 P = static_cast<unsigned __int128>(A) * B;
    return uint64_t(P) ^ uint64_t(P >> 64);
  };
  auto Load = [](const char *P, size_t N) {
    uint64_t W = 0;
    for (size_t B = 0; B < N; ++B)
      W |= uint64_t(static_cast<unsigned char>(P[B])) << (8 * B);
    return W;
  };
  uint64_t H = Fold(S.size() ^ K0, K1);
  size_t I = 0;
  for (; I + 8 <= S.size(); I += 8)
    H = Fold(H ^ Load(S.data() + I, 8), K1) + K0;
  return Fold(H ^ Load(S.data() + I, S.size() - I), K1);
}

/// Writes \p V as exactly 16 lowercase hex digits to \p Out.
inline void toHex16(uint64_t V, char *Out) {
  static const char *Hex = "0123456789abcdef";
  for (int I = 15; I >= 0; --I, V >>= 4)
    Out[I] = Hex[V & 0xf];
}

/// \p V as exactly 16 lowercase hex digits.
inline std::string toHex16(uint64_t V) {
  std::string Out(16, '0');
  toHex16(V, Out.data());
  return Out;
}

} // namespace driver
} // namespace o2

#endif // O2_DRIVER_DRIVERSUPPORT_H
