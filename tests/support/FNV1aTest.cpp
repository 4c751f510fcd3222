//===- FNV1aTest.cpp - Byte-wise FNV-1a tests -----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/FNV1a.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

TEST(FNV1aTest, MatchesThePublishedTestVectors) {
  // FNV-1a-64 from FNV's own offset basis.
  const uint64_t OffsetBasis = 14695981039346656037ull;
  EXPECT_EQ(fnv1a("", OffsetBasis), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", OffsetBasis), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar", OffsetBasis), 0x85944171f73967e8ull);
}

TEST(FNV1aTest, FingerprintBasisIsPinned) {
  // Race fingerprints and the cache's config keys start here; a changed
  // value would rename every race in every stored report.
  EXPECT_EQ(fnv1a(""), FingerprintBasis);
  EXPECT_EQ(fnv1a("a"), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(fnv1aField("pta"), 0x9c3edb44c8e5c517ull);
}

TEST(FNV1aTest, FieldsAndWordsAreByteChains) {
  uint64_t H = fnv1a("x");
  EXPECT_EQ(fnv1aField("ab", H), fnv1a("ab\x1f", H));
  EXPECT_EQ(fnv1aField("a", fnv1aField("b")), fnv1a("b\x1f" "a\x1f"));
  uint64_t V = 0x0102030405060708ull;
  char Bytes[sizeof(V)];
  std::memcpy(Bytes, &V, sizeof(V));
  EXPECT_EQ(fnv1aU64(V, H), fnv1a(std::string_view(Bytes, sizeof(V)), H));
}

} // namespace
