//===- U64MapTest.cpp - Open-addressing 64-bit key tables ---------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/U64Map.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace o2;

namespace {

/// Keys shaped like the pointer analysis's: a number in the high half and
/// a small one in the low half, so many keys share either half.
uint64_t packed(uint32_t Hi, uint32_t Lo) { return (uint64_t(Hi) << 32) | Lo; }

TEST(U64MapTest, EmptyFindsNothing) {
  U64Map<unsigned> M;
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.find(0), nullptr);
  EXPECT_EQ(M.find(packed(7, 3)), nullptr);
}

TEST(U64MapTest, TryEmplaceInsertsOnceAndKeepsTheFirstValue) {
  U64Map<unsigned> M;
  auto [V, Inserted] = M.tryEmplace(packed(1, 2), 10);
  EXPECT_TRUE(Inserted);
  EXPECT_EQ(*V, 10u);
  auto [V2, Inserted2] = M.tryEmplace(packed(1, 2), 20);
  EXPECT_FALSE(Inserted2);
  EXPECT_EQ(*V2, 10u);
  *V2 = 30;
  EXPECT_EQ(*M.find(packed(1, 2)), 30u);
  EXPECT_EQ(M.size(), 1u);
}

TEST(U64MapTest, MatchesStdMapAcrossGrowth) {
  U64Map<unsigned> M;
  std::map<uint64_t, unsigned> Ref;
  for (uint32_t Hi = 0; Hi != 300; ++Hi)
    for (uint32_t Lo = 0; Lo != 7; ++Lo) {
      uint64_t K = packed(Hi * 13 % 300, Lo * 5);
      unsigned Value = static_cast<unsigned>(Ref.size());
      bool Inserted = M.tryEmplace(K, Value).second;
      EXPECT_EQ(Inserted, Ref.emplace(K, Value).second);
    }
  EXPECT_EQ(M.size(), Ref.size());
  for (const auto &[K, V] : Ref) {
    ASSERT_NE(M.find(K), nullptr) << K;
    EXPECT_EQ(*M.find(K), V);
  }
  EXPECT_EQ(M.find(packed(300, 0)), nullptr);
  EXPECT_EQ(M.find(packed(0, 1)), nullptr);
  std::map<uint64_t, unsigned> Seen;
  M.forEach([&](uint64_t K, unsigned V) { Seen.emplace(K, V); });
  EXPECT_EQ(Seen, Ref);
}

TEST(U64MapTest, KeyZeroIsAnOrdinaryKey) {
  U64Map<const char *> M;
  EXPECT_TRUE(M.tryEmplace(0, "zero").second);
  ASSERT_NE(M.find(0), nullptr);
  EXPECT_STREQ(*M.find(0), "zero");
}

TEST(U64SetTest, InsertReportsNovelty) {
  U64Set S;
  std::set<uint64_t> Ref;
  for (uint32_t I = 0; I != 5000; ++I) {
    uint64_t K = packed(I % 97, I % 89);
    EXPECT_EQ(S.insert(K), Ref.insert(K).second) << I;
  }
  EXPECT_EQ(S.size(), Ref.size());
}

} // namespace
