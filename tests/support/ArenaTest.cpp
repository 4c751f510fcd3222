//===- ArenaTest.cpp - BumpAllocator and ArenaVector unit tests -----------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/Arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace o2;

namespace {

struct Pair {
  uint32_t A;
  uint64_t B;
  Pair(uint32_t A, uint64_t B) : A(A), B(B) {}
};

TEST(ArenaTest, CreateAlignsAndConstructs) {
  BumpAllocator Arena;
  Arena.allocate(1, 1); // leave the bump pointer misaligned
  Pair *P = Arena.create<Pair>(7u, 9u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % alignof(Pair), 0u);
  EXPECT_EQ(P->A, 7u);
  EXPECT_EQ(P->B, 9u);
  EXPECT_EQ(Arena.numSlabs(), 1u);
}

TEST(ArenaTest, CopiesArraysAndStrings) {
  BumpAllocator Arena;
  std::vector<int> Src = {1, 2, 3};
  ArrayRef<int> Copy = Arena.copyArray(ArrayRef<int>(Src));
  Src.assign({0, 0, 0});
  EXPECT_EQ(Copy, ArrayRef<int>({1, 2, 3}));
  EXPECT_TRUE(Arena.copyArray(ArrayRef<int>()).empty());

  std::string Name = "a name longer than the small-string buffer";
  StringRef Saved = Arena.copyString(Name);
  Name.assign(Name.size(), '#');
  EXPECT_EQ(Saved, "a name longer than the small-string buffer");
  EXPECT_TRUE(Arena.copyString("").empty());
}

TEST(ArenaTest, ManySmallObjectsTakeFewSlabs) {
  BumpAllocator Arena;
  std::vector<Pair *> Made;
  for (uint32_t I = 0; I != 100000; ++I)
    Made.push_back(Arena.create<Pair>(I, uint64_t(I) * 3));
  for (uint32_t I = 0; I != 100000; ++I)
    ASSERT_EQ(Made[I]->B, uint64_t(I) * 3);
  EXPECT_LE(Arena.numSlabs(), 8u);
}

TEST(ArenaTest, LargeRequestGetsItsOwnSlab) {
  BumpAllocator Arena;
  char *Small = static_cast<char *>(Arena.allocate(8, 8));
  char *Big = static_cast<char *>(Arena.allocate(size_t(4) << 20, 16));
  char *Next = static_cast<char *>(Arena.allocate(8, 8));
  Big[(size_t(4) << 20) - 1] = 1;
  EXPECT_EQ(Arena.numSlabs(), 2u);
  // The small objects keep sharing the first slab.
  EXPECT_EQ(Next, Small + 8);
}

TEST(ArenaTest, VectorGrowsInPlaceWhenLast) {
  BumpAllocator Arena;
  ArenaVector<uint32_t> V;
  V.push_back(0, Arena);
  const uint32_t *First = V.begin();
  for (uint32_t I = 1; I != 1000; ++I)
    V.push_back(I, Arena);
  ASSERT_EQ(V.size(), 1000u);
  for (uint32_t I = 0; I != 1000; ++I)
    EXPECT_EQ(V[I], I);
  // Nothing else was allocated, so every growth extended the array.
  EXPECT_EQ(V.begin(), First);
}

TEST(ArenaTest, InterleavedVectorsMoveAndKeepTheirElements) {
  BumpAllocator Arena;
  ArenaVector<uint64_t> A, B;
  for (uint64_t I = 0; I != 500; ++I) {
    A.push_back(I, Arena);
    B.push_back(I * 2, Arena);
  }
  ASSERT_EQ(A.size(), 500u);
  ASSERT_EQ(B.size(), 500u);
  for (uint64_t I = 0; I != 500; ++I) {
    EXPECT_EQ(A[I], I);
    EXPECT_EQ(B[I], I * 2);
  }
  EXPECT_EQ(A.ref().back(), 499u);
  EXPECT_EQ(B.ref().back(), 998u);
}

#ifdef O2_ARENA_ASAN
TEST(ArenaDeathTest, ReadPastTheLastObjectReports) {
  // A slab's unused tail stays poisoned: an overrun past the last object
  // handed out is an AddressSanitizer report, as with the heap.
  BumpAllocator Arena;
  char *Last = static_cast<char *>(Arena.allocate(16, 16));
  volatile char *Past = Last + 16;
  EXPECT_DEATH((void)*Past, "use-after-poison");
}

TEST(ArenaDeathTest, ReadThroughAMovedArrayReports) {
  BumpAllocator Arena;
  ArenaVector<uint32_t> V;
  V.push_back(1, Arena);
  const uint32_t *Old = V.begin();
  Arena.allocate(4, 4); // V can no longer grow in place
  for (uint32_t I = 0; I != 8; ++I)
    V.push_back(I, Arena);
  volatile const uint32_t *Stale = Old;
  EXPECT_DEATH((void)*Stale, "use-after-poison");
}
#endif

} // namespace
