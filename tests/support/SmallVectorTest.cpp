//===- SmallVectorTest.cpp - SmallVector unit tests -------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/SmallVector.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

using o2::SmallVector;
using o2::SmallVectorImpl;

namespace {

/// An element type whose move constructor may throw.
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(const ThrowingMove &) = default;
  ThrowingMove(ThrowingMove &&) noexcept(false) {}
};

TEST(SmallVectorTest, EmptyOnConstruction) {
  SmallVector<int, 4> V;
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.size(), 0u);
  EXPECT_EQ(V.begin(), V.end());
}

TEST(SmallVectorTest, PushBackWithinInlineCapacity) {
  SmallVector<int, 4> V;
  for (int I = 0; I < 4; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 4u);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(V[static_cast<size_t>(I)], I);
}

TEST(SmallVectorTest, GrowthBeyondInlineCapacity) {
  SmallVector<int, 2> V;
  for (int I = 0; I < 100; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 100u);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(V[static_cast<size_t>(I)], I);
}

TEST(SmallVectorTest, FirstSpillHoldsSixEntries) {
  // A one-slot list that spills keeps growing in place up to six
  // entries: one heap block, no second reallocation.
  SmallVector<unsigned, 1> V;
  V.push_back(0);
  V.push_back(1);
  const unsigned *Spilled = V.data();
  for (unsigned I = 2; I < 6; ++I)
    V.push_back(I);
  EXPECT_EQ(V.data(), Spilled);
  EXPECT_GE(V.capacity(), 6u);
  for (unsigned I = 0; I < 6; ++I)
    EXPECT_EQ(V[I], I);
}

TEST(SmallVectorTest, InitializerList) {
  SmallVector<int, 4> V = {1, 2, 3, 4, 5};
  EXPECT_EQ(V.size(), 5u);
  EXPECT_EQ(V.front(), 1);
  EXPECT_EQ(V.back(), 5);
}

TEST(SmallVectorTest, NonTrivialElementType) {
  SmallVector<std::string, 2> V;
  V.push_back("alpha");
  V.push_back("beta");
  V.push_back("gamma"); // forces a grow with moves
  EXPECT_EQ(V[0], "alpha");
  EXPECT_EQ(V[1], "beta");
  EXPECT_EQ(V[2], "gamma");
}

TEST(SmallVectorTest, MoveOnlyElementType) {
  SmallVector<std::unique_ptr<int>, 2> V;
  for (int I = 0; I < 10; ++I)
    V.push_back(std::make_unique<int>(I));
  EXPECT_EQ(*V[9], 9);
  SmallVector<std::unique_ptr<int>, 2> W = std::move(V);
  EXPECT_EQ(W.size(), 10u);
  EXPECT_EQ(*W[3], 3);
}

TEST(SmallVectorTest, PopBackDestroys) {
  auto Counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> C;
    explicit Probe(std::shared_ptr<int> C) : C(std::move(C)) {}
    Probe(const Probe &) = default;
    Probe(Probe &&) = default;
    ~Probe() {
      if (C)
        ++*C;
    }
  };
  {
    SmallVector<Probe, 2> V;
    V.emplace_back(Counter);
    V.pop_back();
    EXPECT_EQ(*Counter, 1);
  }
  EXPECT_EQ(*Counter, 1);
}

TEST(SmallVectorTest, ClearKeepsCapacity) {
  SmallVector<int, 2> V;
  for (int I = 0; I < 50; ++I)
    V.push_back(I);
  size_t Cap = V.capacity();
  V.clear();
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.capacity(), Cap);
}

TEST(SmallVectorTest, ResizeGrowAndShrink) {
  SmallVector<int, 4> V;
  V.resize(6, 7);
  EXPECT_EQ(V.size(), 6u);
  EXPECT_EQ(V[5], 7);
  V.resize(2);
  EXPECT_EQ(V.size(), 2u);
  EXPECT_EQ(V[1], 7);
}

TEST(SmallVectorTest, AppendRange) {
  SmallVector<int, 2> V = {1, 2};
  int More[] = {3, 4, 5};
  V.append(std::begin(More), std::end(More));
  EXPECT_EQ(V.size(), 5u);
  EXPECT_EQ(std::accumulate(V.begin(), V.end(), 0), 15);
}

TEST(SmallVectorTest, EraseMiddle) {
  SmallVector<int, 8> V = {1, 2, 3, 4, 5};
  V.erase(V.begin() + 2);
  SmallVector<int, 8> Expected = {1, 2, 4, 5};
  EXPECT_TRUE(V == Expected);
}

TEST(SmallVectorTest, CopyAssignment) {
  SmallVector<int, 2> A = {1, 2, 3};
  SmallVector<int, 2> B;
  B = A;
  EXPECT_TRUE(A == B);
  B.push_back(4);
  EXPECT_EQ(A.size(), 3u);
}

TEST(SmallVectorTest, MoveAssignmentStealsHeap) {
  SmallVector<int, 2> A;
  for (int I = 0; I < 64; ++I)
    A.push_back(I);
  const int *Data = A.data();
  SmallVector<int, 2> B;
  B = std::move(A);
  EXPECT_EQ(B.data(), Data); // heap buffer stolen, no copy
  EXPECT_EQ(B.size(), 64u);
  EXPECT_TRUE(A.empty());
}

TEST(SmallVectorTest, StdVectorGrowthMovesHeapStorage) {
  static_assert(std::is_nothrow_move_constructible_v<SmallVector<int, 2>>);
  static_assert(
      !std::is_nothrow_move_constructible_v<SmallVector<ThrowingMove, 2>>);
  std::vector<SmallVector<int, 2>> Outer(1);
  for (int I = 0; I < 16; ++I)
    Outer[0].push_back(I);
  const int *Data = Outer[0].data();
  // Grow the outer vector well past its capacity: each relocation must
  // steal the spilled buffer instead of copying the elements.
  for (int I = 0; I < 64; ++I)
    Outer.emplace_back();
  EXPECT_EQ(Outer[0].data(), Data);
  ASSERT_EQ(Outer[0].size(), 16u);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(Outer[0][static_cast<size_t>(I)], I);
}

TEST(SmallVectorTest, UsableThroughImplBase) {
  SmallVector<int, 4> V = {1, 2};
  SmallVectorImpl<int> &Impl = V;
  Impl.push_back(3);
  EXPECT_EQ(V.size(), 3u);
  EXPECT_EQ(Impl.back(), 3);
}

TEST(SmallVectorTest, IterationOrder) {
  SmallVector<int, 4> V = {10, 20, 30};
  int Sum = 0;
  for (int X : V)
    Sum = Sum * 100 + X;
  EXPECT_EQ(Sum, 102030);
}

} // namespace
