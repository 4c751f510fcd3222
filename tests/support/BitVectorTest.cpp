//===- BitVectorTest.cpp - BitVector unit tests ------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/BitVector.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <utility>
#include <vector>

using o2::BitVector;

namespace {

TEST(BitVectorTest, DefaultEmpty) {
  BitVector BV;
  EXPECT_TRUE(BV.empty());
  EXPECT_EQ(BV.count(), 0u);
  EXPECT_TRUE(BV.none());
  EXPECT_EQ(BV.findFirst(), -1);
}

TEST(BitVectorTest, SetGrowsAndReportsNewness) {
  BitVector BV;
  EXPECT_TRUE(BV.set(100));
  EXPECT_FALSE(BV.set(100)); // already set
  EXPECT_TRUE(BV.test(100));
  EXPECT_FALSE(BV.test(99));
  EXPECT_GE(BV.size(), 101u);
}

TEST(BitVectorTest, ResetAndClear) {
  BitVector BV(64);
  BV.set(3);
  BV.set(63);
  BV.reset(3);
  EXPECT_FALSE(BV.test(3));
  EXPECT_TRUE(BV.test(63));
  BV.clear();
  EXPECT_TRUE(BV.none());
}

TEST(BitVectorTest, ConstructAllOnes) {
  BitVector BV(70, true);
  EXPECT_EQ(BV.count(), 70u);
  EXPECT_TRUE(BV.test(69));
  EXPECT_FALSE(BV.test(70)); // out of range
}

TEST(BitVectorTest, UnionWith) {
  BitVector A, B;
  A.set(1);
  A.set(65);
  B.set(2);
  B.set(65);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_TRUE(A.test(1));
  EXPECT_TRUE(A.test(2));
  EXPECT_TRUE(A.test(65));
  EXPECT_EQ(A.count(), 3u);
  // Second union adds nothing.
  EXPECT_FALSE(A.unionWith(B));
}

TEST(BitVectorTest, UnionGrows) {
  BitVector A, B;
  A.set(0);
  B.set(200);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_TRUE(A.test(200));
}

TEST(BitVectorTest, IntersectWithAndIntersects) {
  BitVector A, B;
  A.set(5);
  A.set(70);
  B.set(70);
  B.set(90);
  EXPECT_TRUE(A.intersects(B));
  A.intersectWith(B);
  EXPECT_FALSE(A.test(5));
  EXPECT_TRUE(A.test(70));
  EXPECT_EQ(A.count(), 1u);

  BitVector C;
  C.set(4);
  EXPECT_FALSE(A.intersects(C));
}

TEST(BitVectorTest, FindFirstAndNext) {
  BitVector BV;
  BV.set(7);
  BV.set(64);
  BV.set(128);
  EXPECT_EQ(BV.findFirst(), 7);
  EXPECT_EQ(BV.findNext(8), 64);
  EXPECT_EQ(BV.findNext(64), 64);
  EXPECT_EQ(BV.findNext(65), 128);
  EXPECT_EQ(BV.findNext(129), -1);
}

TEST(BitVectorTest, SetBitIteration) {
  BitVector BV;
  std::set<unsigned> Expected = {3, 64, 65, 200};
  for (unsigned I : Expected)
    BV.set(I);
  std::set<unsigned> Got;
  for (unsigned I : BV)
    Got.insert(I);
  EXPECT_EQ(Got, Expected);
}

TEST(BitVectorTest, UnionWithChangedMatchesUnionWith) {
  BitVector A, B;
  A.set(0);
  A.set(63);
  B.set(64);
  B.set(130);
  EXPECT_TRUE(A.unionWithChanged(B));
  EXPECT_EQ(A.count(), 4u);
  EXPECT_FALSE(A.unionWithChanged(B));
  // Self-union is a no-op.
  EXPECT_FALSE(A.unionWithChanged(A));
  EXPECT_EQ(A.count(), 4u);
}

TEST(BitVectorTest, UnionWithDiffExtractsNewBits) {
  BitVector A, B, New;
  A.set(1);
  A.set(70);
  B.set(1); // already present: must not appear in New
  B.set(2);
  B.set(200);
  EXPECT_TRUE(A.unionWithDiff(B, New));
  EXPECT_TRUE(A.test(2));
  EXPECT_TRUE(A.test(200));
  std::set<unsigned> Got;
  for (unsigned I : New)
    Got.insert(I);
  EXPECT_EQ(Got, (std::set<unsigned>{2, 200}));
  // Re-union adds nothing and leaves New untouched.
  BitVector New2;
  EXPECT_FALSE(A.unionWithDiff(B, New2));
  EXPECT_TRUE(New2.none());
}

TEST(BitVectorTest, UnionWithDiffAccumulates) {
  BitVector A, B, C, New;
  B.set(3);
  C.set(90);
  EXPECT_TRUE(A.unionWithDiff(B, New));
  EXPECT_TRUE(A.unionWithDiff(C, New));
  std::set<unsigned> Got;
  for (unsigned I : New)
    Got.insert(I);
  EXPECT_EQ(Got, (std::set<unsigned>{3, 90}));
}

TEST(BitVectorTest, UnionWithDiffSelfIsNoop) {
  BitVector A, New;
  A.set(7);
  A.set(128);
  EXPECT_FALSE(A.unionWithDiff(A, New));
  EXPECT_TRUE(New.none());
  EXPECT_EQ(A.count(), 2u);
}

TEST(BitVectorTest, Diff) {
  BitVector A, B;
  A.set(1);
  A.set(64);
  A.set(200);
  B.set(64);
  B.set(300);
  BitVector D = A.diff(B);
  std::set<unsigned> Got;
  for (unsigned I : D)
    Got.insert(I);
  EXPECT_EQ(Got, (std::set<unsigned>{1, 200}));
  // Diff against a longer vector and against an empty one.
  EXPECT_TRUE(B.diff(B).none());
  BitVector Empty;
  EXPECT_TRUE(A.diff(Empty) == A);
}

TEST(BitVectorTest, ForEachSetWordAndNumSetWords) {
  BitVector BV;
  BV.set(0);
  BV.set(63);
  BV.set(130);
  EXPECT_EQ(BV.numSetWords(), 2u);
  std::set<unsigned> WordIdxs;
  BitVector::Word Word0 = 0;
  BV.forEachSetWord([&](size_t I, BitVector::Word W) {
    WordIdxs.insert(static_cast<unsigned>(I));
    if (I == 0)
      Word0 = W;
  });
  EXPECT_EQ(WordIdxs, (std::set<unsigned>{0, 2}));
  EXPECT_EQ(Word0, (BitVector::Word(1) | (BitVector::Word(1) << 63)));
}

TEST(BitVectorTest, EqualityIgnoresTrailingZeroWords) {
  BitVector A, B;
  A.set(3);
  B.set(3);
  B.ensureSize(1000);
  EXPECT_TRUE(A == B);
  B.set(999);
  EXPECT_FALSE(A == B);
}

TEST(BitVectorTest, ResizeWithValueTrue) {
  BitVector BV(10, true);
  BV.resize(20, true);
  EXPECT_EQ(BV.count(), 20u);
  BV.resize(5, true);
  EXPECT_EQ(BV.count(), 5u);
}


std::set<unsigned> bitsOf(const BitVector &BV) {
  std::set<unsigned> Out;
  for (unsigned I : BV)
    Out.insert(I);
  return Out;
}

TEST(BitVectorTest, SetBelowBaseGrowsWindowLeft) {
  BitVector BV;
  BV.set(1000);
  EXPECT_EQ(BV.storedWords(), 1u);
  BV.set(10);
  EXPECT_EQ(BV.storedWords(), 1000u / 64 + 1);
  EXPECT_TRUE(BV.test(10));
  EXPECT_TRUE(BV.test(1000));
  EXPECT_FALSE(BV.test(500));
  EXPECT_EQ(bitsOf(BV), (std::set<unsigned>{10, 1000}));
  EXPECT_EQ(BV.size(), 1001u);
}

TEST(BitVectorTest, UnionsAcrossDisjointAndOverlappingWindows) {
  BitVector A, B;
  A.set(5000);
  B.set(3);
  B.set(70);
  // Disjoint: B lies entirely below A's window.
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_EQ(bitsOf(A), (std::set<unsigned>{3, 70, 5000}));
  // Overlapping: C shares word 1 with A and reaches past it.
  BitVector C;
  C.set(70);
  C.set(100);
  C.set(6000);
  EXPECT_TRUE(A.unionWithChanged(C));
  EXPECT_EQ(bitsOf(A), (std::set<unsigned>{3, 70, 100, 5000, 6000}));
  EXPECT_FALSE(A.unionWithChanged(C));
}

TEST(BitVectorTest, UnionWithDiffAcrossWindows) {
  BitVector A, B, New;
  A.set(640);
  B.set(5);
  B.set(641);
  B.set(2000);
  // Into an empty NewBits: it stores only the words that gained bits.
  EXPECT_EQ(A.unionWithDiff(B, New), 3u);
  EXPECT_EQ(bitsOf(A), (std::set<unsigned>{5, 640, 641, 2000}));
  EXPECT_EQ(bitsOf(New), (std::set<unsigned>{5, 641, 2000}));
  EXPECT_GE(New.size(), 2001u);
  // Overlapping: only word 2000/64 gains a bit, and NewBits (already
  // holding bits below and above) accumulates it.
  BitVector C;
  C.set(641);
  C.set(2001);
  EXPECT_EQ(A.unionWithDiff(C, New), 1u);
  EXPECT_EQ(bitsOf(New), (std::set<unsigned>{5, 641, 2000, 2001}));
  // Disjoint and entirely above: NewBits grows to the right only.
  BitVector D, Fresh;
  D.set(9000);
  EXPECT_EQ(A.unionWithDiff(D, Fresh), 1u);
  EXPECT_EQ(Fresh.storedWords(), 1u);
  EXPECT_EQ(bitsOf(Fresh), (std::set<unsigned>{9000}));
  // Nothing new: no growth of either side.
  BitVector Untouched;
  EXPECT_EQ(A.unionWithDiff(C, Untouched), 0u);
  EXPECT_EQ(Untouched.storedWords(), 0u);
}

TEST(BitVectorTest, BinaryOpsAcrossNonOverlappingWindows) {
  BitVector Low, High;
  Low.set(1);
  Low.set(63);
  High.set(6400);
  EXPECT_EQ(bitsOf(Low.diff(High)), (std::set<unsigned>{1, 63}));
  EXPECT_EQ(bitsOf(High.diff(Low)), (std::set<unsigned>{6400}));
  EXPECT_FALSE(Low.intersects(High));
  EXPECT_FALSE(High.intersects(Low));
  EXPECT_FALSE(Low == High);

  BitVector Cut = Low;
  Cut.intersectWith(High);
  EXPECT_TRUE(Cut.none());
  BitVector Empty;
  EXPECT_TRUE(Cut == Empty);

  // Same bits, different windows and sizes.
  BitVector A, B;
  A.set(6400);
  B.set(10);
  B.set(6400);
  B.reset(10);
  EXPECT_TRUE(A == B);
  EXPECT_TRUE(B == A);
  EXPECT_TRUE(A.intersects(B));
}

TEST(BitVectorTest, FindNextAroundWindow) {
  BitVector BV;
  BV.set(200);
  BV.set(260);
  BV.ensureSize(1000);
  EXPECT_EQ(BV.findNext(0), 200);   // before the window
  EXPECT_EQ(BV.findNext(128), 200); // word before the window's first
  EXPECT_EQ(BV.findNext(201), 260); // inside
  EXPECT_EQ(BV.findNext(261), -1);  // inside, past the last bit
  EXPECT_EQ(BV.findNext(400), -1);  // after the window, within size
  EXPECT_EQ(BV.findNext(5000), -1); // past size
}

TEST(BitVectorTest, ResizeWithValueTrueAfterSparseSet) {
  BitVector BV;
  BV.set(300);
  BV.resize(1000, true);
  EXPECT_EQ(BV.size(), 1000u);
  EXPECT_EQ(BV.count(), 1000u - 301u + 1u);
  EXPECT_FALSE(BV.test(299));
  EXPECT_TRUE(BV.test(300));
  EXPECT_TRUE(BV.test(301));
  EXPECT_TRUE(BV.test(999));
  EXPECT_FALSE(BV.test(1000));
  BV.resize(310);
  EXPECT_EQ(BV.count(), 10u);
  BV.resize(200);
  EXPECT_TRUE(BV.none());
}

TEST(BitVectorTest, ForEachSetWordReportsAbsoluteIndices) {
  BitVector BV;
  BV.set(64 * 7 + 3);
  BV.set(64 * 9);
  std::vector<std::pair<size_t, BitVector::Word>> Seen;
  BV.forEachSetWord(
      [&](size_t I, BitVector::Word W) { Seen.emplace_back(I, W); });
  ASSERT_EQ(Seen.size(), 2u);
  EXPECT_EQ(Seen[0].first, 7u);
  EXPECT_EQ(Seen[0].second, BitVector::Word(1) << 3);
  EXPECT_EQ(Seen[1].first, 9u);
  EXPECT_EQ(Seen[1].second, BitVector::Word(1));
  EXPECT_EQ(BV.word(7), BitVector::Word(1) << 3);
  EXPECT_EQ(BV.word(8), BitVector::Word(0));
  EXPECT_EQ(BV.word(0), BitVector::Word(0));
}

TEST(BitVectorTest, StorageFollowsContentNotIndex) {
  BitVector BV;
  BV.set(1000000);
  EXPECT_EQ(BV.storedWords(), 1u);
  EXPECT_EQ(BV.count(), 1u);
  EXPECT_EQ(BV.findFirst(), 1000000);
  BitVector Sized;
  Sized.ensureSize(1u << 20);
  EXPECT_EQ(Sized.storedWords(), 0u);
  // A union stores only what the other side stores.
  Sized.unionWith(BV);
  EXPECT_EQ(Sized.storedWords(), 1u);
}

// The representation: a window of one word lives in the object and the
// vector spills to the heap only when the window grows past it.

TEST(BitVectorTest, InlineSetBelowBaseAndPastWindow) {
  BitVector BV;
  BV.set(130);
  EXPECT_TRUE(BV.isInline());
  EXPECT_EQ(BV.storedWords(), 1u);
  // Below Base, within the same word: stays inline.
  EXPECT_TRUE(BV.set(128));
  EXPECT_TRUE(BV.isInline());
  // Below Base, in an earlier word: the window grows left and spills.
  EXPECT_TRUE(BV.set(3));
  EXPECT_FALSE(BV.isInline());
  EXPECT_EQ(BV.storedWords(), 3u);
  EXPECT_EQ(bitsOf(BV), (std::set<unsigned>{3, 128, 130}));

  BitVector Right;
  Right.set(64);
  // Past the window: grows right and spills.
  EXPECT_TRUE(Right.set(200));
  EXPECT_FALSE(Right.isInline());
  EXPECT_EQ(Right.storedWords(), 3u);
  EXPECT_EQ(bitsOf(Right), (std::set<unsigned>{64, 200}));
  EXPECT_FALSE(Right.test(128));
}

TEST(BitVectorTest, GrowthFromInlineToHeapKeepsBits) {
  BitVector BV;
  for (unsigned I = 0; I < 64; I += 3)
    BV.set(I);
  EXPECT_TRUE(BV.isInline());
  std::set<unsigned> Expect = bitsOf(BV);
  // Each set() past the window keeps every earlier bit, and the heap
  // form grows again in place of the first spill.
  for (unsigned I = 64; I < 64 * 40; I += 61) {
    BV.set(I);
    Expect.insert(I);
    EXPECT_FALSE(BV.isInline());
    ASSERT_EQ(bitsOf(BV), Expect) << I;
  }
  EXPECT_EQ(BV.count(), Expect.size());
  // clear() keeps the allocation; the vector refills without losing it.
  BV.clear();
  EXPECT_TRUE(BV.none());
  EXPECT_FALSE(BV.isInline());
  BV.set(7);
  EXPECT_EQ(bitsOf(BV), (std::set<unsigned>{7}));
}

TEST(BitVectorTest, CopyAndMoveOfBothForms) {
  BitVector Inline;
  Inline.set(70);
  Inline.set(100);
  BitVector Heap;
  Heap.set(5);
  Heap.set(900);
  ASSERT_TRUE(Inline.isInline());
  ASSERT_FALSE(Heap.isInline());

  for (const BitVector *Src : {&Inline, &Heap}) {
    std::set<unsigned> Bits = bitsOf(*Src);
    BitVector Copy(*Src);
    EXPECT_EQ(Copy.isInline(), Src->isInline());
    EXPECT_EQ(bitsOf(Copy), Bits);
    EXPECT_EQ(Copy.size(), Src->size());
    // The copy owns its storage.
    Copy.set(3000);
    EXPECT_EQ(bitsOf(*Src), Bits);

    // Copy-assignment into each form.
    BitVector IntoInline;
    IntoInline.set(1);
    IntoInline = *Src;
    EXPECT_EQ(bitsOf(IntoInline), Bits);
    BitVector IntoHeap;
    IntoHeap.set(0);
    IntoHeap.set(5000);
    IntoHeap = *Src;
    EXPECT_EQ(bitsOf(IntoHeap), Bits);
    IntoHeap = IntoHeap;
    EXPECT_EQ(bitsOf(IntoHeap), Bits);

    // Moves take the bits and leave an empty inline vector behind.
    BitVector Moved(std::move(Copy));
    Bits.insert(3000);
    EXPECT_EQ(bitsOf(Moved), Bits);
    EXPECT_TRUE(Copy.none());
    EXPECT_TRUE(Copy.isInline());
    EXPECT_EQ(Copy.storedWords(), 0u);
    Copy.set(9); // a moved-from vector is usable
    EXPECT_EQ(bitsOf(Copy), (std::set<unsigned>{9}));

    BitVector Target;
    Target.set(4);
    Target.set(4000);
    Target = std::move(Moved);
    EXPECT_EQ(bitsOf(Target), Bits);
    EXPECT_TRUE(Moved.none());
    EXPECT_TRUE(Moved.isInline());
  }
}

TEST(BitVectorTest, UnionsAcrossInlineAndHeapForms) {
  BitVector Inline;
  Inline.set(64);
  Inline.set(66);
  BitVector Heap;
  Heap.set(66);
  Heap.set(130);
  Heap.set(10);
  ASSERT_TRUE(Inline.isInline());
  ASSERT_FALSE(Heap.isInline());

  // Heap into inline: the inline side spills.
  BitVector A = Inline;
  EXPECT_TRUE(A.unionWithChanged(Heap));
  EXPECT_FALSE(A.isInline());
  EXPECT_EQ(bitsOf(A), (std::set<unsigned>{10, 64, 66, 130}));
  EXPECT_FALSE(A.unionWithChanged(Heap));

  // Inline into heap: stays heap, gains the inline word's bits.
  BitVector B = Heap;
  EXPECT_TRUE(B.unionWithChanged(Inline));
  EXPECT_EQ(bitsOf(B), (std::set<unsigned>{10, 64, 66, 130}));

  // unionWithDiff from heap into inline, with an inline NewBits that
  // spills as well: only the gained bits land in NewBits.
  BitVector C = Inline, NewC;
  EXPECT_EQ(C.unionWithDiff(Heap, NewC), 2u);
  EXPECT_EQ(bitsOf(C), (std::set<unsigned>{10, 64, 66, 130}));
  EXPECT_EQ(bitsOf(NewC), (std::set<unsigned>{10, 130}));
  EXPECT_FALSE(NewC.isInline());

  // From inline into heap: one word gains, NewBits stays inline.
  BitVector D = Heap, NewD;
  EXPECT_EQ(D.unionWithDiff(Inline, NewD), 1u);
  EXPECT_EQ(bitsOf(NewD), (std::set<unsigned>{64}));
  EXPECT_TRUE(NewD.isInline());

  // Inline into inline within one word never allocates.
  BitVector E, F, NewE;
  E.set(1);
  F.set(2);
  EXPECT_EQ(E.unionWithDiff(F, NewE), 1u);
  EXPECT_TRUE(E.isInline());
  EXPECT_TRUE(NewE.isInline());
  EXPECT_EQ(bitsOf(E), (std::set<unsigned>{1, 2}));
}

TEST(BitVectorTest, QueriesOnInlineSets) {
  BitVector BV;
  BV.set(200);
  BV.set(250);
  ASSERT_TRUE(BV.isInline());
  EXPECT_EQ(BV.storedWords(), 1u);
  EXPECT_EQ(BV.count(), 2u);
  EXPECT_EQ(BV.findFirst(), 200);
  EXPECT_EQ(BV.findNext(0), 200);   // From below the window
  EXPECT_EQ(BV.findNext(201), 250); // inside it
  EXPECT_EQ(BV.findNext(251), -1);  // past its last bit
  std::vector<std::pair<size_t, BitVector::Word>> Words;
  BV.forEachSetWord(
      [&](size_t I, BitVector::Word W) { Words.emplace_back(I, W); });
  ASSERT_EQ(Words.size(), 1u);
  EXPECT_EQ(Words[0].first, 3u); // absolute word index
  EXPECT_EQ(Words[0].second,
            (BitVector::Word(1) << (200 - 192)) |
                (BitVector::Word(1) << (250 - 192)));
  EXPECT_EQ(BV.numSetWords(), 1u);

  BitVector Empty;
  EXPECT_EQ(Empty.storedWords(), 0u);
  EXPECT_EQ(Empty.count(), 0u);
  EXPECT_EQ(Empty.findNext(0), -1);
}

TEST(BitVectorTest, EqualityAcrossInlineAndHeapForms) {
  // The same bits held inline and on the heap (the heap one spilled and
  // then lost its other bits).
  BitVector Inline;
  Inline.set(130);
  BitVector Heap;
  Heap.set(0);
  Heap.set(130);
  Heap.set(300);
  Heap.reset(0);
  Heap.reset(300);
  ASSERT_TRUE(Inline.isInline());
  ASSERT_FALSE(Heap.isInline());
  EXPECT_TRUE(Inline == Heap);
  EXPECT_TRUE(Heap == Inline);
  Heap.set(131);
  EXPECT_FALSE(Inline == Heap);
  EXPECT_FALSE(Heap == Inline);
}

/// Seeded differential test against a std::set oracle.
TEST(BitVectorTest, RandomizedAgainstSetOracle) {
  std::mt19937 Rng(20210620);
  constexpr unsigned MaxIdx = 1u << 20;
  constexpr unsigned NumVecs = 4;
  auto RandomIdx = [&]() -> unsigned {
    // Mostly clustered near the top, as points-to sets of late objects
    // are: four 256-bit clusters 4096 bits apart, so windows overlap or
    // are disjoint; now and then an index anywhere below 2^20 stretches a
    // window across the whole range.
    if (Rng() % 256 == 0)
      return static_cast<unsigned>(Rng() % MaxIdx);
    return MaxIdx - 4 * 4096 + static_cast<unsigned>(Rng() % 4) * 4096 +
           static_cast<unsigned>(Rng() % 256);
  };
  std::vector<BitVector> V(NumVecs);
  std::vector<std::set<unsigned>> O(NumVecs);
  // The element-wise comparison walks the whole window, so it runs every
  // few steps; the count is compared after every step.
  auto ExpectSame = [&](unsigned K, int Step) {
    ASSERT_EQ(V[K].count(), O[K].size()) << "vector " << K << " step " << Step;
    if (Step % 8 == 0) {
      ASSERT_EQ(bitsOf(V[K]), O[K]) << "vector " << K << " step " << Step;
    }
  };
  for (int Step = 0; Step < 10000; ++Step) {
    unsigned A = Rng() % NumVecs;
    unsigned B = Rng() % NumVecs;
    switch (Rng() % 10) {
    case 0:
    case 1:
    case 2: {
      unsigned I = RandomIdx();
      EXPECT_EQ(V[A].set(I), O[A].insert(I).second) << Step;
      break;
    }
    case 3: {
      unsigned I = O[A].empty() || Rng() % 2 ? RandomIdx() : *O[A].begin();
      V[A].reset(I);
      O[A].erase(I);
      break;
    }
    case 4: {
      std::set<unsigned> Expect = O[A];
      Expect.insert(O[B].begin(), O[B].end());
      EXPECT_EQ(V[A].unionWith(V[B]), Expect != O[A]) << Step;
      O[A] = Expect;
      break;
    }
    case 5: {
      if (A == B)
        break;
      unsigned C = (B + 1) % NumVecs;
      if (C == A)
        C = (C + 1) % NumVecs;
      std::set<unsigned> Added;
      for (unsigned I : O[B])
        if (!O[A].count(I))
          Added.insert(I);
      std::set<unsigned> Words;
      for (unsigned I : Added)
        Words.insert(I / BitVector::WordBits);
      EXPECT_EQ(V[A].unionWithDiff(V[B], V[C]), Words.size()) << Step;
      O[A].insert(Added.begin(), Added.end());
      O[C].insert(Added.begin(), Added.end());
      ExpectSame(C, Step);
      break;
    }
    case 6: {
      std::set<unsigned> Expect;
      for (unsigned I : O[A])
        if (!O[B].count(I))
          Expect.insert(I);
      BitVector D = V[A].diff(V[B]);
      ASSERT_EQ(D.count(), Expect.size()) << Step;
      if (Step % 8 == 0) {
        ASSERT_EQ(bitsOf(D), Expect) << Step;
      }
      bool Meets = false;
      for (unsigned I : O[A])
        Meets |= O[B].count(I) != 0;
      EXPECT_EQ(V[A].intersects(V[B]), Meets) << Step;
      EXPECT_EQ(V[A] == V[B], O[A] == O[B]) << Step;
      break;
    }
    case 7: {
      // Keeps the sets small: intersections and clears drain them.
      if (Rng() % 2 == 0) {
        V[A].clear();
        O[A].clear();
        break;
      }
      std::set<unsigned> Expect;
      for (unsigned I : O[A])
        if (O[B].count(I))
          Expect.insert(I);
      V[A].intersectWith(V[B]);
      O[A] = Expect;
      break;
    }
    case 8: {
      unsigned From = RandomIdx();
      auto It = O[A].lower_bound(From);
      int Expect = It == O[A].end() || From >= V[A].size()
                       ? -1
                       : static_cast<int>(*It);
      EXPECT_EQ(V[A].findNext(From), Expect) << Step;
      unsigned I = RandomIdx();
      EXPECT_EQ(V[A].test(I), O[A].count(I) != 0) << Step;
      break;
    }
    case 9: {
      unsigned SetWords = 0;
      unsigned Prev = ~0u;
      V[A].forEachSetWord([&](size_t I, BitVector::Word W) {
        EXPECT_NE(W, 0u);
        EXPECT_TRUE(Prev == ~0u || I > Prev);
        Prev = static_cast<unsigned>(I);
        for (; W; W &= W - 1) {
          unsigned Bit = static_cast<unsigned>(I * BitVector::WordBits +
                                               __builtin_ctzll(W));
          EXPECT_TRUE(O[A].count(Bit)) << Step;
        }
        ++SetWords;
      });
      EXPECT_EQ(V[A].numSetWords(), SetWords) << Step;
      EXPECT_LE(V[A].storedWords(),
                (V[A].size() + BitVector::WordBits - 1) / BitVector::WordBits);
      break;
    }
    }
    ExpectSame(A, Step);
    if (HasFatalFailure())
      return;
  }
  for (unsigned K = 0; K != NumVecs; ++K)
    EXPECT_EQ(bitsOf(V[K]), O[K]) << "vector " << K;
}

} // namespace
