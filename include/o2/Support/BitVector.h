//===- o2/Support/BitVector.h - Windowed bit vector ------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dynamically sized set of bits with word-at-a-time set operations,
/// used for points-to sets and reachability masks.
///
/// The vector has a logical size of NumBits, but stores only a window of
/// words: the window covers the word indices [Base, Base + NumWords), and
/// every word outside that window is zero. A points-to set over a module
/// with thousands of objects usually holds a handful of nearby object
/// numbers, so it stores one or two words instead of one per 64 objects.
/// set() and the unions grow the window on whichever side they need, and
/// only over words that receive bits; ensureSize() only raises NumBits.
/// The window never reaches past the last word of NumBits, so a set never
/// stores more than the dense vector of the same size would.
///
/// A window of one word lives inside the object; the vector allocates
/// only when its window grows past one word, and keeps that allocation
/// (like std::vector) until it is destroyed or moved from. Most points-to
/// sets never spill.
///
/// Binary operations accept operands with different windows; the word
/// indices that forEachSetWord() reports are absolute.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_BITVECTOR_H
#define O2_SUPPORT_BITVECTOR_H

#include "o2/Support/Compiler.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

namespace o2 {

class BitVector {
public:
  using Word = uint64_t;
  static constexpr unsigned WordBits = 64;

  BitVector() = default;
  explicit BitVector(unsigned NumBits, bool Value = false) : NumBits(NumBits) {
    if (Value) {
      growWindow(0, numWordsFor(NumBits));
      std::fill(data(), data() + NumWords, ~Word(0));
      clearUnusedBits();
    }
  }

  BitVector(const BitVector &RHS)
      : NumBits(RHS.NumBits), Base(RHS.Base), NumWords(RHS.NumWords) {
    if (NumWords > 1) {
      Heap = new Word[NumWords];
      Capacity = NumWords;
    }
    std::copy(RHS.data(), RHS.data() + NumWords, data());
  }

  BitVector(BitVector &&RHS) noexcept
      : NumBits(RHS.NumBits), Base(RHS.Base), NumWords(RHS.NumWords),
        Capacity(RHS.Capacity) {
    if (RHS.isInline())
      Inline = RHS.Inline;
    else
      Heap = RHS.Heap;
    RHS.Base = RHS.NumWords = 0;
    RHS.Capacity = 1;
  }

  BitVector &operator=(const BitVector &RHS) {
    if (this == &RHS)
      return *this;
    if (RHS.NumWords > Capacity) {
      releaseHeap();
      Heap = new Word[RHS.NumWords];
      Capacity = RHS.NumWords;
    }
    NumBits = RHS.NumBits;
    Base = RHS.Base;
    NumWords = RHS.NumWords;
    std::copy(RHS.data(), RHS.data() + NumWords, data());
    return *this;
  }

  BitVector &operator=(BitVector &&RHS) noexcept {
    if (this == &RHS)
      return *this;
    releaseHeap();
    NumBits = RHS.NumBits;
    Base = RHS.Base;
    NumWords = RHS.NumWords;
    Capacity = RHS.Capacity;
    if (RHS.isInline())
      Inline = RHS.Inline;
    else
      Heap = RHS.Heap;
    RHS.Base = RHS.NumWords = 0;
    RHS.Capacity = 1;
    return *this;
  }

  ~BitVector() { releaseHeap(); }

  unsigned size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  /// Number of words the window stores (a memory measure; the stored
  /// words may include zero words).
  size_t storedWords() const { return NumWords; }

  /// True while the window is held inside the object (it has never grown
  /// past one word, or it was moved from).
  bool isInline() const { return Capacity == 1; }

  /// Grows (never shrinks) to hold at least \p N bits; new bits are zero.
  /// Allocates nothing: the window grows only when bits are set.
  void ensureSize(unsigned N) {
    if (N > NumBits)
      NumBits = N;
  }

  void resize(unsigned N, bool Value = false) {
    unsigned OldBits = NumBits;
    NumBits = N;
    if (N < OldBits) {
      size_t EndWord = numWordsFor(N);
      if (Base >= EndWord)
        NumWords = 0;
      else if (endWord() > EndWord)
        NumWords = static_cast<unsigned>(EndWord - Base);
      if (NumWords == 0)
        Base = 0;
      clearUnusedBits();
      return;
    }
    if (!Value || N == OldBits)
      return;
    // Bits [OldBits, N) become set: cover their words, filling the partial
    // old last word from OldBits upwards and every later word completely.
    size_t FirstWord = OldBits / WordBits;
    growWindow(FirstWord, numWordsFor(N));
    Word *W = data();
    W[FirstWord - Base] |= ~Word(0) << (OldBits % WordBits);
    std::fill(W + (FirstWord + 1 - Base), W + NumWords, ~Word(0));
    clearUnusedBits();
  }

  bool test(unsigned Idx) const {
    if (Idx >= NumBits)
      return false;
    return (word(Idx / WordBits) >> (Idx % WordBits)) & 1;
  }

  bool operator[](unsigned Idx) const { return test(Idx); }

  /// The word at absolute word index \p WordIdx (zero outside the window).
  Word word(size_t WordIdx) const {
    return WordIdx >= Base && WordIdx < endWord() ? data()[WordIdx - Base]
                                                  : Word(0);
  }

  /// Sets bit \p Idx, growing if needed; returns true if the bit was newly
  /// set (useful for worklist algorithms).
  bool set(unsigned Idx) {
    ensureSize(Idx + 1);
    size_t WordIdx = Idx / WordBits;
    growWindow(WordIdx, WordIdx + 1);
    Word Mask = Word(1) << (Idx % WordBits);
    Word &W = data()[WordIdx - Base];
    if (W & Mask)
      return false;
    W |= Mask;
    return true;
  }

  void reset(unsigned Idx) {
    size_t WordIdx = Idx / WordBits;
    if (Idx >= NumBits || WordIdx < Base || WordIdx >= endWord())
      return;
    data()[WordIdx - Base] &= ~(Word(1) << (Idx % WordBits));
  }

  /// Clears every bit; the size and any allocation stay.
  void clear() {
    NumWords = 0;
    Base = 0;
  }

  /// this |= RHS. Returns true if any bit changed.
  bool unionWith(const BitVector &RHS) { return unionWithChanged(RHS); }

  /// this |= RHS, word-at-a-time; returns true if any bit was newly added.
  /// The name documents call sites that rely on the bulk word-level path
  /// (bulk points-to propagation) rather than per-bit set() loops.
  bool unionWithChanged(const BitVector &RHS) {
    ensureSize(RHS.NumBits);
    if (&RHS == this)
      return false;
    auto [Lo, Hi] = RHS.nonzeroSpan();
    if (Lo == Hi)
      return false;
    growWindow(Lo, Hi);
    Word *W = data() + (Lo - Base);
    const Word *R = RHS.data() + (Lo - RHS.Base);
    bool Changed = false;
    for (size_t I = 0, E = Hi - Lo; I != E; ++I) {
      Word Old = W[I];
      W[I] |= R[I];
      Changed |= W[I] != Old;
    }
    return Changed;
  }

  /// this |= RHS; the bits newly added here (RHS & ~old(this)) are also
  /// OR'd into \p NewBits. Returns the number of words that gained bits
  /// (zero when nothing was added). Neither this vector nor \p NewBits
  /// grows past the words that gain bits. Safe when &RHS == this (a
  /// self-union adds nothing); \p NewBits must be a distinct vector.
  unsigned unionWithDiff(const BitVector &RHS, BitVector &NewBits) {
    ensureSize(RHS.NumBits);
    NewBits.ensureSize(RHS.NumBits);
    if (&RHS == this)
      return 0;
    // First pass: the span of words in which RHS adds bits.
    const Word *R = RHS.data();
    size_t Lo = 0, Hi = 0;
    for (size_t I = 0; I != RHS.NumWords; ++I)
      if (R[I] & ~word(RHS.Base + I)) {
        if (Hi == 0)
          Lo = RHS.Base + I;
        Hi = RHS.Base + I + 1;
      }
    if (Hi == 0)
      return 0;
    growWindow(Lo, Hi);
    NewBits.growWindow(Lo, Hi);
    R += Lo - RHS.Base;
    Word *W = data() + (Lo - Base);
    Word *N = NewBits.data() + (Lo - NewBits.Base);
    unsigned Gained = 0;
    for (size_t I = 0, E = Hi - Lo; I != E; ++I) {
      Word Added = R[I] & ~W[I];
      if (!Added)
        continue;
      W[I] |= Added;
      N[I] |= Added;
      ++Gained;
    }
    return Gained;
  }

  /// Returns this & ~RHS (the bits only this vector has).
  BitVector diff(const BitVector &RHS) const {
    BitVector Out(*this);
    Word *W = Out.data();
    for (size_t I = 0; I != NumWords; ++I)
      W[I] &= ~RHS.word(Base + I);
    return Out;
  }

  /// Calls \p Callback(WordIndex, WordValue) for every nonzero word, in
  /// ascending order; WordIndex is absolute (bit I lives in word
  /// I / WordBits).
  template <typename CallbackT> void forEachSetWord(CallbackT Callback) const {
    const Word *W = data();
    for (size_t I = 0; I != NumWords; ++I)
      if (W[I])
        Callback(Base + I, W[I]);
  }

  /// Number of nonzero words (the unit bulk-propagation statistics count).
  unsigned numSetWords() const {
    unsigned N = 0;
    for (Word W : words())
      N += W != 0;
    return N;
  }

  /// this &= RHS.
  void intersectWith(const BitVector &RHS) {
    Word *W = data();
    for (size_t I = 0; I != NumWords; ++I)
      W[I] &= RHS.word(Base + I);
  }

  bool intersects(const BitVector &RHS) const {
    size_t Lo = std::max(Base, RHS.Base);
    size_t Hi = std::min(endWord(), RHS.endWord());
    for (size_t I = Lo; I < Hi; ++I)
      if (data()[I - Base] & RHS.data()[I - RHS.Base])
        return true;
    return false;
  }

  /// Number of set bits.
  unsigned count() const {
    unsigned N = 0;
    for (Word W : words())
      N += static_cast<unsigned>(__builtin_popcountll(W));
    return N;
  }

  bool any() const {
    for (Word W : words())
      if (W)
        return true;
    return false;
  }

  bool none() const { return !any(); }

  /// Index of the first set bit, or -1 if none.
  int findFirst() const { return findNext(0); }

  /// Index of the first set bit at position >= \p From, or -1.
  int findNext(unsigned From) const {
    if (From >= NumBits || NumWords == 0)
      return -1;
    const Word *Words = data();
    size_t WordIdx = From / WordBits;
    Word W;
    if (WordIdx < Base) {
      WordIdx = Base;
      W = Words[0];
    } else {
      W = word(WordIdx) & (~Word(0) << (From % WordBits));
    }
    while (true) {
      if (W)
        return static_cast<int>(WordIdx * WordBits +
                                static_cast<unsigned>(__builtin_ctzll(W)));
      if (++WordIdx >= endWord())
        return -1;
      W = Words[WordIdx - Base];
    }
  }

  /// Set equality; sizes, windows and representations do not matter.
  bool operator==(const BitVector &RHS) const {
    size_t Lo = std::min(Base, RHS.Base);
    size_t Hi = std::max(endWord(), RHS.endWord());
    for (size_t I = Lo; I < Hi; ++I)
      if (word(I) != RHS.word(I))
        return false;
    return true;
  }

  /// Iterates over indices of set bits.
  class SetBitIterator {
  public:
    SetBitIterator(const BitVector &BV, int Pos) : BV(BV), Pos(Pos) {}
    unsigned operator*() const { return static_cast<unsigned>(Pos); }
    SetBitIterator &operator++() {
      Pos = BV.findNext(static_cast<unsigned>(Pos) + 1);
      return *this;
    }
    bool operator!=(const SetBitIterator &RHS) const { return Pos != RHS.Pos; }

  private:
    const BitVector &BV;
    int Pos;
  };

  SetBitIterator begin() const { return SetBitIterator(*this, findFirst()); }
  SetBitIterator end() const { return SetBitIterator(*this, -1); }

private:
  /// The stored window as a range of words.
  struct WordRange {
    const Word *B, *E;
    const Word *begin() const { return B; }
    const Word *end() const { return E; }
  };

  static size_t numWordsFor(unsigned Bits) {
    return (size_t(Bits) + WordBits - 1) / WordBits;
  }

  Word *data() { return isInline() ? &Inline : Heap; }
  const Word *data() const { return isInline() ? &Inline : Heap; }
  WordRange words() const { return {data(), data() + NumWords}; }

  size_t endWord() const { return size_t(Base) + NumWords; }

  void releaseHeap() {
    if (!isInline())
      delete[] Heap;
  }

  /// The window [first, last + 1) of words of this vector that are
  /// nonzero, or an empty range.
  std::pair<size_t, size_t> nonzeroSpan() const {
    const Word *W = data();
    size_t Lo = 0, Hi = NumWords;
    while (Lo != Hi && !W[Lo])
      ++Lo;
    while (Hi != Lo && !W[Hi - 1])
      --Hi;
    return {Base + Lo, Base + Hi};
  }

  /// Widens the window to cover words [Lo, Hi); new words are zero. The
  /// caller has already sized NumBits to cover them. Spills to the heap
  /// when the window outgrows its storage, at least doubling it.
  void growWindow(size_t Lo, size_t Hi) {
    if (NumWords == 0)
      Base = static_cast<unsigned>(Lo);
    size_t NewLo = std::min<size_t>(Lo, Base);
    size_t NewHi = std::max(Hi, endWord());
    if (NewHi - NewLo == NumWords)
      return;
    size_t Shift = Base - NewLo;
    unsigned NewWords = static_cast<unsigned>(NewHi - NewLo);
    Word *Old = data();
    Word *New = Old;
    if (NewWords > Capacity) {
      unsigned NewCap = std::max(NewWords, 2 * Capacity);
      New = new Word[NewCap];
      std::copy(Old, Old + NumWords, New + Shift);
      releaseHeap();
      Heap = New;
      Capacity = NewCap;
    } else if (Shift) {
      std::memmove(New + Shift, Old, NumWords * sizeof(Word));
    }
    std::fill(New, New + Shift, Word(0));
    std::fill(New + Shift + NumWords, New + NewWords, Word(0));
    Base = static_cast<unsigned>(NewLo);
    NumWords = NewWords;
  }

  void clearUnusedBits() {
    if (NumBits % WordBits != 0 && NumWords != 0 &&
        endWord() == numWordsFor(NumBits))
      data()[NumWords - 1] &= (Word(1) << (NumBits % WordBits)) - 1;
  }

  unsigned NumBits = 0;
  /// Absolute word index of the window's first word.
  unsigned Base = 0;
  unsigned NumWords = 0;
  /// Words the storage holds: 1 for the inline word, more once spilled.
  unsigned Capacity = 1;
  union {
    Word Inline = 0;
    Word *Heap;
  };
};

// A points-to node holds two of these; the inline word must not cost
// space over the (base, size, pointer) a heap-only window would need.
static_assert(sizeof(BitVector) == 3 * sizeof(uint64_t),
              "BitVector grew past three words");

} // namespace o2

#endif // O2_SUPPORT_BITVECTOR_H
