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
/// words: Words covers the word indices [Base, Base + Words.size()), and
/// every word outside that window is zero. A points-to set over a module
/// with thousands of objects usually holds a handful of nearby object
/// numbers, so it stores one or two words instead of one per 64 objects.
/// set() and the unions grow the window on whichever side they need, and
/// only over words that receive bits; ensureSize() only raises NumBits.
/// The window never reaches past the last word of NumBits, so a set never
/// stores more than the dense vector of the same size would.
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
#include <utility>
#include <vector>

namespace o2 {

class BitVector {
public:
  using Word = uint64_t;
  static constexpr unsigned WordBits = 64;

  BitVector() = default;
  explicit BitVector(unsigned NumBits, bool Value = false) : NumBits(NumBits) {
    if (Value) {
      Words.assign(numWordsFor(NumBits), ~Word(0));
      clearUnusedBits();
    }
  }

  unsigned size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  /// Number of words the window stores (a memory measure; the stored
  /// words may include zero words).
  size_t storedWords() const { return Words.size(); }

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
        Words.clear();
      else if (Base + Words.size() > EndWord)
        Words.resize(EndWord - Base);
      if (Words.empty())
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
    Words[FirstWord - Base] |= ~Word(0) << (OldBits % WordBits);
    std::fill(Words.begin() + (FirstWord + 1 - Base), Words.end(), ~Word(0));
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
    return WordIdx >= Base && WordIdx < endWord() ? Words[WordIdx - Base]
                                                  : Word(0);
  }

  /// Sets bit \p Idx, growing if needed; returns true if the bit was newly
  /// set (useful for worklist algorithms).
  bool set(unsigned Idx) {
    ensureSize(Idx + 1);
    size_t WordIdx = Idx / WordBits;
    growWindow(WordIdx, WordIdx + 1);
    Word Mask = Word(1) << (Idx % WordBits);
    Word &W = Words[WordIdx - Base];
    if (W & Mask)
      return false;
    W |= Mask;
    return true;
  }

  void reset(unsigned Idx) {
    size_t WordIdx = Idx / WordBits;
    if (Idx >= NumBits || WordIdx < Base || WordIdx >= endWord())
      return;
    Words[WordIdx - Base] &= ~(Word(1) << (Idx % WordBits));
  }

  /// Clears every bit; the size stays.
  void clear() {
    Words.clear();
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
    bool Changed = false;
    for (size_t I = Lo; I != Hi; ++I) {
      Word &W = Words[I - Base];
      Word Old = W;
      W |= RHS.Words[I - RHS.Base];
      Changed |= W != Old;
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
    size_t Lo = 0, Hi = 0;
    for (size_t I = RHS.Base, E = RHS.endWord(); I != E; ++I)
      if (RHS.Words[I - RHS.Base] & ~word(I)) {
        if (Hi == 0)
          Lo = I;
        Hi = I + 1;
      }
    if (Hi == 0)
      return 0;
    growWindow(Lo, Hi);
    NewBits.growWindow(Lo, Hi);
    unsigned Gained = 0;
    for (size_t I = Lo; I != Hi; ++I) {
      Word &W = Words[I - Base];
      Word Added = RHS.Words[I - RHS.Base] & ~W;
      if (!Added)
        continue;
      W |= Added;
      NewBits.Words[I - NewBits.Base] |= Added;
      ++Gained;
    }
    return Gained;
  }

  /// Returns this & ~RHS (the bits only this vector has).
  BitVector diff(const BitVector &RHS) const {
    BitVector Out;
    Out.NumBits = NumBits;
    Out.Base = Base;
    Out.Words.resize(Words.size());
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Out.Words[I] = Words[I] & ~RHS.word(Base + I);
    return Out;
  }

  /// Calls \p Callback(WordIndex, WordValue) for every nonzero word, in
  /// ascending order; WordIndex is absolute (bit I lives in word
  /// I / WordBits).
  template <typename CallbackT> void forEachSetWord(CallbackT Callback) const {
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      if (Words[I])
        Callback(Base + I, Words[I]);
  }

  /// Number of nonzero words (the unit bulk-propagation statistics count).
  unsigned numSetWords() const {
    unsigned N = 0;
    for (Word W : Words)
      N += W != 0;
    return N;
  }

  /// this &= RHS.
  void intersectWith(const BitVector &RHS) {
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= RHS.word(Base + I);
  }

  bool intersects(const BitVector &RHS) const {
    size_t Lo = std::max(Base, RHS.Base);
    size_t Hi = std::min(endWord(), RHS.endWord());
    for (size_t I = Lo; I < Hi; ++I)
      if (Words[I - Base] & RHS.Words[I - RHS.Base])
        return true;
    return false;
  }

  /// Number of set bits.
  unsigned count() const {
    unsigned N = 0;
    for (Word W : Words)
      N += static_cast<unsigned>(__builtin_popcountll(W));
    return N;
  }

  bool any() const {
    for (Word W : Words)
      if (W)
        return true;
    return false;
  }

  bool none() const { return !any(); }

  /// Index of the first set bit, or -1 if none.
  int findFirst() const { return findNext(0); }

  /// Index of the first set bit at position >= \p From, or -1.
  int findNext(unsigned From) const {
    if (From >= NumBits)
      return -1;
    size_t WordIdx = From / WordBits;
    Word W;
    if (WordIdx < Base) {
      WordIdx = Base;
      W = Words.empty() ? 0 : Words[0];
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

  /// Set equality; sizes and windows do not matter.
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
  static size_t numWordsFor(unsigned Bits) {
    return (size_t(Bits) + WordBits - 1) / WordBits;
  }

  size_t endWord() const { return Base + Words.size(); }

  /// The window [first, last + 1) of words of this vector that are
  /// nonzero, or an empty range.
  std::pair<size_t, size_t> nonzeroSpan() const {
    size_t Lo = 0, Hi = Words.size();
    while (Lo != Hi && !Words[Lo])
      ++Lo;
    while (Hi != Lo && !Words[Hi - 1])
      --Hi;
    return {Base + Lo, Base + Hi};
  }

  /// Widens the window to cover words [Lo, Hi); new words are zero. The
  /// caller has already sized NumBits to cover them.
  void growWindow(size_t Lo, size_t Hi) {
    if (Words.empty()) {
      Base = static_cast<unsigned>(Lo);
      Words.assign(Hi - Lo, 0);
      return;
    }
    if (Lo < Base) {
      Words.insert(Words.begin(), Base - Lo, 0);
      Base = static_cast<unsigned>(Lo);
    }
    if (Hi > endWord())
      Words.resize(Hi - Base, 0);
  }

  void clearUnusedBits() {
    if (NumBits % WordBits != 0 && !Words.empty() &&
        endWord() == numWordsFor(NumBits))
      Words.back() &= (Word(1) << (NumBits % WordBits)) - 1;
  }

  unsigned NumBits = 0;
  /// Absolute word index of Words[0].
  unsigned Base = 0;
  std::vector<Word> Words;
};

} // namespace o2

#endif // O2_SUPPORT_BITVECTOR_H
