//===- o2/Support/U64Map.h - Open-addressing 64-bit key tables --*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hash map and a hash set over packed 64-bit keys, with linear probing
/// in one flat slot array. An insert allocates nothing unless the table
/// grows, which is what the pointer analysis needs for its sparse keys
/// (field nodes, copy edges, heap objects, origins): node-based standard
/// containers allocate once per entry.
///
/// The all-ones key marks an empty slot and cannot be stored. Iteration
/// order is slot order: deterministic for a given insertion sequence, but
/// not insertion order.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_U64MAP_H
#define O2_SUPPORT_U64MAP_H

#include "o2/Support/Compiler.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace o2 {

namespace detail {

/// Fibonacci hashing: the top 64 - \p Shift bits of Key * 2^64/phi. The
/// multiply carries every key bit into the top bits, so keys that differ
/// only in their low bits (contexts, field keys) or only in their high
/// bits (object, site and function numbers) still spread.
inline size_t slotOf(uint64_t Key, unsigned Shift) {
  return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ULL) >> Shift);
}

/// The power-of-two slot count that holds \p N entries at most half full.
inline size_t tableSizeFor(size_t N) {
  size_t Size = 16;
  while (Size < 2 * N)
    Size *= 2;
  return Size;
}

} // namespace detail

/// Map from 64-bit keys to values of type \p ValueT.
template <typename ValueT> class U64Map {
public:
  static constexpr uint64_t EmptyKey = ~uint64_t(0);

  /// Returns the value slot of \p Key and whether it was just inserted
  /// (with \p Init). The pointer is invalidated by the next insertion.
  std::pair<ValueT *, bool> tryEmplace(uint64_t Key, ValueT Init = ValueT()) {
    assert(Key != EmptyKey && "reserved key");
    if ((Count + 1) * 2 > Slots.size())
      grow();
    size_t I = slotOf(Key);
    while (Slots[I].Key != EmptyKey) {
      if (Slots[I].Key == Key)
        return {&Slots[I].Value, false};
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I].Key = Key;
    Slots[I].Value = std::move(Init);
    ++Count;
    return {&Slots[I].Value, true};
  }

  /// The value of \p Key, or null if absent.
  const ValueT *find(uint64_t Key) const {
    if (Slots.empty())
      return nullptr;
    for (size_t I = slotOf(Key);; I = (I + 1) & (Slots.size() - 1)) {
      if (Slots[I].Key == Key)
        return &Slots[I].Value;
      if (Slots[I].Key == EmptyKey)
        return nullptr;
    }
  }

  size_t size() const { return Count; }

  /// Sizes the table for \p N entries, so that many inserts never grow it.
  void reserve(size_t N) {
    if (2 * N > Slots.size())
      rehash(detail::tableSizeFor(N));
  }

  /// Calls \p Fn(key, value) for every entry, in slot order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (const Slot &S : Slots)
      if (S.Key != EmptyKey)
        Fn(S.Key, S.Value);
  }

private:
  struct Slot {
    uint64_t Key = EmptyKey;
    ValueT Value = ValueT();
  };

  size_t slotOf(uint64_t Key) const { return detail::slotOf(Key, Shift); }

  void grow() { rehash(Slots.empty() ? 16 : Slots.size() * 2); }

  void rehash(size_t NewSize) {
    std::vector<Slot> Old = std::exchange(Slots, std::vector<Slot>(NewSize));
    Shift = 64 - static_cast<unsigned>(__builtin_ctzll(NewSize));
    for (Slot &S : Old) {
      if (S.Key == EmptyKey)
        continue;
      size_t I = slotOf(S.Key);
      while (Slots[I].Key != EmptyKey)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = std::move(S);
    }
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
  unsigned Shift = 64; ///< 64 - log2(Slots.size())
};

/// Set of 64-bit keys.
class U64Set {
public:
  static constexpr uint64_t EmptyKey = ~uint64_t(0);

  /// Inserts \p Key; true if it was absent.
  bool insert(uint64_t Key) {
    assert(Key != EmptyKey && "reserved key");
    if ((Count + 1) * 2 > Slots.size())
      grow();
    size_t I = slotOf(Key);
    while (Slots[I] != EmptyKey) {
      if (Slots[I] == Key)
        return false;
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I] = Key;
    ++Count;
    return true;
  }

  size_t size() const { return Count; }

  /// Sizes the table for \p N keys, so that many inserts never grow it.
  void reserve(size_t N) {
    if (2 * N > Slots.size())
      rehash(detail::tableSizeFor(N));
  }

private:
  size_t slotOf(uint64_t Key) const { return detail::slotOf(Key, Shift); }

  void grow() { rehash(Slots.empty() ? 16 : Slots.size() * 2); }

  void rehash(size_t NewSize) {
    std::vector<uint64_t> Old =
        std::exchange(Slots, std::vector<uint64_t>(NewSize, EmptyKey));
    Shift = 64 - static_cast<unsigned>(__builtin_ctzll(NewSize));
    for (uint64_t K : Old) {
      if (K == EmptyKey)
        continue;
      size_t I = slotOf(K);
      while (Slots[I] != EmptyKey)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = K;
    }
  }

  std::vector<uint64_t> Slots;
  size_t Count = 0;
  unsigned Shift = 64; ///< 64 - log2(Slots.size())
};

} // namespace o2

#endif // O2_SUPPORT_U64MAP_H
