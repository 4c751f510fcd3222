//===- o2/Support/InternTable.h - Sequence interning ------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns small sequences of 32-bit IDs into dense handles. This is the
/// backbone of two paper mechanisms: calling contexts (k-CFA strings,
/// k-obj strings, origin chains) and canonical lockset IDs (Section 4.1's
/// "compact representation of locksets").
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_INTERNTABLE_H
#define O2_SUPPORT_INTERNTABLE_H

#include "o2/Support/ArrayRef.h"
#include "o2/Support/Compiler.h"

#include <cstdint>
#include <vector>

namespace o2 {

/// Maps sequences of uint32_t to dense uint32_t handles. Handle 0 is always
/// the empty sequence. Lookup of a handle's elements is O(1). Handles are
/// found through an open-addressing table of handles, so interning a new
/// sequence allocates nothing unless a vector grows.
class InternTable {
public:
  using Handle = uint32_t;

  InternTable() {
    // Pre-intern the empty sequence as handle 0.
    Offsets.push_back(0);
    Lengths.push_back(0);
    Slots.assign(16, NoHandle);
    Slots[hashOf({}) & (Slots.size() - 1)] = Empty;
  }

  /// Interns \p Elems, returning its dense handle.
  Handle intern(ArrayRef<uint32_t> Elems) {
    size_t Mask = Slots.size() - 1;
    size_t I = hashOf(Elems) & Mask;
    for (; Slots[I] != NoHandle; I = (I + 1) & Mask)
      if (get(Slots[I]) == Elems)
        return Slots[I];
    Handle NewHandle = static_cast<Handle>(Lengths.size());
    Offsets.push_back(static_cast<uint32_t>(Pool.size()));
    Lengths.push_back(static_cast<uint32_t>(Elems.size()));
    Pool.insert(Pool.end(), Elems.begin(), Elems.end());
    Slots[I] = NewHandle;
    if (Lengths.size() * 2 > Slots.size())
      grow();
    return NewHandle;
  }

  /// Returns the elements of \p H. The view is invalidated by intern().
  ArrayRef<uint32_t> get(Handle H) const {
    assert(H < Lengths.size() && "invalid intern handle");
    return ArrayRef<uint32_t>(Pool.data() + Offsets[H], Lengths[H]);
  }

  size_t size() const { return Lengths.size(); }

  static constexpr Handle Empty = 0;

private:
  static constexpr Handle NoHandle = ~Handle(0);

  static uint64_t hashOf(ArrayRef<uint32_t> Elems) {
    uint64_t H = 0xcbf29ce484222325ULL;
    for (uint32_t E : Elems) {
      H ^= E;
      H *= 0x100000001b3ULL;
    }
    return H ^ (H >> 29);
  }

  void grow() {
    Slots.assign(Slots.size() * 2, NoHandle);
    size_t Mask = Slots.size() - 1;
    for (Handle H = 0; H != Lengths.size(); ++H) {
      size_t I = hashOf(get(H)) & Mask;
      while (Slots[I] != NoHandle)
        I = (I + 1) & Mask;
      Slots[I] = H;
    }
  }

  std::vector<uint32_t> Pool;
  std::vector<uint32_t> Offsets;
  std::vector<uint32_t> Lengths;
  /// Open-addressing table of handles (NoHandle = empty slot).
  std::vector<Handle> Slots;
};

} // namespace o2

#endif // O2_SUPPORT_INTERNTABLE_H
