//===- o2/IR/NameIndex.h - Finding IR objects by name -----------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The name hash that every IR lookup compares first, and NameIndex, the
/// Module's table from a class, global or free-function name to the
/// object: open addressing over (hash, object) slots with linear probing,
/// so registering a name makes no allocation of its own.
///
//===----------------------------------------------------------------------===//

#ifndef O2_IR_NAMEINDEX_H
#define O2_IR_NAMEINDEX_H

#include <cassert>
#include <cstdint>
#include <string_view>
#include <vector>

namespace o2 {

/// A 32-bit FNV-1a hash of a declared name. Name lookups scan a compact
/// array of these before comparing any string.
inline uint32_t hashName(std::string_view Name) {
  uint32_t H = 2166136261u;
  for (char C : Name)
    H = (H ^ static_cast<unsigned char>(C)) * 16777619u;
  return H;
}

/// Objects of type \p T keyed by `T::getName()`; a name maps to at most
/// one object. The objects must outlive the index.
template <typename T> class NameIndex {
public:
  T *find(std::string_view Name) const {
    if (Slots.empty())
      return nullptr;
    const uint32_t H = hashName(Name);
    const size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask; Slots[I].Obj; I = (I + 1) & Mask)
      if (Slots[I].Hash == H && Slots[I].Obj->getName() == Name)
        return Slots[I].Obj;
    return nullptr;
  }

  /// Adds \p Obj under its name; false (and no change) if the name is
  /// already taken.
  bool insert(T *Obj) {
    if ((Size + 1) * 2 > Slots.size())
      grow();
    const uint32_t H = hashName(Obj->getName());
    const size_t Mask = Slots.size() - 1;
    size_t I = H & Mask;
    for (; Slots[I].Obj; I = (I + 1) & Mask)
      if (Slots[I].Hash == H && Slots[I].Obj->getName() == Obj->getName())
        return false;
    Slots[I] = {H, Obj};
    ++Size;
    return true;
  }

  /// Removes \p Obj if it is the object its name maps to.
  void erase(const T *Obj) {
    if (Slots.empty())
      return;
    const size_t Mask = Slots.size() - 1;
    size_t I = hashName(Obj->getName()) & Mask;
    for (; Slots[I].Obj != Obj; I = (I + 1) & Mask)
      if (!Slots[I].Obj)
        return;
    // Shift the rest of the probe run back over the hole, so every entry
    // stays reachable from its home slot (Knuth's Algorithm R).
    for (size_t J = (I + 1) & Mask; Slots[J].Obj; J = (J + 1) & Mask) {
      size_t Home = Slots[J].Hash & Mask;
      bool HomeInHoleToJ = I <= J ? (I < Home && Home <= J)
                                  : (I < Home || Home <= J);
      if (!HomeInHoleToJ) {
        Slots[I] = Slots[J];
        I = J;
      }
    }
    Slots[I] = {};
    --Size;
  }

private:
  struct Slot {
    uint32_t Hash = 0;
    T *Obj = nullptr;
  };

  void grow() {
    std::vector<Slot> Old(Slots.size() ? Slots.size() * 2 : 16);
    Old.swap(Slots);
    const size_t Mask = Slots.size() - 1;
    for (const Slot &S : Old)
      if (S.Obj) {
        size_t I = S.Hash & Mask;
        while (Slots[I].Obj)
          I = (I + 1) & Mask;
        Slots[I] = S;
      }
  }

  std::vector<Slot> Slots;
  size_t Size = 0;
};

} // namespace o2

#endif // O2_IR_NAMEINDEX_H
