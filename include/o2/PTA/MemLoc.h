//===- o2/PTA/MemLoc.h - Abstract memory locations ----------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MemLoc identifies one abstract memory location the analyses reason
/// about: a field of an abstract object, an abstract array's element
/// pseudo-field "*", or a global (static field). Encoded in one 64-bit
/// key so it can be used directly in hash maps and sorted reports.
///
//===----------------------------------------------------------------------===//

#ifndef O2_PTA_MEMLOC_H
#define O2_PTA_MEMLOC_H

#include "o2/IR/Type.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>

namespace o2 {

class PTAResult;

/// Field key for field-sensitive points-to storage: 0 denotes the array
/// element pseudo-field "*", and FieldId+1 denotes a named field.
using FieldKey = unsigned;
inline constexpr FieldKey ArrayElemKey = 0;
inline FieldKey fieldKeyOf(const Field *F) { return F->getId() + 1; }

class MemLoc {
public:
  MemLoc() = default;

  static MemLoc field(unsigned Obj, FieldKey FK) {
    return MemLoc((uint64_t(Obj) << 32) | FK);
  }

  static MemLoc global(unsigned GlobalId) {
    return MemLoc(GlobalBit | GlobalId);
  }

  bool isGlobal() const { return (Key & GlobalBit) != 0; }

  unsigned object() const {
    assert(!isGlobal() && "global location has no object");
    return static_cast<unsigned>(Key >> 32);
  }

  FieldKey fieldKey() const {
    assert(!isGlobal() && "global location has no field");
    return static_cast<FieldKey>(Key & 0xffffffffu);
  }

  unsigned globalId() const {
    assert(isGlobal() && "not a global location");
    return static_cast<unsigned>(Key & 0xffffffffu);
  }

  uint64_t key() const { return Key; }

  bool operator==(const MemLoc &RHS) const { return Key == RHS.Key; }
  bool operator<(const MemLoc &RHS) const { return Key < RHS.Key; }

  /// Renders the location for reports, e.g. "obj12.f3", "obj4[*]", "@g7".
  std::string toString(const PTAResult &PTA) const;

private:
  explicit MemLoc(uint64_t Key) : Key(Key) {}

  static constexpr uint64_t GlobalBit = uint64_t(1) << 63;

  uint64_t Key = ~uint64_t(0);
};

/// The named field \p Loc stands for, found through its object's class
/// chain. Null for globals, array elements, objects without a class type,
/// and keys the class does not declare.
const Field *fieldOf(MemLoc Loc, const PTAResult &PTA);

} // namespace o2

template <> struct std::hash<o2::MemLoc> {
  size_t operator()(const o2::MemLoc &L) const {
    return std::hash<uint64_t>()(L.key());
  }
};

#endif // O2_PTA_MEMLOC_H
