//===- Arena.cpp - Bump allocation in slabs -------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/Arena.h"

#include <algorithm>

using namespace o2;

/// Slabs double from the first size up to the largest one; a request too
/// big for a quarter of the largest slab gets a slab of its own.
static constexpr size_t FirstSlabBytes = size_t(16) << 10;
static constexpr size_t MaxSlabBytes = size_t(1) << 20;

BumpAllocator::~BumpAllocator() {
  while (SlabHeader *S = Last) {
    Last = S->Prev;
    unpoison(S, S->Size);
    ::operator delete(static_cast<void *>(S));
  }
}

BumpAllocator::SlabHeader *BumpAllocator::newSlab(size_t Bytes) {
  void *Mem = ::operator new(Bytes);
  auto *S = new (Mem) SlabHeader{Last, Bytes};
  Last = S;
  ++NumSlabs;
  poison(S + 1, Bytes - sizeof(SlabHeader));
  return S;
}

void *BumpAllocator::allocateSlow(size_t Size, size_t Align) {
  if (Size > MaxSlabBytes / 4) {
    // Keep the current slab's room for the small objects that follow.
    SlabHeader *S = newSlab(sizeof(SlabHeader) + Size);
    unpoison(S + 1, Size);
    return S + 1;
  }
  size_t Bytes = std::min(FirstSlabBytes << std::min<size_t>(NumSlabs, 16),
                          MaxSlabBytes);
  SlabHeader *S = newSlab(Bytes);
  Cur = reinterpret_cast<char *>(S + 1);
  End = reinterpret_cast<char *>(S) + Bytes;
  return allocate(Size, Align);
}

void *BumpAllocator::grow(void *Data, size_t Size, size_t OldCap,
                          size_t NewCap, size_t Align) {
  char *Old = static_cast<char *>(Data);
  if (Old && Old + OldCap == Cur &&
      NewCap - OldCap <= static_cast<size_t>(End - Cur)) {
    unpoison(Cur, NewCap - OldCap);
    Cur = Old + NewCap;
    return Old;
  }
  void *New = allocate(NewCap, Align);
  if (Size)
    std::memcpy(New, Old, Size);
  if (Old)
    poison(Old, OldCap);
  return New;
}
