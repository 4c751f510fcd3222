//===- o2/Support/Arena.h - Bump allocation in slabs ------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BumpAllocator hands out memory from slabs and frees every slab at once
/// when it is destroyed. It never runs a destructor, so it only holds
/// trivially destructible types; ArenaVector and ArenaPtr are the
/// growable array and the element pointer that such types hold instead
/// of std::vector and std::unique_ptr.
///
/// Under AddressSanitizer each slab's unused tail stays poisoned until it
/// is handed out, and an array that grows out of its place is poisoned,
/// so an overrun past the last object or a read through a stale array
/// still reports.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_ARENA_H
#define O2_SUPPORT_ARENA_H

#include "o2/Support/ArrayRef.h"
#include "o2/Support/Compiler.h"
#include "o2/Support/StringRef.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define O2_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define O2_ARENA_ASAN 1
#endif
#endif

#ifdef O2_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace o2 {

class BumpAllocator {
public:
  BumpAllocator() = default;
  BumpAllocator(const BumpAllocator &) = delete;
  BumpAllocator &operator=(const BumpAllocator &) = delete;
  ~BumpAllocator();

  /// \p Size bytes aligned to \p Align (a power of two, at most 16).
  void *allocate(size_t Size, size_t Align) {
    assert(Align && (Align & (Align - 1)) == 0 && Align <= 16 &&
           "unsupported alignment");
    uintptr_t P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) &
                  ~uintptr_t(Align - 1);
    if (O2_UNLIKELY(!Cur || P + Size > reinterpret_cast<uintptr_t>(End)))
      return allocateSlow(Size, Align);
    Cur = reinterpret_cast<char *>(P + Size);
    unpoison(reinterpret_cast<char *>(P), Size);
    return reinterpret_cast<char *>(P);
  }

  template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena runs no destructors");
    return new (allocate(sizeof(T), alignof(T)))
        T(std::forward<ArgTs>(Args)...);
  }

  /// A copy of \p Elems in the arena.
  template <typename T> ArrayRef<T> copyArray(ArrayRef<T> Elems) {
    static_assert(std::is_trivially_copyable_v<T>, "copied bytewise");
    if (Elems.empty())
      return {};
    auto *Data =
        static_cast<T *>(allocate(sizeof(T) * Elems.size(), alignof(T)));
    std::memcpy(static_cast<void *>(Data), Elems.data(),
                sizeof(T) * Elems.size());
    return ArrayRef<T>(Data, Elems.size());
  }

  /// A copy of \p S in the arena (the string pool).
  StringRef copyString(std::string_view S) {
    if (S.empty())
      return {};
    auto *Data = static_cast<char *>(allocate(S.size(), 1));
    std::memcpy(Data, S.data(), S.size());
    return StringRef(Data, S.size());
  }

  /// Makes room for \p NewCap bytes for the array at \p Data, which has
  /// \p OldCap bytes of room and \p Size bytes in use. The array keeps its
  /// place when it was the last allocation and the slab has room;
  /// otherwise its \p Size bytes move and the old room is abandoned.
  void *grow(void *Data, size_t Size, size_t OldCap, size_t NewCap,
             size_t Align);

  /// The slabs allocated so far.
  size_t numSlabs() const { return NumSlabs; }

private:
  struct alignas(16) SlabHeader {
    SlabHeader *Prev;
    size_t Size; ///< bytes, this header included
  };

  void *allocateSlow(size_t Size, size_t Align);
  SlabHeader *newSlab(size_t Bytes);

#ifdef O2_ARENA_ASAN
  static void poison(void *P, size_t Size) {
    ASAN_POISON_MEMORY_REGION(P, Size);
  }
  static void unpoison(void *P, size_t Size) {
    ASAN_UNPOISON_MEMORY_REGION(P, Size);
  }
#else
  static void poison(void *, size_t) {}
  static void unpoison(void *, size_t) {}
#endif

  char *Cur = nullptr;
  char *End = nullptr;
  SlabHeader *Last = nullptr;
  size_t NumSlabs = 0;
};

/// A pointer to an object that an arena owns. It reads like the element
/// of an owning container (`->`, `*`, `get()`) and converts to `T *`, but
/// destroys nothing.
template <typename T> class ArenaPtr {
public:
  ArenaPtr() = default;
  ArenaPtr(T *P) : P(P) {}

  T *get() const { return P; }
  T *operator->() const { return P; }
  T &operator*() const { return *P; }
  operator T *() const { return P; }

private:
  T *P = nullptr;
};

/// A growable array whose storage lives in an arena: push_back takes the
/// arena, and nothing is freed until the arena is. Elements are copied
/// bytewise, so they must be trivially copyable.
template <typename T> class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "arena arrays hold plain values");

public:
  void push_back(const T &V, BumpAllocator &A) {
    if (Size == Cap) {
      size_t NewCap = Cap ? size_t(Cap) * 2 : 4;
      Data = static_cast<T *>(
          A.grow(Data, sizeof(T) * Size, sizeof(T) * Cap, sizeof(T) * NewCap,
                 alignof(T)));
      Cap = static_cast<uint32_t>(NewCap);
    }
    Data[Size++] = V;
  }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }
  const T &operator[](size_t I) const {
    assert(I < Size && "ArenaVector index out of range");
    return Data[I];
  }
  ArrayRef<T> ref() const { return ArrayRef<T>(Data, Size); }

private:
  T *Data = nullptr;
  uint32_t Size = 0;
  uint32_t Cap = 0;
};

} // namespace o2

#endif // O2_SUPPORT_ARENA_H
