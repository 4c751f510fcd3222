//===- o2/Support/SmallVector.h - Small-size optimized vector --*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector that stores the first N elements inline, in the spirit of
/// llvm::SmallVector. APIs that only read a sequence should accept
/// ArrayRef (see o2/Support/ArrayRef.h); APIs that append should accept
/// SmallVectorImpl<T> so the inline size does not leak into signatures.
///
/// The header is a pointer and two 32-bit counts, so a SmallVector<T, N>
/// costs 16 bytes plus its inline elements; like llvm::SmallVector, the
/// inline elements directly follow the header, which is how the size-erased
/// base finds them.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_SMALLVECTOR_H
#define O2_SUPPORT_SMALLVECTOR_H

#include "o2/Support/Compiler.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace o2 {

/// The layout of a SmallVectorImpl<T> followed by its first inline element;
/// only used to compute where SmallVector<T, N> places that element.
template <typename T> struct SmallVectorLayout {
  T *Begin;
  uint32_t Sz;
  uint32_t Cap;
  alignas(T) std::byte FirstEl[sizeof(T)];
};

/// Size-erased common base so SmallVectorImpl<T> can be used as a parameter
/// type independent of the inline element count.
template <typename T> class SmallVectorImpl {
public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;
  using size_type = size_t;
  using reference = T &;
  using const_reference = const T &;

  SmallVectorImpl(const SmallVectorImpl &) = delete;

  iterator begin() { return Begin; }
  const_iterator begin() const { return Begin; }
  iterator end() { return Begin + Sz; }
  const_iterator end() const { return Begin + Sz; }

  size_t size() const { return Sz; }
  size_t capacity() const { return Cap; }
  bool empty() const { return Sz == 0; }

  T *data() { return Begin; }
  const T *data() const { return Begin; }

  reference operator[](size_t Idx) {
    assert(Idx < Sz && "SmallVector index out of range");
    return Begin[Idx];
  }
  const_reference operator[](size_t Idx) const {
    assert(Idx < Sz && "SmallVector index out of range");
    return Begin[Idx];
  }

  reference front() {
    assert(!empty() && "front() on empty SmallVector");
    return Begin[0];
  }
  const_reference front() const {
    assert(!empty() && "front() on empty SmallVector");
    return Begin[0];
  }
  reference back() {
    assert(!empty() && "back() on empty SmallVector");
    return Begin[Sz - 1];
  }
  const_reference back() const {
    assert(!empty() && "back() on empty SmallVector");
    return Begin[Sz - 1];
  }

  void push_back(const T &Elt) { emplace_back(Elt); }
  void push_back(T &&Elt) { emplace_back(std::move(Elt)); }

  template <typename... ArgTypes> reference emplace_back(ArgTypes &&...Args) {
    if (O2_UNLIKELY(Sz == Cap))
      grow(Sz + 1);
    ::new (static_cast<void *>(Begin + Sz)) T(std::forward<ArgTypes>(Args)...);
    return Begin[Sz++];
  }

  void pop_back() {
    assert(!empty() && "pop_back() on empty SmallVector");
    --Sz;
    Begin[Sz].~T();
  }

  /// Removes all elements; keeps the current allocation.
  void clear() {
    destroyRange(Begin, Begin + Sz);
    Sz = 0;
  }

  void reserve(size_t N) {
    if (N > Cap)
      grow(N);
  }

  void resize(size_t N) {
    if (N < Sz) {
      destroyRange(Begin + N, Begin + Sz);
      Sz = N;
      return;
    }
    reserve(N);
    while (Sz < N)
      ::new (static_cast<void *>(Begin + Sz++)) T();
  }

  void resize(size_t N, const T &Val) {
    if (N < Sz) {
      destroyRange(Begin + N, Begin + Sz);
      Sz = N;
      return;
    }
    reserve(N);
    while (Sz < N)
      ::new (static_cast<void *>(Begin + Sz++)) T(Val);
  }

  template <typename IterTy> void append(IterTy First, IterTy Last) {
    size_t NumInputs = static_cast<size_t>(std::distance(First, Last));
    reserve(Sz + NumInputs);
    for (; First != Last; ++First)
      ::new (static_cast<void *>(Begin + Sz++)) T(*First);
  }

  void append(std::initializer_list<T> IL) { append(IL.begin(), IL.end()); }

  void assign(std::initializer_list<T> IL) {
    clear();
    append(IL);
  }

  template <typename IterTy> void assign(IterTy First, IterTy Last) {
    clear();
    append(First, Last);
  }

  /// Erases the element at \p Pos, shifting the tail left by one.
  iterator erase(iterator Pos) {
    assert(Pos >= begin() && Pos < end() && "erase() position out of range");
    std::move(Pos + 1, end(), Pos);
    pop_back();
    return Pos;
  }

  /// Erases the range [First, Last).
  iterator erase(iterator First, iterator Last) {
    assert(First >= begin() && First <= Last && Last <= end() &&
           "erase() range out of bounds");
    iterator NewEnd = std::move(Last, end(), First);
    destroyRange(NewEnd, end());
    Sz = static_cast<size_t>(NewEnd - Begin);
    return First;
  }

  SmallVectorImpl &operator=(const SmallVectorImpl &RHS) {
    if (this != &RHS)
      assign(RHS.begin(), RHS.end());
    return *this;
  }

  SmallVectorImpl &operator=(SmallVectorImpl &&RHS) {
    if (this == &RHS)
      return *this;
    if (!RHS.isSmall()) {
      // Steal the heap allocation.
      destroyRange(Begin, Begin + Sz);
      if (!isSmall())
        ::operator delete(Begin);
      Begin = RHS.Begin;
      Sz = RHS.Sz;
      Cap = RHS.Cap;
      // RHS's inline capacity is not known here; SmallVector<T, N>'s own
      // move operations restore it.
      RHS.Begin = RHS.smallStorage();
      RHS.Sz = RHS.Cap = 0;
      return *this;
    }
    clear();
    reserve(RHS.Sz);
    for (size_t I = 0, E = RHS.Sz; I != E; ++I)
      ::new (static_cast<void *>(Begin + I)) T(std::move(RHS.Begin[I]));
    Sz = RHS.Sz;
    RHS.clear();
    return *this;
  }

  bool operator==(const SmallVectorImpl &RHS) const {
    return Sz == RHS.Sz && std::equal(begin(), end(), RHS.begin());
  }

protected:
  explicit SmallVectorImpl(uint32_t SmallCap)
      : Begin(smallStorage()), Cap(SmallCap) {}

  ~SmallVectorImpl() {
    destroyRange(Begin, Begin + Sz);
    if (!isSmall())
      ::operator delete(Begin);
  }

  /// The inline elements, which SmallVector<T, N> places right after this
  /// header.
  T *smallStorage() const {
    return reinterpret_cast<T *>(
        reinterpret_cast<char *>(const_cast<SmallVectorImpl *>(this)) +
        offsetof(SmallVectorLayout<T>, FirstEl));
  }

  bool isSmall() const { return Begin == smallStorage(); }

  /// Least capacity of the first heap block, so that a list spilling out
  /// of one or two inline slots reaches six entries (a common size for
  /// PTA use lists) with one allocation instead of two.
  static constexpr size_t MinSpillCapacity = 8;

  void grow(size_t MinCap) {
    size_t NewCap = std::max<size_t>(MinCap, 2 * size_t(Cap) + 1);
    if (isSmall())
      NewCap = std::max(NewCap, MinSpillCapacity);
    assert(NewCap <= UINT32_MAX && "SmallVector capacity overflow");
    T *NewBegin = static_cast<T *>(::operator new(NewCap * sizeof(T)));
    for (size_t I = 0; I != Sz; ++I) {
      ::new (static_cast<void *>(NewBegin + I)) T(std::move(Begin[I]));
      Begin[I].~T();
    }
    if (!isSmall())
      ::operator delete(Begin);
    Begin = NewBegin;
    Cap = static_cast<uint32_t>(NewCap);
  }

  static void destroyRange(T *S, T *E) {
    if constexpr (!std::is_trivially_destructible_v<T>)
      for (; S != E; ++S)
        S->~T();
  }

  T *Begin;
  uint32_t Sz = 0;
  uint32_t Cap;
};

/// A vector with \p N elements of inline storage.
template <typename T, unsigned N = 4>
class SmallVector : public SmallVectorImpl<T> {
public:
  SmallVector() : SmallVectorImpl<T>(N) {}

  explicit SmallVector(size_t Count) : SmallVectorImpl<T>(N) {
    this->resize(Count);
  }

  SmallVector(size_t Count, const T &Val) : SmallVectorImpl<T>(N) {
    this->resize(Count, Val);
  }

  SmallVector(std::initializer_list<T> IL) : SmallVectorImpl<T>(N) {
    this->append(IL);
  }

  template <typename IterTy>
    requires(!std::is_integral_v<IterTy>)
  SmallVector(IterTy First, IterTy Last)
      : SmallVectorImpl<T>(N) {
    this->append(First, Last);
  }

  SmallVector(const SmallVector &RHS) : SmallVectorImpl<T>(N) {
    this->append(RHS.begin(), RHS.end());
  }

  SmallVector(const SmallVectorImpl<T> &RHS) : SmallVectorImpl<T>(N) {
    this->append(RHS.begin(), RHS.end());
  }

  SmallVector(SmallVector &&RHS) noexcept(
      std::is_nothrow_move_constructible_v<T>)
      : SmallVectorImpl<T>(N) {
    SmallVectorImpl<T>::operator=(std::move(RHS));
    RHS.Cap = N;
  }

  SmallVector &operator=(const SmallVector &RHS) {
    SmallVectorImpl<T>::operator=(RHS);
    return *this;
  }

  SmallVector &operator=(SmallVector &&RHS) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    SmallVectorImpl<T>::operator=(std::move(RHS));
    if (this != &RHS)
      RHS.Cap = N; // RHS now uses its inline elements again
    return *this;
  }

  ~SmallVector() {
    assert(static_cast<void *>(Storage) == this->smallStorage() &&
           "inline elements must follow the header");
  }

private:
  alignas(T) std::byte Storage[sizeof(T) * N];
};

// A pointer and two 32-bit counts, then the inline elements: a
// SmallVector<unsigned, 2> is no larger than a std::vector.
static_assert(sizeof(SmallVector<uint32_t, 2>) ==
              sizeof(void *) + 2 * sizeof(uint32_t) + 2 * sizeof(uint32_t));

// std::vector relocates its elements by move only when the move constructor
// cannot throw; otherwise every growth copies each SmallVector's contents.
static_assert(std::is_nothrow_move_constructible_v<SmallVector<unsigned, 8>>);

} // namespace o2

#endif // O2_SUPPORT_SMALLVECTOR_H
