//===- o2/Support/StringRef.h - A view of a string owned elsewhere -*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// StringRef is a std::string_view that also converts to std::string and
/// concatenates with std::string and C strings, so a name that lives in
/// an arena's string pool reads like the std::string it replaces:
/// `"class '" + C->getName() + "'"` and a `const std::string &` parameter
/// both take it. Like any view, it is valid only while its owner lives.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_STRINGREF_H
#define O2_SUPPORT_STRINGREF_H

#include <string>
#include <string_view>

namespace o2 {

class StringRef : public std::string_view {
public:
  constexpr StringRef() = default;
  constexpr StringRef(const char *S) : std::string_view(S) {}
  constexpr StringRef(const char *S, size_t N) : std::string_view(S, N) {}
  constexpr StringRef(std::string_view S) : std::string_view(S) {}
  StringRef(const std::string &S) : std::string_view(S) {}

  std::string str() const { return std::string(data(), size()); }
  operator std::string() const { return str(); }
};

inline std::string operator+(const std::string &L, StringRef R) {
  std::string S;
  S.reserve(L.size() + R.size());
  S.append(L).append(R);
  return S;
}
inline std::string operator+(std::string &&L, StringRef R) {
  L.append(R);
  return std::move(L);
}
inline std::string operator+(StringRef L, const std::string &R) {
  std::string S;
  S.reserve(L.size() + R.size());
  S.append(L).append(R);
  return S;
}
inline std::string operator+(StringRef L, const char *R) {
  return L.str().append(R);
}
inline std::string operator+(const char *L, StringRef R) {
  return std::string(L).append(R);
}
inline std::string operator+(StringRef L, StringRef R) {
  return L.str().append(R);
}

} // namespace o2

#endif // O2_SUPPORT_STRINGREF_H
