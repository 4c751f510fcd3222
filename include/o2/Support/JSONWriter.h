//===- o2/Support/JSONWriter.h - Streaming JSON output ------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small streaming JSON writer used to emit machine-readable analysis
/// reports (race reports, statistics) without pulling in a JSON library.
/// The writer tracks nesting and inserts commas; the caller is
/// responsible for well-formed begin/end pairing (checked by asserts).
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_JSONWRITER_H
#define O2_SUPPORT_JSONWRITER_H

#include "o2/Support/OutputStream.h"

#include <cassert>
#include <cstdint>
#include <string_view>
#include <vector>

namespace o2 {

class JSONWriter {
public:
  explicit JSONWriter(OutputStream &OS) : OS(OS) {}

  ~JSONWriter() { assert(Stack.empty() && "unbalanced JSON nesting"); }

  void beginObject() {
    prepareValue();
    OS << '{';
    Stack.push_back({/*IsObject=*/true, /*Count=*/0});
  }

  void endObject() {
    assert(!Stack.empty() && Stack.back().IsObject && "not in an object");
    Stack.pop_back();
    OS << '}';
  }

  void beginArray() {
    prepareValue();
    OS << '[';
    Stack.push_back({/*IsObject=*/false, /*Count=*/0});
  }

  void endArray() {
    assert(!Stack.empty() && !Stack.back().IsObject && "not in an array");
    Stack.pop_back();
    OS << ']';
  }

  /// Emits an object key; the next emitted value belongs to it.
  void key(std::string_view Name) {
    assert(!Stack.empty() && Stack.back().IsObject && "key outside object");
    if (Stack.back().Count++)
      OS << ',';
    quote(OS, Name);
    OS << ':';
    PendingKey = true;
  }

  void value(std::string_view S) {
    prepareValue();
    quote(OS, S);
  }
  void value(const char *S) { value(std::string_view(S)); }
  void value(int64_t N) {
    prepareValue();
    OS << N;
  }
  void value(uint64_t N) {
    prepareValue();
    OS << N;
  }
  void value(int N) { value(int64_t(N)); }
  void value(unsigned N) { value(uint64_t(N)); }
  void value(bool B) {
    prepareValue();
    OS << (B ? "true" : "false");
  }
  void value(double D) {
    prepareValue();
    OS << D;
  }
  void nullValue() {
    prepareValue();
    OS << "null";
  }

  /// Emits \p JSON verbatim as the next value, with the same comma and
  /// key handling as value(). The caller passes exactly one well-formed
  /// JSON value, typically a string rendered once by quote() and then
  /// reused for many members.
  void rawValue(std::string_view JSON) {
    prepareValue();
    OS << JSON;
  }

  /// Writes \p S to \p OS quoted and escaped, exactly as value(S) renders
  /// it. Each run of bytes that need no escape goes out in one write
  /// call, so the cost in stream calls is proportional to the number of
  /// escapes, not to the length.
  static void quote(OutputStream &OS, std::string_view S) {
    OS << '"';
    size_t RunStart = 0;
    for (size_t I = 0, E = S.size(); I != E; ++I) {
      unsigned char C = static_cast<unsigned char>(S[I]);
      if (C >= 0x20 && C != '"' && C != '\\')
        continue;
      if (I != RunStart)
        OS.write(S.data() + RunStart, I - RunStart);
      RunStart = I + 1;
      switch (C) {
      case '"':
        OS << "\\\"";
        break;
      case '\\':
        OS << "\\\\";
        break;
      case '\n':
        OS << "\\n";
        break;
      case '\t':
        OS << "\\t";
        break;
      case '\r':
        OS << "\\r";
        break;
      default: {
        const char *Hex = "0123456789abcdef";
        char Buf[6] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xf]};
        OS.write(Buf, sizeof(Buf));
      }
      }
    }
    if (RunStart != S.size())
      OS.write(S.data() + RunStart, S.size() - RunStart);
    OS << '"';
  }

  /// key(...) followed by value(...).
  template <typename T> void attribute(std::string_view Name, T Val) {
    key(Name);
    value(Val);
  }

private:
  struct Frame {
    bool IsObject;
    unsigned Count;
  };

  void prepareValue() {
    if (PendingKey) {
      PendingKey = false;
      return;
    }
    if (!Stack.empty()) {
      assert(!Stack.back().IsObject &&
             "object members need a key before the value");
      if (Stack.back().Count++)
        OS << ',';
    }
  }

  OutputStream &OS;
  std::vector<Frame> Stack;
  bool PendingKey = false;
};

} // namespace o2

#endif // O2_SUPPORT_JSONWRITER_H
