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
/// Output is staged in the writer's own fixed buffer of BufferSize bytes:
/// keys, strings, numbers and punctuation are appended inline, and the
/// sink sees one write per full buffer plus one at the end of each
/// top-level value (a report record). A record larger than the buffer
/// streams through it; it is never held whole.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_JSONWRITER_H
#define O2_SUPPORT_JSONWRITER_H

#include "o2/Support/OutputStream.h"

#include <cassert>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace o2 {

class JSONWriter {
public:
  /// Bytes staged before they are handed to the sink.
  static constexpr size_t BufferSize = 64 * 1024;

  explicit JSONWriter(OutputStream &OS)
      : OS(OS), Buf(new char[BufferSize]) {}

  JSONWriter(const JSONWriter &) = delete;
  JSONWriter &operator=(const JSONWriter &) = delete;

  ~JSONWriter() {
    assert(Stack.empty() && "unbalanced JSON nesting");
    flush();
  }

  void beginObject() {
    prepareValue();
    put('{');
    Stack.push_back({/*IsObject=*/true, /*Count=*/0});
  }

  void endObject() {
    assert(!Stack.empty() && Stack.back().IsObject && "not in an object");
    Stack.pop_back();
    put('}');
    endValue();
  }

  void beginArray() {
    prepareValue();
    put('[');
    Stack.push_back({/*IsObject=*/false, /*Count=*/0});
  }

  void endArray() {
    assert(!Stack.empty() && !Stack.back().IsObject && "not in an array");
    Stack.pop_back();
    put(']');
    endValue();
  }

  /// Emits an object key; the next emitted value belongs to it.
  void key(std::string_view Name) {
    assert(!Stack.empty() && Stack.back().IsObject && "key outside object");
    if (Stack.back().Count++)
      put(',');
    putQuoted(Name);
    put(':');
    PendingKey = true;
  }

  void value(std::string_view S) {
    prepareValue();
    putQuoted(S);
    endValue();
  }
  void value(const char *S) { value(std::string_view(S)); }
  void value(int64_t N) {
    prepareValue();
    putInteger(N);
    endValue();
  }
  void value(uint64_t N) {
    prepareValue();
    putInteger(N);
    endValue();
  }
  void value(int N) { value(int64_t(N)); }
  void value(unsigned N) { value(uint64_t(N)); }
  void value(bool B) {
    prepareValue();
    put(B ? std::string_view("true") : std::string_view("false"));
    endValue();
  }
  /// Rendered with printf's %g, as OutputStream renders a double.
  void value(double D) {
    prepareValue();
    char Tmp[40];
    int Len = std::snprintf(Tmp, sizeof(Tmp), "%g", D);
    put(std::string_view(Tmp, size_t(Len)));
    endValue();
  }
  void nullValue() {
    prepareValue();
    put("null");
    endValue();
  }

  /// Emits \p JSON verbatim as the next value, with the same comma and
  /// key handling as value(). The caller passes exactly one well-formed
  /// JSON value, typically a string rendered once by quote() and then
  /// reused for many members.
  void rawValue(std::string_view JSON) { rawValue({JSON}); }

  /// Emits the concatenation of \p Parts verbatim as the next value: one
  /// well-formed JSON value assembled from precomputed pieces (say, an
  /// object's fixed prefix and pre-quoted member strings).
  void rawValue(std::initializer_list<std::string_view> Parts) {
    prepareValue();
    for (std::string_view P : Parts)
      put(P);
    endValue();
  }

  /// Appends \p S to \p Out quoted and escaped, exactly as value(S)
  /// renders it.
  static void quote(std::string &Out, std::string_view S) {
    Out += '"';
    escape(S, [&Out](std::string_view Run) { Out += Run; });
    Out += '"';
  }

  /// Hands the staged bytes to the sink. Done automatically when the
  /// buffer fills, when a top-level value ends, and on destruction.
  void flush() {
    if (Len)
      OS.write(Buf.get(), Len);
    Flushed += Len;
    Len = 0;
  }

  /// Bytes rendered so far, staged or already handed to the sink.
  uint64_t bytesWritten() const { return Flushed + Len; }

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

  /// Calls \p Put with the escaped form of \p S, one run at a time: each
  /// run of bytes that need no escape in one call, each escape in one.
  template <typename PutFn>
  static void escape(std::string_view S, PutFn &&Put) {
    size_t RunStart = 0;
    for (size_t I = 0, E = S.size(); I != E; ++I) {
      unsigned char C = static_cast<unsigned char>(S[I]);
      if (C >= 0x20 && C != '"' && C != '\\')
        continue;
      if (I != RunStart)
        Put(S.substr(RunStart, I - RunStart));
      RunStart = I + 1;
      switch (C) {
      case '"':
        Put("\\\"");
        break;
      case '\\':
        Put("\\\\");
        break;
      case '\n':
        Put("\\n");
        break;
      case '\t':
        Put("\\t");
        break;
      case '\r':
        Put("\\r");
        break;
      default: {
        const char *Hex = "0123456789abcdef";
        char U[6] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xf]};
        Put(std::string_view(U, sizeof(U)));
      }
      }
    }
    if (RunStart != S.size())
      Put(S.substr(RunStart));
  }

  void prepareValue() {
    if (PendingKey) {
      PendingKey = false;
      return;
    }
    if (!Stack.empty()) {
      assert(!Stack.back().IsObject &&
             "object members need a key before the value");
      if (Stack.back().Count++)
        put(',');
    }
  }

  /// A value just ended; at the top level that ends a record.
  void endValue() {
    if (Stack.empty())
      flush();
  }

  void put(char C) {
    if (Len == BufferSize)
      flush();
    Buf[Len++] = C;
  }

  void put(std::string_view S) {
    if (S.size() <= BufferSize - Len) {
      copy(Buf.get() + Len, S.data(), S.size());
      Len += S.size();
      return;
    }
    // Larger than what is left: empty the buffer, and pass a string at
    // least as large as the whole buffer straight to the sink.
    flush();
    if (S.size() >= BufferSize) {
      OS.write(S.data(), S.size());
      Flushed += S.size();
      return;
    }
    std::memcpy(Buf.get(), S.data(), S.size());
    Len = S.size();
  }

  /// memcpy, with the short copies that make up most of a report done
  /// inline: two overlapping loads and stores cover any size from 4 to
  /// 32 bytes.
  static void copy(char *Dst, const char *Src, size_t N) {
    auto Overlapping = [Dst, Src, N](auto Word) {
      auto Head = Word, Tail = Word;
      std::memcpy(&Head, Src, sizeof(Word));
      std::memcpy(&Tail, Src + N - sizeof(Word), sizeof(Word));
      std::memcpy(Dst, &Head, sizeof(Word));
      std::memcpy(Dst + N - sizeof(Word), &Tail, sizeof(Word));
    };
    struct Word16 {
      uint64_t Lo, Hi;
    };
    if (N > 32)
      std::memcpy(Dst, Src, N);
    else if (N >= 16)
      Overlapping(Word16{});
    else if (N >= 8)
      Overlapping(uint64_t());
    else if (N >= 4)
      Overlapping(uint32_t());
    else if (N) {
      Dst[0] = Src[0];
      Dst[N / 2] = Src[N / 2];
      Dst[N - 1] = Src[N - 1];
    }
  }

  void putQuoted(std::string_view S) {
    put('"');
    escape(S, [this](std::string_view Run) { put(Run); });
    put('"');
  }

  template <typename IntT> void putInteger(IntT N) {
    char Tmp[24];
    char *End = std::to_chars(Tmp, Tmp + sizeof(Tmp), N).ptr;
    put(std::string_view(Tmp, size_t(End - Tmp)));
  }

  OutputStream &OS;
  std::unique_ptr<char[]> Buf;
  size_t Len = 0;
  uint64_t Flushed = 0;
  std::vector<Frame> Stack;
  bool PendingKey = false;
};

} // namespace o2

#endif // O2_SUPPORT_JSONWRITER_H
