//===- JSONWriterTest.cpp - JSONWriter unit tests -----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/JSONWriter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace o2;

namespace {

std::string render(void (*Fn)(JSONWriter &)) {
  std::string Buf;
  StringOutputStream OS(Buf);
  JSONWriter W(OS);
  Fn(W);
  return Buf;
}

TEST(JSONWriterTest, EmptyObjectAndArray) {
  EXPECT_EQ(render([](JSONWriter &W) {
              W.beginObject();
              W.endObject();
            }),
            "{}");
  EXPECT_EQ(render([](JSONWriter &W) {
              W.beginArray();
              W.endArray();
            }),
            "[]");
}

TEST(JSONWriterTest, ObjectAttributes) {
  std::string Out = render([](JSONWriter &W) {
    W.beginObject();
    W.attribute("name", "o2");
    W.attribute("races", 42u);
    W.attribute("sound", true);
    W.endObject();
  });
  EXPECT_EQ(Out, R"({"name":"o2","races":42,"sound":true})");
}

TEST(JSONWriterTest, NestedStructures) {
  std::string Out = render([](JSONWriter &W) {
    W.beginObject();
    W.key("list");
    W.beginArray();
    W.value(1);
    W.value(2);
    W.beginObject();
    W.attribute("k", "v");
    W.endObject();
    W.endArray();
    W.endObject();
  });
  EXPECT_EQ(Out, R"({"list":[1,2,{"k":"v"}]})");
}

TEST(JSONWriterTest, StringEscaping) {
  std::string Out = render([](JSONWriter &W) {
    W.beginObject();
    W.attribute("s", "a\"b\\c\nd\te");
    W.endObject();
  });
  EXPECT_EQ(Out, "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(JSONWriterTest, ControlCharacterEscaping) {
  std::string Out = render([](JSONWriter &W) {
    W.beginArray();
    W.value(std::string_view("\x01", 1));
    W.endArray();
  });
  EXPECT_EQ(Out, "[\"\\u0001\"]");
}

TEST(JSONWriterTest, NegativeAndNull) {
  std::string Out = render([](JSONWriter &W) {
    W.beginArray();
    W.value(int64_t(-7));
    W.nullValue();
    W.endArray();
  });
  EXPECT_EQ(Out, "[-7,null]");
}

std::string renderString(std::string_view S) {
  std::string Buf;
  StringOutputStream OS(Buf);
  JSONWriter W(OS);
  W.value(S);
  return Buf;
}

TEST(JSONWriterTest, EscapesAtEdgesAndAdjacent) {
  EXPECT_EQ(renderString("\"abc"), "\"\\\"abc\"");
  EXPECT_EQ(renderString("abc\\"), "\"abc\\\\\"");
  EXPECT_EQ(renderString("a\n\t\"\\b"), "\"a\\n\\t\\\"\\\\b\"");
  EXPECT_EQ(renderString("\r\r"), "\"\\r\\r\"");
}

TEST(JSONWriterTest, AllControlCharacters) {
  std::string In, Want = "\"";
  for (int C = 0; C < 0x20; ++C) {
    In += static_cast<char>(C);
    switch (C) {
    case '\n':
      Want += "\\n";
      break;
    case '\t':
      Want += "\\t";
      break;
    case '\r':
      Want += "\\r";
      break;
    default: {
      char Buf[7];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Want += Buf;
    }
    }
  }
  Want += "\"";
  EXPECT_EQ(renderString(In), Want);
}

TEST(JSONWriterTest, DeleteAndUTF8PassThrough) {
  std::string In = "\x7f" "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x99\x82";
  EXPECT_EQ(renderString(In), "\"" + In + "\"");
}

TEST(JSONWriterTest, EmptyString) {
  EXPECT_EQ(renderString(""), "\"\"");
  EXPECT_EQ(render([](JSONWriter &W) {
              W.beginObject();
              W.attribute("", "");
              W.endObject();
            }),
            "{\"\":\"\"}");
}

std::string quoted(std::string_view S) {
  std::string Buf;
  JSONWriter::quote(Buf, S);
  return Buf;
}

TEST(JSONWriterTest, QuoteMatchesValue) {
  for (std::string_view S : {"", "plain", "a\"b\\c\n", "\x01\x1f\x7f"})
    EXPECT_EQ(quoted(S), renderString(S));
}

TEST(JSONWriterTest, RawValueInArrays) {
  EXPECT_EQ(render([](JSONWriter &W) {
              W.beginArray();
              W.rawValue("\"a\"");
              W.endArray();
            }),
            R"(["a"])");
  EXPECT_EQ(render([](JSONWriter &W) {
              W.beginArray();
              W.rawValue("1");
              W.value("x");
              W.rawValue("{}");
              W.rawValue("\"y\\n\"");
              W.endArray();
            }),
            R"([1,"x",{},"y\n"])");
}

TEST(JSONWriterTest, RawValueAfterKeys) {
  // As the first member, and as later members after value() and
  // rawValue() members, exactly as attribute() would render them.
  std::string Raw = render([](JSONWriter &W) {
    W.beginObject();
    W.key("first");
    W.rawValue(quoted("a\"b"));
    W.attribute("n", 7u);
    W.key("later");
    W.rawValue(quoted("c"));
    W.key("last");
    W.rawValue(quoted(""));
    W.endObject();
  });
  std::string Cooked = render([](JSONWriter &W) {
    W.beginObject();
    W.attribute("first", "a\"b");
    W.attribute("n", 7u);
    W.attribute("later", "c");
    W.attribute("last", "");
    W.endObject();
  });
  EXPECT_EQ(Raw, Cooked);
  EXPECT_EQ(Raw, R"({"first":"a\"b","n":7,"later":"c","last":""})");
}

/// Counts write calls; the JSON writer must issue a bounded number per
/// escape instead of one per byte.
class CountingOutputStream : public OutputStream {
public:
  void write(const char *Data, size_t Size) override {
    ++Writes;
    Buffer.append(Data, Size);
  }
  unsigned Writes = 0;
  std::string Buffer;
};

TEST(JSONWriterTest, WriteCallsScaleWithEscapesNotLength) {
  constexpr unsigned NumEscapes = 7;
  std::string In(100000, 'x');
  for (unsigned K = 0; K < NumEscapes; ++K)
    In[K * 9973 + 11] = K % 2 ? '"' : '\n';
  CountingOutputStream OS;
  {
    JSONWriter W(OS);
    W.value(In);
  }
  // Opening and closing quote, and per escape at most the run before it
  // plus the escape itself; then the final run.
  EXPECT_LE(OS.Writes, 2 * NumEscapes + 3);
  EXPECT_EQ(OS.Buffer, renderString(In));
  EXPECT_EQ(OS.Buffer.size(), In.size() + NumEscapes + 2);
}

/// The rendering of \p S as a JSON string, byte by byte, written out
/// independently of the writer.
std::string reference(std::string_view S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (C < 0x20) {
        char Buf[7];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += char(C);
      }
    }
  }
  return Out + "\"";
}

/// Records every write the writer hands to the sink.
class ChunkOutputStream : public OutputStream {
public:
  void write(const char *Data, size_t Size) override {
    Chunks.push_back(Size);
    Buffer.append(Data, Size);
  }
  std::vector<size_t> Chunks;
  std::string Buffer;
};

TEST(JSONWriterTest, StringLongerThanTheBuffer) {
  std::string In(3 * JSONWriter::BufferSize + 123, 'y');
  for (size_t I = 5; I < In.size(); I += 7919)
    In[I] = "\"\\\n\x01"[I % 4];
  EXPECT_EQ(renderString(In), reference(In));
  ChunkOutputStream OS;
  {
    JSONWriter W(OS);
    W.beginArray();
    W.value("head");
    W.value(In);
    W.endArray();
  }
  EXPECT_EQ(OS.Buffer, "[\"head\"," + reference(In) + "]");
  for (size_t Size : OS.Chunks)
    EXPECT_LE(Size, JSONWriter::BufferSize);
}

TEST(JSONWriterTest, EscapesStraddlingAFlushPoint) {
  // Pad the buffer so that each escape, in turn, starts on the last
  // free byte, on the one before it, and so on, for every control byte
  // and the two escaped printable characters. The record always ends
  // past the buffer, so the sink sees two writes.
  std::string Escapes = "\"\\";
  for (int C = 0; C < 0x20; ++C)
    Escapes += char(C);
  for (char E : Escapes)
    for (size_t Back = 0; Back < 8; ++Back) {
      // "[" + pad string + "," + opening quote + "ab" puts the escape at
      // BufferSize - 1 - Back.
      std::string Pad(JSONWriter::BufferSize - 8 - Back, 'p');
      std::string S = std::string("ab") + E + std::string(16, 'c');
      ChunkOutputStream OS;
      {
        JSONWriter W(OS);
        W.beginArray();
        W.value(Pad);
        W.value(S);
        W.endArray();
      }
      EXPECT_EQ(OS.Buffer, "[" + reference(Pad) + "," + reference(S) + "]")
          << int(E) << " " << Back;
      EXPECT_EQ(OS.Chunks.size(), 2u) << int(E) << " " << Back;
    }
}

TEST(JSONWriterTest, DoublesKeepThePercentGRendering) {
  for (double D : {0.0, -0.0, 1.0, 0.1, 2.5e-7, 123456.0, 1234567.0,
                   -98.765432, 1e300, 4.9e-324, 0.000123456789}) {
    std::string Old;
    StringOutputStream OS(Old);
    OS << D;
    char Want[40];
    std::snprintf(Want, sizeof(Want), "%g", D);
    EXPECT_EQ(Old, Want);
    std::string Buf;
    StringOutputStream JOS(Buf);
    {
      JSONWriter W(JOS);
      W.beginArray();
      W.value(D);
      W.endArray();
    }
    EXPECT_EQ(Buf, "[" + Old + "]") << D;
  }
}

TEST(JSONWriterTest, RecordOverOneMegabyteMatchesAStringRendering) {
  // One record of about 1.5 MB, built member by member; the writer hands
  // it to the sink in buffer-sized pieces, and the pieces add up to the
  // record rendered into one string.
  auto Write = [](OutputStream &OS) {
    JSONWriter W(OS);
    W.beginObject();
    W.key("members");
    W.beginArray();
    for (unsigned I = 0; I < 20000; ++I) {
      W.beginObject();
      W.attribute("i", I);
      W.attribute("text", "line " + std::to_string(I) + " \"quoted\"\n\t" +
                              std::string(I % 97, 'z'));
      W.attribute("ratio", I / 7.0);
      W.attribute("flag", I % 3 == 0);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  };
  std::string Whole;
  StringOutputStream StringOS(Whole);
  Write(StringOS);
  ChunkOutputStream Chunked;
  Write(Chunked);
  EXPECT_GT(Whole.size(), size_t(1000000));
  EXPECT_EQ(Chunked.Buffer, Whole);
  EXPECT_GE(Chunked.Chunks.size(), Whole.size() / JSONWriter::BufferSize);
  for (size_t Size : Chunked.Chunks)
    EXPECT_LE(Size, JSONWriter::BufferSize);

  // The same members written the way the writer rendered them before it
  // had a buffer: one stream call per token.
  std::string Tokens = "{\"members\":[";
  for (unsigned I = 0; I < 20000; ++I) {
    if (I)
      Tokens += ',';
    std::string Ratio;
    StringOutputStream RatioOS(Ratio);
    RatioOS << I / 7.0;
    Tokens += "{\"i\":" + std::to_string(I) + ",\"text\":" +
              reference("line " + std::to_string(I) + " \"quoted\"\n\t" +
                        std::string(I % 97, 'z')) +
              ",\"ratio\":" + Ratio + ",\"flag\":" +
              (I % 3 == 0 ? "true" : "false") + "}";
  }
  Tokens += "]}";
  EXPECT_EQ(Whole, Tokens);
}

TEST(JSONWriterTest, EachTopLevelValueReachesTheSinkWhenItEnds) {
  // A caller may write to the sink between records.
  std::string Buf;
  StringOutputStream OS(Buf);
  JSONWriter W(OS);
  W.beginObject();
  W.attribute("a", 1u);
  W.endObject();
  OS << '\n';
  W.value("s");
  OS << '\n';
  EXPECT_EQ(Buf, "{\"a\":1}\n\"s\"\n");
  EXPECT_EQ(W.bytesWritten(), Buf.size() - 2);
}

} // namespace
