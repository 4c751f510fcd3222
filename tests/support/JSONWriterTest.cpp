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
  StringOutputStream OS(Buf);
  JSONWriter::quote(OS, S);
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

} // namespace
