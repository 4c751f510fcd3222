//===- ParserErrorCorpusTest.cpp - Malformed-input corpus ---------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Feeds every file of tests/ir/corpus/ — truncated programs, undefined
// types, duplicate names, garbage tokens — through the parser and checks
// that each one is rejected with exactly its golden "line:col: message"
// diagnostic instead of crashing or being silently accepted.
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Parser.h"

#include "o2/IR/Module.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

using namespace o2;

namespace {

std::vector<std::filesystem::path> corpusFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(O2_PARSER_CORPUS_DIR))
    if (Entry.path().extension() == ".oir")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// The exact diagnostic of every corpus file. Positions are 1-based; a
/// tab and a carriage return are one column each.
const std::map<std::string, std::string> &goldenDiagnostics() {
  static const std::map<std::string, std::string> Golden = {
      {"after_comment", "6:3: unknown variable 'y'"},
      {"after_tab", "4:8: unknown variable 'q'"},
      {"bad_toplevel",
       "3:1: expected 'class', 'global', or 'func' (got 'widget')"},
      {"bad_type", "3:25: unknown type 'Widget'"},
      {"crlf", "5:5: class 'Data' has no field 'y'"},
      {"duplicate_class", "3:14: duplicate class 'Worker'"},
      {"duplicate_var", "4:8: duplicate variable 'x'"},
      {"eof_in_body", "6:11: unterminated block"},
      {"truncated_class", "6:1: unterminated block"},
      {"truncated_stmt", "7:1: unterminated block"},
      {"unexpected_char", "4:9: unexpected character '#'"},
      {"unknown_global", "4:12: unknown global 'missing'"},
      {"unknown_super", "2:17: unknown superclass 'B' of class 'A'"},
  };
  return Golden;
}

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

class ParserErrorCorpusTest
    : public testing::TestWithParam<std::filesystem::path> {};

TEST_P(ParserErrorCorpusTest, RejectedWithPositionedDiagnostic) {
  const std::filesystem::path &Path = GetParam();
  std::string Source = readFile(Path);
  ASSERT_FALSE(Source.empty()) << "unreadable corpus file " << Path;

  std::string Err;
  auto M = parseModule(Source, Err, Path.stem().string());
  EXPECT_EQ(M, nullptr) << Path << " parsed although it is malformed";
  ASSERT_FALSE(Err.empty()) << Path << " rejected without a diagnostic";

  // Diagnostics are "line:col: message" with 1-based positions.
  unsigned Line = 0, Col = 0;
  char Colon = 0;
  std::istringstream Pos(Err);
  Pos >> Line >> Colon >> Col;
  EXPECT_GT(Line, 0u) << "no line number in '" << Err << "'";
  EXPECT_GT(Col, 0u) << "no column in '" << Err << "'";
  EXPECT_NE(Err.find(": "), std::string::npos)
      << "no message in '" << Err << "'";

  auto Golden = goldenDiagnostics().find(Path.stem().string());
  ASSERT_NE(Golden, goldenDiagnostics().end())
      << Path << " has no golden diagnostic";
  EXPECT_EQ(Err, Golden->second) << Path;
}

INSTANTIATE_TEST_SUITE_P(Corpus, ParserErrorCorpusTest,
                         testing::ValuesIn(corpusFiles()),
                         [](const auto &Info) {
                           return Info.param.stem().string();
                         });

// The corpus directory must actually be populated; an empty parameter
// list would silently skip all of the above.
TEST(ParserErrorCorpus, CorpusIsNonEmpty) {
  EXPECT_GE(corpusFiles().size(), 6u);
  EXPECT_EQ(corpusFiles().size(), goldenDiagnostics().size());
}

} // namespace
