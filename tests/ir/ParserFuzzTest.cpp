//===- ParserFuzzTest.cpp - Seeded mutation fuzzing of the OIR parser ---------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Mutates every tests/ir/corpus and examples/oir file, and one seed that
// uses every grammar form, with byte flips,
// inserts, deletes, truncations, token splices and two grammar-aware
// edits (a class extending itself, a repeated parameter), from a fixed
// seed so every run feeds the parser the same inputs, and checks each
// outcome:
//
//   - the parser returns (a crash fails the test binary; a watchdog
//     aborts it on a hang);
//   - it returns a module exactly when it leaves the error empty;
//   - every diagnostic starts with a "line:col: " that lies inside the
//     input.
//
// No fuzzing engine is needed. The Debug+ASan/UBSan build runs it with
// the rest of the suite, which is what catches out-of-bounds reads.
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Parser.h"

#include "o2/IR/Module.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace o2;

namespace {

/// SplitMix64: tiny, and the same sequence on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Uniform-enough value in [0, N); N must be positive.
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }

private:
  uint64_t State;
};

/// A seed that uses every declaration and statement form, parameters and
/// return types included, which the file seeds happen not to.
constexpr const char *GrammarSeed = R"(// every form once
global g: Base;
global n: int atomic;
class Base {
  field next: Base;
  field count: int atomic;
  method init(b: Base) { this.next = b; }
}
class Task extends Base {
  field items: Base[];
  method run() {
    var t: Task; var c: int;
    t = this; acquire t; c = t.count; t.count = c; release t;
  }
  method get(i: int): Base { var b: Base; b = this.next; return b; }
}
func make(b: Base): Task { var t: Task; t = new Task(b); return t; }
func main() {
  var b: Base; var t: Task; var a: Base[]; var x: Base; var i: int;
  b = new Base(b); t = make(b); a = newarray Base; a[*] = b; x = a[*];
  @g = x; x = @g; x = t.get(i);
  loop { spawn t.run(); }
  join t;
  make(x);
  t.get(i);
  return;
}
)";

std::vector<std::string> seedInputs() {
  std::vector<std::filesystem::path> Paths;
  for (const char *Dir : {O2_PARSER_CORPUS_DIR, O2_OIR_DIR})
    for (const auto &Entry : std::filesystem::directory_iterator(Dir))
      if (Entry.path().extension() == ".oir")
        Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  std::vector<std::string> Inputs = {GrammarSeed};
  for (const auto &P : Paths) {
    std::ifstream In(P, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    Inputs.push_back(SS.str());
  }
  return Inputs;
}

/// Spliced-in words: every keyword, punctuation, names the seeds use,
/// and bytes outside the alphabet.
const std::vector<std::string> &spliceWords() {
  static const std::vector<std::string> Words = {
      "class", "extends", "global", "func", "field", "method", "atomic",
      "var", "loop", "spawn", "join", "acquire", "release", "return",
      "new", "newarray", "int", "this", "main", "run", "init", "{", "}",
      "(", ")", "[", "]", "[*]", ":", ";", ",", ".", "=", "@", "*", "//",
      "\n", "\t", "\r\n", " ", "#", "\xff", std::string(1, '\0'), "$ret",
      "class A extends A { }", "func main() { }", "loop { loop {"};
  return Words;
}

/// The identifier starting at \p At in \p S (empty if none).
std::string_view identAt(const std::string &S, size_t At) {
  size_t End = At;
  while (End < S.size() && (std::isalnum(static_cast<unsigned char>(S[End])) ||
                            S[End] == '_' || S[End] == '$'))
    ++End;
  return std::string_view(S).substr(At, End - At);
}

/// Grammar-aware mutations at a random declaration: a class extends
/// itself, or a one-parameter signature repeats its parameter.
void mutateDecl(std::string &S, Rng &R) {
  if (R.below(2) == 0) {
    size_t At = S.find("class ", R.below(S.size() + 1));
    if (At == std::string::npos)
      return;
    std::string Name(identAt(S, At + 6));
    if (!Name.empty())
      S.insert(At + 6 + Name.size(), " extends " + Name);
    return;
  }
  size_t Head = S.find(R.below(2) ? "method " : "func ", R.below(S.size() + 1));
  size_t Open = S.find('(', Head);
  size_t Close = S.find(')', Open);
  if (Head == std::string::npos || Open == std::string::npos ||
      Close == std::string::npos)
    return;
  std::string Param = S.substr(Open + 1, Close - Open - 1);
  if (Param.find(':') != std::string::npos &&
      Param.find(',') == std::string::npos)
    S.insert(Close, ", " + Param);
}

/// Applies one random mutation to \p S.
void mutate(std::string &S, const std::vector<std::string> &Seeds, Rng &R) {
  switch (R.below(7)) {
  case 0: // flip one bit of one byte
    if (!S.empty())
      S[R.below(S.size())] ^= static_cast<char>(1u << R.below(8));
    return;
  case 1: // insert a random byte
    S.insert(S.begin() + R.below(S.size() + 1),
             static_cast<char>(R.below(256)));
    return;
  case 2: { // delete a short range
    if (S.empty())
      return;
    size_t At = R.below(S.size());
    S.erase(At, 1 + R.below(std::min<size_t>(16, S.size() - At)));
    return;
  }
  case 3: // truncate
    S.resize(R.below(S.size() + 1));
    return;
  case 4: { // splice in a word
    const auto &Words = spliceWords();
    S.insert(R.below(S.size() + 1), Words[R.below(Words.size())]);
    return;
  }
  case 5:
    mutateDecl(S, R);
    return;
  default: { // splice in a slice of another seed
    const std::string &Other = Seeds[R.below(Seeds.size())];
    if (Other.empty())
      return;
    size_t From = R.below(Other.size());
    size_t Len = 1 + R.below(std::min<size_t>(64, Other.size() - From));
    S.insert(R.below(S.size() + 1), Other.substr(From, Len));
    return;
  }
  }
}

/// True if \p Err starts with "L:C: " naming a position of \p Input: line
/// L exists and column C is at most one past that line's last byte.
bool hasPositionInside(const std::string &Err, const std::string &Input) {
  unsigned long Line = 0, Col = 0;
  size_t I = 0;
  auto ReadNum = [&](unsigned long &N) {
    size_t Start = I;
    while (I < Err.size() && Err[I] >= '0' && Err[I] <= '9' && I - Start < 9)
      N = N * 10 + static_cast<unsigned long>(Err[I++] - '0');
    return I > Start;
  };
  if (!ReadNum(Line) || I >= Err.size() || Err[I++] != ':' || !ReadNum(Col) ||
      Err.compare(I, 2, ": ") != 0)
    return false;
  if (Line == 0 || Col == 0)
    return false;
  size_t LineStart = 0;
  for (unsigned long L = 1; L < Line; ++L) {
    size_t NL = Input.find('\n', LineStart);
    if (NL == std::string::npos)
      return false;
    LineStart = NL + 1;
  }
  size_t LineEnd = std::min(Input.find('\n', LineStart), Input.size());
  return Col <= LineEnd - LineStart + 1;
}

TEST(ParserFuzzTest, GrammarSeedParses) {
  std::string Err;
  EXPECT_TRUE(parseModule(GrammarSeed, Err)) << Err;
}

/// Aborts the process when not dismissed within \p Limit, naming the input
/// being parsed: a parser hang becomes a prompt failure instead of a
/// wait for the ctest timeout.
class Watchdog {
public:
  explicit Watchdog(std::chrono::seconds Limit)
      : Thread([this, Limit] {
          std::unique_lock<std::mutex> Lock(Mu);
          if (!Dismissed.wait_for(Lock, Limit, [this] { return Done; })) {
            std::fprintf(stderr, "parser hang on seed %zu mutant %u\n",
                         Seed.load(), Mutant.load());
            std::abort();
          }
        }) {}

  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Done = true;
    }
    Dismissed.notify_one();
    Thread.join();
  }

  std::atomic<size_t> Seed{0};
  std::atomic<unsigned> Mutant{0};

private:
  std::mutex Mu;
  std::condition_variable Dismissed;
  bool Done = false;
  std::thread Thread;
};

TEST(ParserFuzzTest, MutantsParseOrFailWithPositionedDiagnostic) {
  // Release runs take about 0.2 s; sanitizer builds stay far below this.
  Watchdog Dog(std::chrono::seconds(120));
  const std::vector<std::string> Seeds = seedInputs();
  ASSERT_GE(Seeds.size(), 15u);
  constexpr unsigned MutantsPerSeed = 2000;
  Rng R(0x4f495246757a7aULL);
  unsigned Parsed = 0, Rejected = 0;
  for (size_t SeedIdx = 0; SeedIdx != Seeds.size(); ++SeedIdx) {
    for (unsigned N = 0; N != MutantsPerSeed; ++N) {
      std::string Input = Seeds[SeedIdx];
      for (size_t Steps = 1 + R.below(4); Steps; --Steps)
        mutate(Input, Seeds, R);
      Dog.Seed = SeedIdx;
      Dog.Mutant = N;
      std::string Err;
      auto M = parseModule(Input, Err, "fuzz");
      if (M) {
        ++Parsed;
        EXPECT_TRUE(Err.empty()) << "module returned with error '" << Err
                                 << "' for seed " << SeedIdx << " mutant "
                                 << N;
        continue;
      }
      ++Rejected;
      EXPECT_TRUE(hasPositionInside(Err, Input))
          << "diagnostic '" << Err << "' has no position inside the input"
          << " (seed " << SeedIdx << " mutant " << N << ")";
      if (HasFailure())
        return; // one reproducer is enough
    }
  }
  // Both outcomes must actually be exercised.
  EXPECT_GT(Parsed, 0u);
  EXPECT_GT(Rejected, 0u);
}

TEST(ParserFuzzTest, PositionCheckRejectsOutsidePositions) {
  EXPECT_TRUE(hasPositionInside("1:1: x", ""));
  EXPECT_TRUE(hasPositionInside("2:3: x", "a\nbc"));
  EXPECT_FALSE(hasPositionInside("2:4: x", "a\nbc"));
  EXPECT_FALSE(hasPositionInside("3:1: x", "a\nbc"));
  EXPECT_FALSE(hasPositionInside("0:1: x", "a"));
  EXPECT_FALSE(hasPositionInside("unknown superclass 'B'", "a"));
}

} // namespace
