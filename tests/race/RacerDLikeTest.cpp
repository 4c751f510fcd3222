//===- RacerDLikeTest.cpp - syntactic baseline unit tests -----------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Race/RacerDLike.h"

#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/Race/RaceDetector.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

std::unique_ptr<Module> parseProgram(std::string_view Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_TRUE(M) << "parse error: " << Err;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors))
      << (Errors.empty() ? "?" : Errors.front());
  return M;
}

TEST(RacerDLikeTest, FindsSimpleSyntacticRace) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() { var o: Obj; var x: int; o = this.s; o.v = x; }
    }
    func main() {
      var s: Obj;
      var t: T;
      var x: int;
      s = new Obj;
      t = new T(s);
      spawn t.run();
      x = s.v;
    }
  )");
  RacerDReport R = runRacerDLike(*M);
  EXPECT_GE(R.numPotentialRaces(), 1u);
}

TEST(RacerDLikeTest, SyntacticLocksSuppress) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    global lock: Obj;
    class T {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() {
        var o: Obj;
        var l: Obj;
        var x: int;
        o = this.s;
        l = @lock;
        acquire l;
        o.v = x;
        release l;
      }
    }
    func main() {
      var s: Obj;
      var l: Obj;
      var t: T;
      var x: int;
      s = new Obj;
      l = new Obj;
      @lock = l;
      t = new T(s);
      spawn t.run();
      l = @lock;
      acquire l;
      x = s.v;
      release l;
    }
  )");
  RacerDReport R = runRacerDLike(*M);
  for (const RacerDWarning &W : R.warnings())
    EXPECT_NE(R.location(W), "Obj.v");
}

TEST(RacerDLikeTest, MissesPointerDistinctions) {
  // Two threads write the SAME field name of DIFFERENT objects obtained
  // through a factory: no real race, but the field-name abstraction
  // (with only intraprocedural ownership) cannot tell them apart.
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    func makeObj(): Obj {
      var o: Obj;
      o = new Obj;
      return o;
    }
    class T {
      method run() {
        var o: Obj;
        var x: int;
        o = makeObj();
        o.v = x;
      }
    }
    func main() {
      var t1: T;
      var t2: T;
      t1 = new T;
      t2 = new T;
      spawn t1.run();
      spawn t2.run();
    }
  )");
  RacerDReport RacerD = runRacerDLike(*M);
  EXPECT_GE(RacerD.numPotentialRaces(), 1u); // false positive

  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  RaceReport O2R = detectRaces(*PTA);
  EXPECT_EQ(O2R.numRaces(), 0u); // O2 is precise here
}

TEST(RacerDLikeTest, UnprotectedWriteCategory) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field s: Obj;
      field l: Obj;
      method init(s: Obj, l: Obj) { this.s = s; this.l = l; }
      method run() {
        var o: Obj;
        var lk: Obj;
        var x: int;
        o = this.s;
        lk = this.l;
        acquire lk;
        o.v = x;
        release lk;
      }
    }
    global gs: Obj;
    func main() {
      var s: Obj;
      var s2: Obj;
      var l: Obj;
      var t: T;
      var x: int;
      s = new Obj;
      l = new Obj;
      @gs = s;
      t = new T(s, l);
      spawn t.run();
      s2 = @gs;
      s2.v = x;
    }
  )");
  RacerDReport R = runRacerDLike(*M);
  bool SawUnprotected = false;
  for (const RacerDWarning &W : R.warnings())
    SawUnprotected |=
        W.WarningKind == RacerDWarning::Kind::UnprotectedWrite;
  EXPECT_TRUE(SawUnprotected);
}

TEST(RacerDLikeTest, MainOnlyProgramIsQuiet) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    func main() {
      var o: Obj;
      var x: int;
      o = new Obj;
      o.v = x;
      x = o.v;
    }
  )");
  RacerDReport R = runRacerDLike(*M);
  EXPECT_EQ(R.numPotentialRaces(), 0u);
}

} // namespace
