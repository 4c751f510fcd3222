//===- AtomicsTest.cpp - atomic fields/globals tests ----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The paper lists std::atomic support as future work ("by adding new
// happens-before rules ... to the atomic/semaphore operations"); OIR
// implements it with an `atomic` storage modifier: accesses to atomic
// fields and globals are synchronization, not data, so the detector does
// not report races on them.
//
//===----------------------------------------------------------------------===//

#include "o2/Analysis/AnalysisManager.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Printer.h"
#include "o2/IR/Verifier.h"

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

const char *AtomicProgram = R"(
class Obj {
  field flag: int atomic;
  field data: int;
}
global stop: int atomic;
class T {
  field s: Obj;
  method init(s: Obj) { this.s = s; }
  method run() {
    var o: Obj;
    var x: int;
    o = this.s;
    o.flag = x;
    o.data = x;
    @stop = x;
  }
}
func main() {
  var s: Obj;
  var t1: T;
  var t2: T;
  var x: int;
  s = new Obj;
  t1 = new T(s);
  t2 = new T(s);
  spawn t1.run();
  spawn t2.run();
  x = @stop;
}
)";

TEST(AtomicsTest, ParserRecordsAtomicity) {
  auto M = parseProgram(AtomicProgram);
  ClassType *Obj = M->findClass("Obj");
  EXPECT_TRUE(Obj->findField("flag")->isAtomic());
  EXPECT_FALSE(Obj->findField("data")->isAtomic());
  EXPECT_TRUE(M->findGlobal("stop")->isAtomic());
}

TEST(AtomicsTest, PrinterRoundTripsAtomic) {
  auto M = parseProgram(AtomicProgram);
  std::string Printed = printModule(*M);
  EXPECT_NE(Printed.find("field flag: int atomic;"), std::string::npos);
  EXPECT_NE(Printed.find("global stop: int atomic;"), std::string::npos);
  std::string Err;
  auto M2 = parseModule(Printed, Err);
  ASSERT_TRUE(M2) << Err;
  EXPECT_TRUE(M2->findClass("Obj")->findField("flag")->isAtomic());
  EXPECT_EQ(printModule(*M2), Printed);
}

TEST(AtomicsTest, AtomicLocationsDoNotRace) {
  auto M = parseProgram(AtomicProgram);
  AnalysisManager AM(*M);
  const RaceReport &R = AM.getRaces();
  // Only the plain field races; flag and @stop are synchronization.
  ASSERT_EQ(R.numRaces(), 1u);
  EXPECT_NE(R.races()[0].Loc.toString(AM.getPTA()).find(".data"),
            std::string::npos);
}

TEST(AtomicsTest, InheritedAtomicFieldsRespected) {
  auto M = parseProgram(R"(
    class Base { field flag: int atomic; }
    class Obj extends Base { }
    class T {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() {
        var o: Obj;
        var x: int;
        o = this.s;
        o.flag = x;
      }
    }
    func main() {
      var s: Obj;
      var t1: T;
      var t2: T;
      s = new Obj;
      t1 = new T(s);
      t2 = new T(s);
      spawn t1.run();
      spawn t2.run();
    }
  )");
  EXPECT_EQ(AnalysisManager(*M).getRaces().numRaces(), 0u);
}

} // namespace
