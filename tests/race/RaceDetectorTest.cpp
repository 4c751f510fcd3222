//===- RaceDetectorTest.cpp - race detection unit tests -------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Race/RaceDetector.h"

#include "o2/Analysis/AnalysisManager.h"
#include "o2/IR/Parser.h"
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

RaceReport detect(const Module &M,
                  ContextKind Kind = ContextKind::Origin,
                  RaceDetectorOptions Opts = {}, SHBOptions SHBOpts = {}) {
  O2Config Config;
  Config.PTA.Kind = Kind;
  Config.SHB = SHBOpts;
  Config.Detector = Opts;
  return AnalysisManager(M, Config).getRaces();
}

TEST(RaceDetectorTest, UnprotectedWriteWriteRace) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() { var o: Obj; var x: int; o = this.s; o.v = x; }
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
  RaceReport R = detect(*M);
  // Both threads execute the same write statement on the shared object.
  ASSERT_EQ(R.numRaces(), 1u);
  EXPECT_EQ(R.races()[0].A, R.races()[0].B);
  EXPECT_TRUE(R.races()[0].AIsWrite);
}

TEST(RaceDetectorTest, CommonLockSuppressesRace) {
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
    func main() {
      var s: Obj;
      var l: Obj;
      var t1: T;
      var t2: T;
      s = new Obj;
      l = new Obj;
      t1 = new T(s, l);
      t2 = new T(s, l);
      spawn t1.run();
      spawn t2.run();
    }
  )");
  RaceReport R = detect(*M);
  EXPECT_EQ(R.numRaces(), 0u);
}

TEST(RaceDetectorTest, DistinctLocksDoNotProtect) {
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
    func main() {
      var s: Obj;
      var l1: Obj;
      var l2: Obj;
      var t1: T;
      var t2: T;
      s = new Obj;
      l1 = new Obj;
      l2 = new Obj;
      t1 = new T(s, l1);
      t2 = new T(s, l2);
      spawn t1.run();
      spawn t2.run();
    }
  )");
  RaceReport R = detect(*M);
  // Each thread locks its own lock object: no common guard.
  EXPECT_EQ(R.numRaces(), 1u);
}

TEST(RaceDetectorTest, OneSidedLockStillRaces) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class Locked {
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
    class Unlocked {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() { var o: Obj; var x: int; o = this.s; x = o.v; }
    }
    func main() {
      var s: Obj;
      var l: Obj;
      var a: Locked;
      var b: Unlocked;
      s = new Obj;
      l = new Obj;
      a = new Locked(s, l);
      b = new Unlocked(s);
      spawn a.run();
      spawn b.run();
    }
  )");
  RaceReport R = detect(*M);
  ASSERT_EQ(R.numRaces(), 1u);
  EXPECT_TRUE(R.races()[0].AIsWrite != R.races()[0].BIsWrite);
}

TEST(RaceDetectorTest, ForkJoinOrdersAccesses) {
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
      s.v = x;
      t = new T(s);
      spawn t.run();
      join t;
      s.v = x;
    }
  )");
  RaceReport R = detect(*M);
  EXPECT_EQ(R.numRaces(), 0u);
}

TEST(RaceDetectorTest, ConcurrentMainAccessRaces) {
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
      join t;
    }
  )");
  RaceReport R = detect(*M);
  // The main read is between spawn and join: concurrent with the write.
  EXPECT_EQ(R.numRaces(), 1u);
}

TEST(RaceDetectorTest, ReadOnlySharingNoRace) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() { var o: Obj; var x: int; o = this.s; x = o.v; }
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
  RaceReport R = detect(*M);
  EXPECT_EQ(R.numRaces(), 0u);
}

TEST(RaceDetectorTest, ThreadLocalDataNoRace) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      method run() {
        var o: Obj;
        var x: int;
        o = new Obj;
        o.v = x;
        x = o.v;
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
  RaceReport R = detect(*M);
  EXPECT_EQ(R.numRaces(), 0u);
  EXPECT_EQ(R.stats().get("race.shared-locations"), 0u);

  // 0-ctx merges the per-thread allocations and reports false races
  // (write/write and write/read): the imprecision OPA eliminates
  // (Section 5.2).
  RaceReport R0 = detect(*M, ContextKind::Insensitive);
  EXPECT_EQ(R0.numRaces(), 2u);
}

TEST(RaceDetectorTest, GlobalRace) {
  auto M = parseProgram(R"(
    class T {
      method run() { var x: int; @counter = x; }
    }
    global counter: int;
    func main() {
      var t: T;
      var x: int;
      t = new T;
      spawn t.run();
      x = @counter;
    }
  )");
  RaceReport R = detect(*M);
  ASSERT_EQ(R.numRaces(), 1u);
  EXPECT_TRUE(R.races()[0].Loc.isGlobal());
}

TEST(RaceDetectorTest, EventSerializationSuppressesHandlerRaces) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class H {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method handleEvent() { var o: Obj; var x: int; o = this.s; o.v = x; }
    }
    func main() {
      var s: Obj;
      var h1: H;
      var h2: H;
      s = new Obj;
      h1 = new H(s);
      h2 = new H(s);
      spawn h1.handleEvent();
      spawn h2.handleEvent();
    }
  )");
  // Section 4.2: handlers on the looper thread cannot race each other.
  RaceReport Serialized = detect(*M);
  EXPECT_EQ(Serialized.numRaces(), 0u);

  SHBOptions NoSerial;
  NoSerial.SerializeEventHandlers = false;
  RaceReport Parallel = detect(*M, ContextKind::Origin, {}, NoSerial);
  EXPECT_EQ(Parallel.numRaces(), 1u);
}

TEST(RaceDetectorTest, ThreadVsEventHandlerRaces) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class H {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method handleEvent() { var o: Obj; var x: int; o = this.s; o.v = x; }
    }
    class T {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() { var o: Obj; var x: int; o = this.s; o.v = x; }
    }
    func main() {
      var s: Obj;
      var h: H;
      var t: T;
      s = new Obj;
      h = new H(s);
      t = new T(s);
      spawn h.handleEvent();
      spawn t.run();
    }
  )");
  // The implicit looper lock serializes handlers with each other but NOT
  // with ordinary threads: this is precisely the thread↔event interaction
  // the paper's new bugs exhibit.
  RaceReport R = detect(*M);
  EXPECT_EQ(R.numRaces(), 1u);
}

TEST(RaceDetectorTest, LoopSpawnSelfRace) {
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
      s = new Obj;
      loop {
        t = new T(s);
        spawn t.run();
      }
    }
  )");
  RaceReport R = detect(*M);
  // Two duplicated origins race with each other on the same statement.
  EXPECT_EQ(R.numRaces(), 1u);
}

TEST(RaceDetectorTest, LockRegionMergingPreservesRaces) {
  auto M = parseProgram(R"(
    class Obj { field a: int; field b: int; }
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
        o.a = x;
        x = o.a;
        o.a = x;
        o.b = x;
        release lk;
      }
    }
    class U {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() { var o: Obj; var x: int; o = this.s; o.a = x; }
    }
    func main() {
      var s: Obj;
      var l: Obj;
      var t1: T;
      var t2: T;
      var u: U;
      s = new Obj;
      l = new Obj;
      t1 = new T(s, l);
      t2 = new T(s, l);
      u = new U(s);
      spawn t1.run();
      spawn t2.run();
      spawn u.run();
    }
  )");
  RaceDetectorOptions Optimized; // all on
  RaceReport ROpt = detect(*M, ContextKind::Origin, Optimized);

  RaceDetectorOptions Naive;
  Naive.HB = RaceHBKind::Naive;
  Naive.CacheLocksetChecks = false;
  Naive.LockRegionMerging = false;
  RaceReport RNaive = detect(*M, ContextKind::Origin, Naive);

  // Merging may collapse several racy pairs inside one lock region into a
  // representative, but must preserve exactly the racy locations.
  std::set<uint64_t> OptLocs, NaiveLocs;
  for (const Race &Rc : ROpt.races())
    OptLocs.insert(Rc.Loc.key());
  for (const Race &Rc : RNaive.races())
    NaiveLocs.insert(Rc.Loc.key());
  EXPECT_EQ(OptLocs, NaiveLocs);
  EXPECT_LE(ROpt.numRaces(), RNaive.numRaces());
  EXPECT_GE(ROpt.numRaces(), 1u);
  // Every optimized race is also a naive race.
  std::set<std::pair<const Stmt *, const Stmt *>> NaivePairs;
  for (const Race &Rc : RNaive.races())
    NaivePairs.insert({Rc.A, Rc.B});
  for (const Race &Rc : ROpt.races())
    EXPECT_TRUE(NaivePairs.count({Rc.A, Rc.B}));
  // ... with strictly less work for the merged configuration.
  EXPECT_LT(ROpt.stats().get("race.pairs-checked"),
            RNaive.stats().get("race.pairs-checked"));
  EXPECT_GE(ROpt.stats().get("race.merged-accesses"), 1u);
}

TEST(RaceDetectorTest, ReportPrinting) {
  auto M = parseProgram(R"(
    class T {
      method run() { var x: int; @g = x; }
    }
    global g: int;
    func main() {
      var t: T;
      var x: int;
      t = new T;
      spawn t.run();
      @g = x;
    }
  )");
  RaceReport R = detect(*M);
  ASSERT_EQ(R.numRaces(), 1u);
  // A write/write race on @g: the report names the global and both
  // writes.
  const Race &Rc = R.races().front();
  ASSERT_TRUE(Rc.Loc.isGlobal());
  EXPECT_EQ(M->globals()[Rc.Loc.globalId()]->getName(), "g");
  EXPECT_TRUE(Rc.AIsWrite);
  EXPECT_TRUE(Rc.BIsWrite);
}

TEST(RaceDetectorTest, MayJoinDoesNotOrderAThreadAfterItsOwnChild) {
  // W is spawned in a loop; each W joins the previous one (@prev), then
  // spawns a C and reads @d.x, which C writes. Nothing orders W's read
  // after its own child's write. A join edge from every thread @prev may
  // name put the two W copies in a join cycle that hid this race.
  auto M = parseProgram(R"(
    class D { field x: int; }
    class C {
      method run() { var o: D; var v: int; o = @d; o.x = v; }
    }
    class W {
      method run() {
        var p: W;
        var c: C;
        var o: D;
        var v: int;
        p = @prev;
        join p;
        c = new C;
        spawn c.run();
        o = @d;
        v = o.x;
      }
    }
    global d: D;
    global prev: W;
    func main() {
      var o: D;
      var w: W;
      o = new D;
      @d = o;
      loop {
        w = new W;
        @prev = w;
        spawn w.run();
      }
    }
  )");
  RaceReport R = detect(*M);
  ASSERT_EQ(R.numRaces(), 2u);
  unsigned WriteWrite = 0, ReadWrite = 0;
  for (const Race &Rc : R.races())
    ++(Rc.AIsWrite && Rc.BIsWrite ? WriteWrite : ReadWrite);
  EXPECT_EQ(WriteWrite, 1u); // the two C copies
  EXPECT_EQ(ReadWrite, 1u);  // W's read against C's write
}

TEST(RaceDetectorTest, BudgetExhaustionAlwaysSetsBudgetHit) {
  // Three threads hammering one location: several conflicting pairs, all
  // at the *last* (only) candidate with pairs — the case where the old
  // detector returned from checkLocation without ever setting
  // "race.budget-hit" because only the next loop iteration checked it.
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() { var o: Obj; var x: int; o = this.s; o.v = x; }
    }
    func main() {
      var s: Obj;
      var t1: T;
      var t2: T;
      var t3: T;
      s = new Obj;
      t1 = new T(s);
      t2 = new T(s);
      t3 = new T(s);
      spawn t1.run();
      spawn t2.run();
      spawn t3.run();
    }
  )");
  uint64_t Total =
      detect(*M).stats().get("race.pairs-checked");
  ASSERT_GE(Total, 2u);

  // One pair short: the tripping pair is denied, not half-counted.
  RaceDetectorOptions Opts;
  Opts.MaxPairChecks = Total - 1;
  RaceReport Hit = detect(*M, ContextKind::Origin, Opts);
  EXPECT_EQ(Hit.stats().get("race.budget-hit"), 1u);
  EXPECT_EQ(Hit.stats().get("race.pairs-checked"), Total - 1);

  // An exactly-sufficient budget completes without tripping.
  Opts.MaxPairChecks = Total;
  RaceReport Fits = detect(*M, ContextKind::Origin, Opts);
  EXPECT_EQ(Fits.stats().get("race.budget-hit"), 0u);
  EXPECT_EQ(Fits.stats().get("race.pairs-checked"), Total);
  EXPECT_EQ(Fits.numRaces(), detect(*M).numRaces());
}

} // namespace
