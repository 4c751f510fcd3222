//===- SHBGraphTest.cpp - SHB graph unit tests ---------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/SHB/SHBGraph.h"

#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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

std::unique_ptr<PTAResult> runOPA(const Module &M) {
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  return runPointerAnalysis(M, Opts);
}

const char *ForkJoinProgram = R"(
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
    x = s.v;
    spawn t.run();
    join t;
    s.v = x;
  }
)";

TEST(SHBGraphTest, ThreadsDiscovered) {
  auto M = parseProgram(ForkJoinProgram);
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  ASSERT_EQ(G.numThreads(), 2u);
  EXPECT_EQ(G.thread(0).Kind, OriginKind::Main);
  EXPECT_EQ(G.thread(0).Entry, M->getMain());
  EXPECT_EQ(G.thread(1).Kind, OriginKind::Thread);
  EXPECT_EQ(G.thread(1).Entry, M->findClass("T")->findMethod("run"));
  EXPECT_NE(G.thread(1).Spawn, nullptr);
}

TEST(SHBGraphTest, AccessEventsRecorded) {
  auto M = parseProgram(ForkJoinProgram);
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  // Main: read s.v (+ field stores in init inlined at the alloc),
  // write s.v after the join. Thread: this.s read + o.v write.
  const ThreadInfo &Main = G.thread(0);
  const ThreadInfo &T = G.thread(1);
  unsigned MainWrites = 0, MainReads = 0;
  for (const AccessEvent &E : Main.Accesses)
    (E.IsWrite ? MainWrites : MainReads)++;
  EXPECT_EQ(MainWrites, 2u); // this.s = s (ctor, runs in main) + s.v = x
  EXPECT_EQ(MainReads, 1u);  // x = s.v
  unsigned TWrites = 0, TReads = 0;
  for (const AccessEvent &E : T.Accesses)
    (E.IsWrite ? TWrites : TReads)++;
  EXPECT_EQ(TWrites, 1u); // o.v = x
  EXPECT_EQ(TReads, 1u);  // o = this.s
  // Positions are strictly increasing within a thread.
  for (size_t I = 1; I < Main.Accesses.size(); ++I)
    EXPECT_LT(Main.Accesses[I - 1].Pos, Main.Accesses[I].Pos);
}

TEST(SHBGraphTest, ForkJoinHappensBefore) {
  auto M = parseProgram(ForkJoinProgram);
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  const ThreadInfo &Main = G.thread(0);
  ASSERT_EQ(Main.SpawnEdges.size(), 1u);
  uint32_t SpawnPos = Main.SpawnEdges[0].first;
  ASSERT_EQ(G.thread(1).Joins.size(), 1u);
  uint32_t JoinPos = G.thread(1).Joins[0].second;

  // Before the spawn HB into the child...
  EXPECT_TRUE(G.happensBefore(0, SpawnPos, 1, 0));
  EXPECT_TRUE(G.happensBefore(0, 0, 1, 5));
  // ... but not after it.
  EXPECT_FALSE(G.happensBefore(0, SpawnPos + 1, 1, 0));
  // The child HB into main after the join...
  EXPECT_TRUE(G.happensBefore(1, 0, 0, JoinPos));
  EXPECT_TRUE(G.happensBefore(1, 3, 0, JoinPos + 2));
  // ... but not before it.
  EXPECT_FALSE(G.happensBefore(1, 0, 0, SpawnPos));
  // Intra-thread order is integer comparison.
  EXPECT_TRUE(G.happensBefore(0, 1, 0, 2));
  EXPECT_FALSE(G.happensBefore(0, 2, 0, 2));
  EXPECT_FALSE(G.happensBefore(0, 3, 0, 2));
}

TEST(SHBGraphTest, NaiveHBMatchesOptimized) {
  auto M = parseProgram(ForkJoinProgram);
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  for (unsigned T1 = 0; T1 < G.numThreads(); ++T1)
    for (unsigned T2 = 0; T2 < G.numThreads(); ++T2)
      for (uint32_t P1 = 0; P1 < G.thread(T1).NumEvents; ++P1)
        for (uint32_t P2 = 0; P2 < G.thread(T2).NumEvents; ++P2)
          EXPECT_EQ(G.happensBefore(T1, P1, T2, P2),
                    G.happensBeforeNaive(T1, P1, T2, P2))
              << "mismatch at (" << T1 << "," << P1 << ") vs (" << T2 << ","
              << P2 << ")";
}

TEST(SHBGraphTest, LocksetsTracked) {
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
        o.v = x;
      }
    }
    func main() {
      var s: Obj;
      var l: Obj;
      var t: T;
      s = new Obj;
      l = new Obj;
      t = new T(s, l);
      spawn t.run();
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  const ThreadInfo &T = G.thread(1);
  // Find the two o.v writes: first under lock, second not.
  std::vector<const AccessEvent *> Writes;
  for (const AccessEvent &E : T.Accesses)
    if (E.IsWrite)
      Writes.push_back(&E);
  ASSERT_EQ(Writes.size(), 2u);
  EXPECT_NE(Writes[0]->Lockset, InternTable::Empty);
  EXPECT_NE(Writes[0]->LockRegion, 0u);
  EXPECT_EQ(Writes[1]->Lockset, InternTable::Empty);
  EXPECT_EQ(Writes[1]->LockRegion, 0u);
  EXPECT_EQ(G.locksetElems(Writes[0]->Lockset).size(), 1u);
}

TEST(SHBGraphTest, LocksetIntersection) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field s: Obj;
      field l1: Obj;
      field l2: Obj;
      method init(s: Obj, l1: Obj, l2: Obj) {
        this.s = s;
        this.l1 = l1;
        this.l2 = l2;
      }
      method run() {
        var o: Obj;
        var a: Obj;
        var b: Obj;
        var x: int;
        o = this.s;
        a = this.l1;
        b = this.l2;
        acquire a;
        o.v = x;
        release a;
        acquire b;
        o.v = x;
        release b;
        acquire a;
        acquire b;
        o.v = x;
        release b;
        release a;
      }
    }
    func main() {
      var s: Obj;
      var l1: Obj;
      var l2: Obj;
      var t: T;
      s = new Obj;
      l1 = new Obj;
      l2 = new Obj;
      t = new T(s, l1, l2);
      spawn t.run();
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  std::vector<const AccessEvent *> Writes;
  for (const AccessEvent &E : G.thread(1).Accesses)
    if (E.IsWrite && E.S->getFunction()->getName() == "run")
      Writes.push_back(&E);
  ASSERT_EQ(Writes.size(), 3u);
  LocksetId L1 = Writes[0]->Lockset;
  LocksetId L2 = Writes[1]->Lockset;
  LocksetId L12 = Writes[2]->Lockset;
  EXPECT_NE(L1, L2);
  EXPECT_FALSE(G.locksetsIntersect(L1, L2));
  EXPECT_TRUE(G.locksetsIntersect(L1, L12));
  EXPECT_TRUE(G.locksetsIntersect(L2, L12));
  EXPECT_TRUE(G.locksetsIntersect(L12, L12));
  EXPECT_FALSE(G.locksetsIntersect(L1, InternTable::Empty));
  // Cached and uncached agree.
  EXPECT_EQ(G.locksetsIntersect(L1, L2), G.locksetsIntersectUncached(L1, L2));
  EXPECT_EQ(G.locksetsIntersect(L1, L12),
            G.locksetsIntersectUncached(L1, L12));
}

TEST(SHBGraphTest, EventHandlersSerializedByImplicitLock) {
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
  auto PTA = runOPA(*M);

  SHBGraph Serialized = buildSHBGraph(*PTA);
  ASSERT_EQ(Serialized.numThreads(), 3u);
  for (unsigned T = 1; T < 3; ++T) {
    EXPECT_EQ(Serialized.thread(T).Kind, OriginKind::Event);
    for (const AccessEvent &E : Serialized.thread(T).Accesses) {
      ArrayRef<uint32_t> Elems = Serialized.locksetElems(E.Lockset);
      bool HasUILock = false;
      for (uint32_t El : Elems)
        HasUILock |= El == SHBGraph::UILockElem;
      EXPECT_TRUE(HasUILock);
    }
  }
  // Handler locksets intersect pairwise through the implicit lock.
  EXPECT_TRUE(Serialized.locksetsIntersect(
      Serialized.thread(1).Accesses[0].Lockset,
      Serialized.thread(2).Accesses[0].Lockset));

  SHBOptions NoSerial;
  NoSerial.SerializeEventHandlers = false;
  SHBGraph Parallel = buildSHBGraph(*PTA, NoSerial);
  EXPECT_EQ(Parallel.thread(1).Accesses[0].Lockset, InternTable::Empty);
}

TEST(SHBGraphTest, LoopSpawnDuplicatesThread) {
  auto M = parseProgram(R"(
    class T { method run() { } }
    func main() {
      var t: T;
      t = new T;
      loop { spawn t.run(); }
    }
  )");
  // Use 0-ctx so origin-level duplication does not apply.
  PTAOptions Opts;
  Opts.Kind = ContextKind::Insensitive;
  auto PTA = runPointerAnalysis(*M, Opts);
  SHBGraph G = buildSHBGraph(*PTA);
  EXPECT_EQ(G.numThreads(), 3u); // main + two instances
}

TEST(SHBGraphTest, OriginDuplicationNotDoubled) {
  auto M = parseProgram(R"(
    class T { method run() { } }
    func main() {
      var t: T;
      loop {
        t = new T;
        spawn t.run();
      }
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  // OPA already duplicated the origin (2 objects); the spawn must not
  // duplicate again: main + 2 threads, not main + 4.
  EXPECT_EQ(G.numThreads(), 3u);
}

TEST(SHBGraphTest, JoinOfALoopSpawnedThreadOrdersNothing) {
  // One object, two SHB threads on it (the spawn is in a loop): the join
  // may wait for either one, so it orders neither's end before it.
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
      loop { spawn t.run(); }
      join t;
      x = s.v;
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  ASSERT_EQ(G.numThreads(), 3u);
  for (unsigned T = 1; T < 3; ++T) {
    EXPECT_TRUE(G.thread(T).Joins.empty()) << "thread " << T;
    const AccessEvent &Write = G.thread(T).Accesses.back();
    const AccessEvent &Read = G.thread(0).Accesses.back();
    EXPECT_FALSE(G.happensBefore(T, Write.Pos, 0, Read.Pos));
  }
}

TEST(SHBGraphTest, JoinOfALoopAllocatedObjectOrdersNothing) {
  // Each W joins the W spawned before it through @prev. The loop
  // allocates W, so @prev names two origin objects at run time and no
  // join edge is added; a may-join here would put the two W copies in a
  // join cycle.
  auto M = parseProgram(R"(
    class W {
      method run() { var p: W; p = @prev; join p; }
    }
    global prev: W;
    func main() {
      var w: W;
      loop {
        w = new W;
        @prev = w;
        spawn w.run();
      }
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  ASSERT_EQ(G.numThreads(), 3u);
  for (const ThreadInfo &T : G.threads())
    EXPECT_TRUE(T.Joins.empty()) << "thread " << T.Id;
}

TEST(SHBGraphTest, RegionsWithSpawnsAreFlagged) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T { method run() { } }
    global g: Obj;
    func main() {
      var o: Obj;
      var t: T;
      var x: int;
      o = new Obj;
      t = new T;
      acquire o;
      o.v = x;
      spawn t.run();
      o.v = x;
      release o;
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  const ThreadInfo &Main = G.thread(0);
  unsigned Flagged = 0;
  for (const AccessEvent &E : Main.Accesses)
    if (E.RegionHasSync)
      ++Flagged;
  EXPECT_EQ(Flagged, 2u); // both o.v writes share the spawning region
}

TEST(SHBGraphTest, MainlessModuleYieldsEmptyGraphNotAbort) {
  // Skip the verifier on purpose: a main-less module must degrade to a
  // flagged empty graph (no threads — nothing executes, no races), not
  // an assert/UB in release builds.
  std::string Err;
  auto M = parseModule("func helper() { }", Err);
  ASSERT_TRUE(M) << Err;
  ASSERT_EQ(M->getMain(), nullptr);
  auto PTA = runOPA(*M);
  EXPECT_TRUE(PTA->entryMissing());
  SHBGraph G = buildSHBGraph(*PTA);
  EXPECT_TRUE(G.entryMissing());
  EXPECT_FALSE(G.cancelled());
  EXPECT_EQ(G.numThreads(), 0u);
}

//===----------------------------------------------------------------------===//
// Event-cap truncation. The walk jumps between the statements it acts on
// (locks, calls, spawns, joins) and steps over the plain statements in
// between by position arithmetic. The tables below were recorded from
// the statement-by-statement walk it replaced, at every cap from 0 to
// one past the longest trace: caps that fall inside a run of plain
// statements, exactly on a call node, and between a caller's call nodes.
//===----------------------------------------------------------------------===//

const char *TruncationProgram = R"(
  class Obj { field v: int; }
  class Lock { }
  class A { method m(o: Obj) { var x: int; o.v = x; x = o.v; } }
  class B extends A {
    method m(o: Obj) { var x: int; x = o.v; o.v = x; o.v = x; }
  }
  class T {
    field o: Obj;
    method init(o: Obj) { this.o = o; }
    method run() { var o: Obj; var x: int; o = this.o; o.v = x; x = o.v; }
  }
  func helper(o: Obj) { var x: int; o.v = x; x = o.v; }
  func main() {
    var o: Obj;
    var a: A;
    var x: int;
    var l: Lock;
    var t: T;
    o = new Obj;
    l = new Lock;
    o.v = x;
    x = o.v;
    acquire l;
    o.v = x;
    x = o.v;
    o.v = x;
    release l;
    a = new A;
    a = new B;
    a.m(o);
    helper(o);
    t = new T(o);
    spawn t.run();
    x = o.v;
    o.v = x;
    join t;
    o.v = x;
  }
)";

/// Each thread's event count, truncation flag, and the positions of its
/// stored accesses, acquires and spawn edges, as one line.
std::string traceSummary(const SHBGraph &G) {
  std::string Out;
  for (const ThreadInfo &T : G.threads()) {
    Out += "T" + std::to_string(T.Id) + " n=" + std::to_string(T.NumEvents) +
           (T.Truncated ? " cut" : "") + " acc=";
    for (const AccessEvent &E : T.Accesses)
      Out += std::to_string(E.Pos) + ",";
    Out += " acq=";
    for (const AcquireEvent &E : T.Acquires)
      Out += std::to_string(E.Pos) + ",";
    Out += " spawn=";
    for (const auto &[Pos, Child] : T.SpawnEdges)
      Out += std::to_string(Pos) + ">" + std::to_string(Child) + ",";
    Out += "; ";
  }
  return Out;
}

/// Builds the graph at every cap from 0 to one past the longest trace.
std::vector<std::string> capSweep(const PTAResult &PTA) {
  SHBGraph Full = buildSHBGraph(PTA);
  unsigned Longest = 0;
  for (const ThreadInfo &T : Full.threads())
    Longest = std::max(Longest, T.NumEvents);
  std::vector<std::string> Out;
  for (unsigned Max = 0; Max <= Longest + 1; ++Max) {
    SHBOptions Opts;
    Opts.MaxEventsPerThread = Max;
    Out.push_back(traceSummary(buildSHBGraph(PTA, Opts)));
  }
  return Out;
}

TEST(SHBGraphTest, EventCapInMainMatchesTheStatementWalk) {
  // main's trace mixes plain runs with a lock region, the two targets of
  // the virtual call a.m(o), the direct call helper(o), the constructor
  // that new T(o) runs, a spawn and a join; the sweep cuts it in each.
  auto M = parseProgram(TruncationProgram);
  auto PTA = runOPA(*M);
  const std::vector<std::string> Expected = {
      "T0 n=0 cut acc= acq= spawn=; ",
      "T0 n=1 cut acc= acq= spawn=; ",
      "T0 n=2 cut acc= acq= spawn=; ",
      "T0 n=3 cut acc=2, acq= spawn=; ",
      "T0 n=4 cut acc=2,3, acq= spawn=; ",
      "T0 n=5 cut acc=2,3, acq=4, spawn=; ",
      "T0 n=6 cut acc=2,3,5, acq=4, spawn=; ",
      "T0 n=7 cut acc=2,3,5,6, acq=4, spawn=; ",
      "T0 n=8 cut acc=2,3,5,6,7, acq=4, spawn=; ",
      "T0 n=9 cut acc=2,3,5,6,7, acq=4, spawn=; ",
      "T0 n=10 cut acc=2,3,5,6,7, acq=4, spawn=; ",
      "T0 n=11 cut acc=2,3,5,6,7, acq=4, spawn=; ",
      "T0 n=14 cut acc=2,3,5,6,7, acq=4, spawn=; ",
      "T0 n=15 cut acc=2,3,5,6,7,12, acq=4, spawn=; ",
      "T0 n=16 cut acc=2,3,5,6,7,12,13, acq=4, spawn=; ",
      "T0 n=16 cut acc=2,3,5,6,7,12,13, acq=4, spawn=; ",
      "T0 n=17 cut acc=2,3,5,6,7,12,13,15, acq=4, spawn=; ",
      "T0 n=18 cut acc=2,3,5,6,7,12,13,15,16, acq=4, spawn=; ",
      "T0 n=19 cut acc=2,3,5,6,7,12,13,15,16,17, acq=4, spawn=; ",
      "T0 n=19 cut acc=2,3,5,6,7,12,13,15,16,17, acq=4, spawn=; ",
      "T0 n=21 cut acc=2,3,5,6,7,12,13,15,16,17, acq=4, spawn=; ",
      "T0 n=22 cut acc=2,3,5,6,7,12,13,15,16,17,20, acq=4, spawn=; ",
      "T0 n=23 cut acc=2,3,5,6,7,12,13,15,16,17,20,21, acq=4, spawn=; ",
      "T0 n=23 cut acc=2,3,5,6,7,12,13,15,16,17,20,21, acq=4, spawn=; ",
      "T0 n=25 cut acc=2,3,5,6,7,12,13,15,16,17,20,21, acq=4, spawn=; ",
      "T0 n=26 cut acc=2,3,5,6,7,12,13,15,16,17,20,21,24, acq=4, spawn=; ",
      "T0 n=26 cut acc=2,3,5,6,7,12,13,15,16,17,20,21,24, acq=4, spawn=; ",
      "T0 n=27 cut acc=2,3,5,6,7,12,13,15,16,17,20,21,24, acq=4, spawn=26>1,; T1 n=3 acc=0,1,2, acq= spawn=; ",
      "T0 n=28 cut acc=2,3,5,6,7,12,13,15,16,17,20,21,24,27, acq=4, spawn=26>1,; T1 n=3 acc=0,1,2, acq= spawn=; ",
      "T0 n=29 cut acc=2,3,5,6,7,12,13,15,16,17,20,21,24,27,28, acq=4, spawn=26>1,; T1 n=3 acc=0,1,2, acq= spawn=; ",
      "T0 n=30 cut acc=2,3,5,6,7,12,13,15,16,17,20,21,24,27,28, acq=4, spawn=26>1,; T1 n=3 acc=0,1,2, acq= spawn=; ",
      "T0 n=31 acc=2,3,5,6,7,12,13,15,16,17,20,21,24,27,28,30, acq=4, spawn=26>1,; T1 n=3 acc=0,1,2, acq= spawn=; ",
      "T0 n=31 acc=2,3,5,6,7,12,13,15,16,17,20,21,24,27,28,30, acq=4, spawn=26>1,; T1 n=3 acc=0,1,2, acq= spawn=; ",
  };
  EXPECT_EQ(capSweep(*PTA), Expected);
}

const char *ChildTruncationProgram = R"(
  class Obj { field v: int; }
  class Lock { }
  class A { method m(o: Obj) { var x: int; o.v = x; x = o.v; } }
  class B extends A {
    method m(o: Obj) { var x: int; x = o.v; o.v = x; o.v = x; }
  }
  class C { method run() { } }
  func helper(o: Obj) { var x: int; o.v = x; x = o.v; }
  class T {
    field o: Obj;
    method init(o: Obj) { this.o = o; }
    method run() {
      var o: Obj;
      var a: A;
      var x: int;
      var l: Lock;
      var c: C;
      o = this.o;
      l = new Lock;
      acquire l;
      o.v = x;
      helper(o);
      x = o.v;
      release l;
      a = new A;
      a = new B;
      a.m(o);
      x = o.v;
      o.v = x;
      c = new C;
      spawn c.run();
      o.v = x;
    }
  }
  func main() {
    var o: Obj;
    var t: T;
    var x: int;
    o = new Obj;
    t = new T(o);
    spawn t.run();
    x = o.v;
    join t;
    o.v = x;
  }
)";

TEST(SHBGraphTest, EventCapInAChildMatchesTheStatementWalk) {
  // The cap applies per thread: the child is cut inside its lock region,
  // inside the calls it makes, and around its own spawn.
  auto M = parseProgram(ChildTruncationProgram);
  auto PTA = runOPA(*M);
  const std::vector<std::string> Expected = {
      "T0 n=0 cut acc= acq= spawn=; ",
      "T0 n=1 cut acc= acq= spawn=; ",
      "T0 n=3 cut acc= acq= spawn=; ",
      "T0 n=4 cut acc=2, acq= spawn=; ",
      "T0 n=4 cut acc=2, acq= spawn=; ",
      "T0 n=5 cut acc=2, acq= spawn=4>1,; T1 n=6 cut acc=0,3, acq=2, spawn=; ",
      "T0 n=6 cut acc=2,5, acq= spawn=4>1,; T1 n=7 cut acc=0,3,5, acq=2, spawn=; ",
      "T0 n=7 cut acc=2,5, acq= spawn=4>1,; T1 n=8 cut acc=0,3,5,6, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=8 cut acc=0,3,5,6, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=9 cut acc=0,3,5,6,8, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=10 cut acc=0,3,5,6,8, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=11 cut acc=0,3,5,6,8, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=12 cut acc=0,3,5,6,8, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=15 cut acc=0,3,5,6,8, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=16 cut acc=0,3,5,6,8,13, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=17 cut acc=0,3,5,6,8,13,14, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=17 cut acc=0,3,5,6,8,13,14, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=18 cut acc=0,3,5,6,8,13,14,16, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=19 cut acc=0,3,5,6,8,13,14,16,17, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=20 cut acc=0,3,5,6,8,13,14,16,17,18, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=20 cut acc=0,3,5,6,8,13,14,16,17,18, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=21 cut acc=0,3,5,6,8,13,14,16,17,18,20, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=22 cut acc=0,3,5,6,8,13,14,16,17,18,20,21, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=23 cut acc=0,3,5,6,8,13,14,16,17,18,20,21, acq=2, spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=24 cut acc=0,3,5,6,8,13,14,16,17,18,20,21, acq=2, spawn=23>2,; T2 n=0 acc= acq= spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=25 acc=0,3,5,6,8,13,14,16,17,18,20,21,24, acq=2, spawn=23>2,; T2 n=0 acc= acq= spawn=; ",
      "T0 n=8 acc=2,5,7, acq= spawn=4>1,; T1 n=25 acc=0,3,5,6,8,13,14,16,17,18,20,21,24, acq=2, spawn=23>2,; T2 n=0 acc= acq= spawn=; ",
  };
  EXPECT_EQ(capSweep(*PTA), Expected);
}

} // namespace
