//===- PointerAnalysisTest.cpp - core PTA unit tests --------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/PTA/PointerAnalysis.h"

#include "PTATestUtils.h"

#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace o2;
using namespace o2test;

namespace {

/// Points-to object count for variable \p Name in function \p Fn under
/// every reached context, summed as a set union.
unsigned ptsSizeAnyCtx(const PTAResult &R, const Function *Fn,
                       const std::string &Name) {
  const Variable *V = Fn->findVariable(Name);
  EXPECT_NE(V, nullptr);
  BitVector Union;
  for (const auto &[F, C] : R.instances()) {
    if (F != Fn)
      continue;
    if (const BitVector *P = R.pts(V, C))
      Union.unionWith(*P);
  }
  return Union.count();
}

TEST(PointerAnalysisTest, AllocAndAssignFlow) {
  auto M = parseProgram(R"(
    class A { }
    func main() {
      var x: A;
      var y: A;
      x = new A;
      y = x;
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Insensitive));
  const Function *Main = M->getMain();
  EXPECT_EQ(ptsSizeAnyCtx(*R, Main, "x"), 1u);
  EXPECT_EQ(ptsSizeAnyCtx(*R, Main, "y"), 1u);
  const BitVector *PX = R->pts(Main->findVariable("x"), 0);
  const BitVector *PY = R->pts(Main->findVariable("y"), 0);
  ASSERT_TRUE(PX && PY);
  EXPECT_TRUE(*PX == *PY);
}

TEST(PointerAnalysisTest, FieldFlow) {
  auto M = parseProgram(R"(
    class Box { field item: Box; }
    func main() {
      var a: Box;
      var b: Box;
      var got: Box;
      a = new Box;
      b = new Box;
      a.item = b;
      got = a.item;
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Insensitive));
  const Function *Main = M->getMain();
  const BitVector *PB = R->pts(Main->findVariable("b"), 0);
  const BitVector *PGot = R->pts(Main->findVariable("got"), 0);
  ASSERT_TRUE(PB && PGot);
  EXPECT_TRUE(*PB == *PGot);
  EXPECT_EQ(PGot->count(), 1u);
}

TEST(PointerAnalysisTest, ArrayFlowIsIndexInsensitive) {
  auto M = parseProgram(R"(
    class A { }
    func main() {
      var arr: A[];
      var x: A;
      var y: A;
      var out: A;
      arr = newarray A;
      x = new A;
      y = new A;
      arr[*] = x;
      arr[*] = y;
      out = arr[*];
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Insensitive));
  EXPECT_EQ(ptsSizeAnyCtx(*R, M->getMain(), "out"), 2u);
}

TEST(PointerAnalysisTest, GlobalFlow) {
  auto M = parseProgram(R"(
    class A { }
    global g: A;
    func main() {
      var x: A;
      var y: A;
      x = new A;
      @g = x;
      y = @g;
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Insensitive));
  EXPECT_EQ(ptsSizeAnyCtx(*R, M->getMain(), "y"), 1u);
  const BitVector *PG = R->ptsGlobal(M->findGlobal("g"));
  ASSERT_TRUE(PG);
  EXPECT_EQ(PG->count(), 1u);
}

TEST(PointerAnalysisTest, DirectCallParamAndReturnFlow) {
  auto M = parseProgram(R"(
    class A { }
    func id(p: A): A {
      return p;
    }
    func main() {
      var x: A;
      var y: A;
      x = new A;
      y = id(x);
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Insensitive));
  EXPECT_EQ(ptsSizeAnyCtx(*R, M->getMain(), "y"), 1u);
}

TEST(PointerAnalysisTest, VirtualDispatchUsesDynamicType) {
  auto M = parseProgram(R"(
    class A { method make(): A { var r: A; r = new A; return r; } }
    class B extends A { method make(): A { var r: A; r = new A; return r; } }
    func main() {
      var o: A;
      var got: A;
      o = new B;
      got = o.make();
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Insensitive));
  // Only B::make should be reached: exactly one of the two inner allocs.
  EXPECT_EQ(ptsSizeAnyCtx(*R, M->getMain(), "got"), 1u);
  ClassType *A = M->findClass("A");
  ClassType *B = M->findClass("B");
  bool ReachedAMake = false, ReachedBMake = false;
  for (const auto &[F, C] : R->instances()) {
    (void)C;
    if (F == A->findMethod("make"))
      ReachedAMake = true;
    if (F == B->findMethod("make"))
      ReachedBMake = true;
  }
  EXPECT_FALSE(ReachedAMake);
  EXPECT_TRUE(ReachedBMake);
}

TEST(PointerAnalysisTest, ConstructorBindsArgsToThis) {
  auto M = parseProgram(R"(
    class A { }
    class Holder {
      field held: A;
      method init(a: A) { this.held = a; }
    }
    func main() {
      var a: A;
      var h: Holder;
      var got: A;
      a = new A;
      h = new Holder(a);
      got = h.held;
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Insensitive));
  EXPECT_EQ(ptsSizeAnyCtx(*R, M->getMain(), "got"), 1u);
}

TEST(PointerAnalysisTest, UnreachableCodeNotAnalyzed) {
  auto M = parseProgram(R"(
    class A { }
    func dead() {
      var x: A;
      x = new A;
    }
    func main() { }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Insensitive));
  EXPECT_EQ(R->objects().size(), 0u);
  EXPECT_EQ(R->instances().size(), 1u);
}

TEST(PointerAnalysisTest, ContextInsensitiveMergesCallSites) {
  auto M = parseProgram(R"(
    class A { }
    func id(p: A): A { return p; }
    func main() {
      var x1: A;
      var x2: A;
      var y1: A;
      var y2: A;
      x1 = new A;
      x2 = new A;
      y1 = id(x1);
      y2 = id(x2);
    }
  )");
  auto R0 = runPointerAnalysis(*M, optsFor(ContextKind::Insensitive));
  // 0-ctx conflates both call sites.
  EXPECT_EQ(ptsSizeAnyCtx(*R0, M->getMain(), "y1"), 2u);

  auto R1 = runPointerAnalysis(*M, optsFor(ContextKind::KCallsite, 1));
  // 1-CFA keeps them apart.
  EXPECT_EQ(ptsSizeAnyCtx(*R1, M->getMain(), "y1"), 1u);
  EXPECT_EQ(ptsSizeAnyCtx(*R1, M->getMain(), "y2"), 1u);
}

TEST(PointerAnalysisTest, OneCFAInsufficientForTwoLevelWrappers) {
  auto M = parseProgram(R"(
    class A { }
    func id(p: A): A { return p; }
    func wrap(p: A): A {
      var r: A;
      r = id(p);
      return r;
    }
    func main() {
      var x1: A;
      var x2: A;
      var y1: A;
      var y2: A;
      x1 = new A;
      x2 = new A;
      y1 = wrap(x1);
      y2 = wrap(x2);
    }
  )");
  // 1-CFA merges inside id() (same wrap->id call site).
  auto R1 = runPointerAnalysis(*M, optsFor(ContextKind::KCallsite, 1));
  EXPECT_EQ(ptsSizeAnyCtx(*R1, M->getMain(), "y1"), 2u);
  // 2-CFA distinguishes the full chain.
  auto R2 = runPointerAnalysis(*M, optsFor(ContextKind::KCallsite, 2));
  EXPECT_EQ(ptsSizeAnyCtx(*R2, M->getMain(), "y1"), 1u);
}

TEST(PointerAnalysisTest, ObjectSensitivityDistinguishesReceivers) {
  auto M = parseProgram(R"(
    class Box {
      field item: Box;
      method set(v: Box) { this.item = v; }
      method get(): Box { var r: Box; r = this.item; return r; }
    }
    func main() {
      var a: Box;
      var b: Box;
      var va: Box;
      var vb: Box;
      var got: Box;
      a = new Box;
      b = new Box;
      va = new Box;
      vb = new Box;
      a.set(va);
      b.set(vb);
      got = a.get();
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::KObject, 1));
  EXPECT_EQ(ptsSizeAnyCtx(*R, M->getMain(), "got"), 1u);
}

TEST(PointerAnalysisTest, StatsArePopulated) {
  auto M = parseProgram(R"(
    class A { }
    func main() {
      var x: A;
      x = new A;
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Insensitive));
  EXPECT_GE(R->stats().get("pta.pointer-nodes"), 1u);
  EXPECT_EQ(R->stats().get("pta.objects"), 1u);
  EXPECT_EQ(R->stats().get("pta.instances"), 1u);
  EXPECT_FALSE(R->hitBudget());
}

TEST(PointerAnalysisTest, NodeBudgetStopsSolver) {
  auto M = parseProgram(R"(
    class A { field f: A; }
    func main() {
      var a: A;
      var b: A;
      var c: A;
      a = new A;
      b = new A;
      c = new A;
      a.f = b;
      b.f = c;
    }
  )");
  PTAOptions Opts = optsFor(ContextKind::Insensitive);
  Opts.NodeBudget = 2;
  auto R = runPointerAnalysis(*M, Opts);
  EXPECT_TRUE(R->hitBudget());
}

TEST(PointerAnalysisTest, BudgetStopKeepsAccessesOfUnprocessedCallees) {
  // The budget trips at `c = new Obj`; main's body still binds the call,
  // so f is a call target whose body the solver never processed. SHB
  // walks it, so the access table must still resolve `p.v`.
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    func f(p: Obj) { var x: int; x = p.v; }
    func main() {
      var a: Obj;
      var b: Obj;
      var c: Obj;
      a = new Obj;
      b = new Obj;
      c = new Obj;
      f(c);
    }
  )");
  PTAOptions Opts = optsFor(ContextKind::Insensitive);
  Opts.NodeBudget = 2;
  auto R = runPointerAnalysis(*M, Opts);
  ASSERT_TRUE(R->hitBudget());
  ASSERT_EQ(R->instances().size(), 1u);
  const Stmt *Call = M->getMain()->body().back().get();
  ASSERT_EQ(R->callTargets(Call, 0).size(), 1u);
  const CallTarget &T = R->callTargets(Call, 0)[0];
  ArrayRef<Access> Accesses = R->accesses(T.Callee, T.CalleeCtx);
  ASSERT_EQ(Accesses.size(), 1u);
  EXPECT_FALSE(Accesses[0].IsWrite);
  EXPECT_EQ(Accesses[0].Locs.size(), 1u);
}

TEST(PointerAnalysisTest, LookupMissesReturnNullOrEmpty) {
  auto M = parseProgram(R"(
    class Obj { field f: Obj; field g: Obj; method m() { } }
    func unreached(p: Obj) { var q: Obj; q = p.f; p.f = q; q.m(); }
    func main() { var a: Obj; var b: Obj; a = new Obj; a.f = a; b = a.f; }
  )");
  for (ContextKind Kind : {ContextKind::Insensitive, ContextKind::KCallsite,
                           ContextKind::KObject, ContextKind::Origin}) {
    auto R = runPointerAnalysis(*M, optsFor(Kind));
    SCOPED_TRACE(R->options().name());
    const Function *Main = M->getMain();
    const Function *Unreached = M->findFunction("unreached");
    const Ctx NeverInterned = static_cast<Ctx>(R->contexts().size() + 7);
    ASSERT_NE(R->pts(Main->findVariable("a"), 0), nullptr);

    // pts: a variable of an unreached function; a context never interned.
    EXPECT_EQ(R->pts(Unreached->findVariable("p"), 0), nullptr);
    EXPECT_EQ(R->pts(Main->findVariable("a"), NeverInterned), nullptr);

    // callTargets: a call of an unprocessed body; a statement that is no
    // call; a processed call under a context never interned.
    const auto *Call = findStmt<CallStmt>(Unreached);
    EXPECT_TRUE(R->callTargets(Call, 0).empty());
    EXPECT_TRUE(R->callTargets(Main->body().back().get(), 0).empty());
    const auto *Alloc = findStmt<AllocStmt>(Main);
    EXPECT_TRUE(R->callTargets(Alloc, NeverInterned).empty());

    // accesses: an unreached instance.
    EXPECT_TRUE(R->accesses(Unreached, 0).empty());
    EXPECT_TRUE(R->accesses(Main, NeverInterned).empty());
    EXPECT_EQ(R->accesses(Main, 0).size(), 2u);

    // ptsField: a field never stored to, and an object that does not exist.
    const ClassType *Obj = M->findClass("Obj");
    EXPECT_NE(R->ptsField(0, fieldKeyOf(Obj->findField("f"))), nullptr);
    EXPECT_EQ(R->ptsField(0, fieldKeyOf(Obj->findField("g"))), nullptr);
    EXPECT_EQ(R->ptsField(static_cast<unsigned>(R->objects().size()) + 3,
                          ArrayElemKey),
              nullptr);
  }
}

TEST(PointerAnalysisTest, BudgetStoppedProfileKeepsAccessRunsOfTargets) {
  // A budget stop in the middle of a body still binds that body's later
  // calls, leaving call targets whose bodies were never processed. SHB
  // walks them, so each still needs its full access run. Under 2-CFA,
  // telegram stops at the Table 5 budget after the last call of the body
  // it is in; at 2,000 nodes it stops before four more calls.
  const WorkloadProfile *P = findProfile("telegram");
  ASSERT_NE(P, nullptr);
  auto M = generateWorkload(*P);
  auto NumAccessStmts = [](const Function *F) {
    return std::count_if(F->body().begin(), F->body().end(), [](auto &S) {
      return isa<FieldLoadStmt, FieldStoreStmt, ArrayLoadStmt, ArrayStoreStmt,
                 GlobalLoadStmt, GlobalStoreStmt>(S.get());
    });
  };
  unsigned Unprocessed = 0;
  for (uint64_t Budget : {64'000, 2'000}) {
    PTAOptions Opts = optsFor(ContextKind::KCallsite, 2);
    Opts.NodeBudget = Budget;
    auto R = runPointerAnalysis(*M, Opts);
    ASSERT_TRUE(R->hitBudget()) << Budget;
    std::set<std::pair<const Function *, Ctx>> Reached(
        R->instances().begin(), R->instances().end());
    for (const auto &[F, C] : R->instances())
      for (const auto &S : F->body())
        for (const CallTarget &T : R->callTargets(S.get(), C)) {
          if (Reached.count({T.Callee, T.CalleeCtx}))
            continue;
          ++Unprocessed;
          EXPECT_EQ(R->accesses(T.Callee, T.CalleeCtx).size(),
                    static_cast<size_t>(NumAccessStmts(T.Callee)))
              << T.Callee->getName() << " at budget " << Budget;
        }
  }
  EXPECT_GT(Unprocessed, 0u);
}

TEST(PointerAnalysisTest, CallTargetsPerSlot) {
  // Classes are declared in the reverse of their allocation order, so
  // the order the solver finds the targets in (receiver objects
  // ascending) differs from declaration order.
  auto M = parseProgram(R"(
    class Base { method m() { } }
    class C extends Base { method m() { } }
    class B extends Base { method m() { } }
    class A extends Base { method m() { } }
    func helper() { }
    func main() {
      var x: Base;
      var y: Base;
      var a: A;
      var b: B;
      var c: C;
      a = new A;
      b = new B;
      c = new C;
      x = a;
      x = b;
      x = c;
      helper();
      x.m();
      y.m();
    }
  )");
  for (ContextKind Kind : {ContextKind::Insensitive, ContextKind::KCallsite,
                           ContextKind::KObject, ContextKind::Origin}) {
    auto R = runPointerAnalysis(*M, optsFor(Kind));
    SCOPED_TRACE(R->options().name());
    const Function *Main = M->getMain();
    std::vector<const CallStmt *> Calls;
    for (const auto &S : Main->body())
      if (const auto *Call = dyn_cast<CallStmt>(S.get()))
        Calls.push_back(Call);
    ASSERT_EQ(Calls.size(), 3u);

    // A statement with no call slot.
    auto Assign =
        std::find_if(Main->body().begin(), Main->body().end(),
                     [](auto &S) { return isa<AssignStmt>(S.get()); });
    ASSERT_NE(Assign, Main->body().end());
    EXPECT_TRUE(R->callTargets(Assign->get(), 0).empty());

    // One target: the direct call.
    ArrayRef<CallTarget> Direct = R->callTargets(Calls[0], 0);
    ASSERT_EQ(Direct.size(), 1u);
    EXPECT_EQ(Direct[0].Callee, M->findFunction("helper"));
    EXPECT_EQ(Direct[0].ReceiverObj, ~0u);

    // Three targets, in the order they were found: by receiver object,
    // i.e. allocation order A, B, C.
    ArrayRef<CallTarget> Virtual = R->callTargets(Calls[1], 0);
    ASSERT_EQ(Virtual.size(), 3u);
    const char *Order[] = {"A", "B", "C"};
    for (unsigned I = 0; I != 3; ++I) {
      EXPECT_EQ(Virtual[I].Callee,
                M->findClass(Order[I])->findMethod("m"))
          << I;
      EXPECT_EQ(Virtual[I].ReceiverObj, I);
    }

    // A slot with zero targets: the receiver points to nothing.
    EXPECT_TRUE(R->callTargets(Calls[2], 0).empty());
  }
}

TEST(PointerAnalysisTest, BudgetStopCallTargetsOfEveryFrame) {
  // The budget trips at `c = new Obj`. Both calls of f are still bound,
  // to two frames of f (1-CFA) that are not instances: their own call
  // slots exist in the target table and hold nothing, while main's slots
  // keep the targets recorded after the stop.
  auto M = parseProgram(R"(
    class Obj { field v: int; method m() { } }
    func g() { }
    func f(p: Obj) { var x: int; x = p.v; g(); p.m(); }
    func main() {
      var a: Obj;
      var b: Obj;
      var c: Obj;
      a = new Obj;
      b = new Obj;
      c = new Obj;
      f(c);
      f(a);
    }
  )");
  PTAOptions Opts = optsFor(ContextKind::KCallsite, 1);
  Opts.NodeBudget = 2;
  auto R = runPointerAnalysis(*M, Opts);
  ASSERT_TRUE(R->hitBudget());
  ASSERT_EQ(R->instances().size(), 1u);
  const Function *Main = M->getMain();
  const Function *F = M->findFunction("f");
  std::vector<CallTarget> MainTargets;
  for (const auto &S : Main->body())
    for (const CallTarget &T : R->callTargets(S.get(), 0))
      MainTargets.push_back(T);
  ASSERT_EQ(MainTargets.size(), 2u);
  EXPECT_NE(MainTargets[0].CalleeCtx, MainTargets[1].CalleeCtx);
  for (const CallTarget &T : MainTargets) {
    EXPECT_EQ(T.Callee, F);
    EXPECT_EQ(R->accesses(F, T.CalleeCtx).size(), 1u);
    for (const auto &S : F->body())
      EXPECT_TRUE(R->callTargets(S.get(), T.CalleeCtx).empty());
  }
}

TEST(PointerAnalysisTest, OptionNames) {
  EXPECT_EQ(optsFor(ContextKind::Insensitive).name(), "0-ctx");
  EXPECT_EQ(optsFor(ContextKind::KCallsite, 2).name(), "2-cfa");
  EXPECT_EQ(optsFor(ContextKind::KObject, 1).name(), "1-obj");
  EXPECT_EQ(optsFor(ContextKind::Origin, 1).name(), "1-origin");
}

TEST(PointerAnalysisTest, MainlessModuleYieldsEmptyResultNotAbort) {
  // The verifier rejects main-less modules; a caller that skips it must
  // get a flagged empty result (trivially sound: nothing executes), not
  // an assert/UB, so release-build fleets degrade per-job.
  std::string Err;
  auto M = parseModule("func helper() { }", Err);
  ASSERT_TRUE(M) << Err;
  ASSERT_EQ(M->getMain(), nullptr);
  for (ContextKind CK :
       {ContextKind::Insensitive, ContextKind::Origin, ContextKind::KCallsite}) {
    auto R = runPointerAnalysis(*M, optsFor(CK));
    EXPECT_TRUE(R->entryMissing());
    EXPECT_FALSE(R->cancelled());
    EXPECT_TRUE(R->instances().empty());
    EXPECT_EQ(R->stats().get("pta.no-entry"), 1u);
    EXPECT_EQ(R->stats().get("pta.pointer-nodes"), 0u);
  }
}

TEST(PointerAnalysisTest, CancelledRunStillRecordsMainsFirstStatement) {
  // The solver polls after each statement, not before, so however early
  // the token fires (here: before the run starts, while the constructor
  // scans the heaviest workload), the partial result holds main's first
  // statement — an allocation in every generated workload.
  const WorkloadProfile *Heavy = findProfile("telegram");
  ASSERT_NE(Heavy, nullptr);
  auto M = generateWorkload(*Heavy);
  CancellationToken Token;
  Token.cancel();
  auto R = runPointerAnalysis(*M, PTAOptions(), &Token);
  EXPECT_TRUE(R->cancelled());
  EXPECT_EQ(R->stats().get("pta.cancelled"), 1u);
  EXPECT_GT(R->stats().get("pta.pointer-nodes"), 0u);
}

} // namespace
