//===- SharingAnalysisTest.cpp - OSA unit tests --------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/OSA/SharingAnalysis.h"

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

std::unique_ptr<PTAResult> runOPA(const Module &M) {
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  return runPointerAnalysis(M, Opts);
}

TEST(SharingAnalysisTest, OriginLocalDataIsNotShared) {
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
  auto PTA = runOPA(*M);
  SharingResult R = runSharingAnalysis(*PTA);
  EXPECT_TRUE(R.sharedLocations().empty());
  EXPECT_EQ(R.numSharedObjects(), 0u);
  EXPECT_EQ(R.numSharedAccessStmts(), 0u);
  EXPECT_EQ(R.numAccessStmts(), 2u);
}

TEST(SharingAnalysisTest, WriteWriteSharingDetected) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field shared: Obj;
      method init(s: Obj) { this.shared = s; }
      method run() {
        var o: Obj;
        var x: int;
        o = this.shared;
        o.v = x;
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
  auto PTA = runOPA(*M);
  SharingResult R = runSharingAnalysis(*PTA);
  ASSERT_EQ(R.sharedLocations().size(), 1u);
  MemLoc Loc = R.sharedLocations()[0];
  const LocAccessSets *Sets = R.get(Loc);
  ASSERT_TRUE(Sets);
  EXPECT_EQ(Sets->Writers.count(), 2u);
  EXPECT_EQ(Loc.toString(*PTA).find("obj"), 0u);
  EXPECT_NE(Loc.toString(*PTA).find(".v"), std::string::npos);
  EXPECT_EQ(R.numSharedObjects(), 1u);
  EXPECT_EQ(R.numSharedAccessStmts(), 1u);
}

TEST(SharingAnalysisTest, ReadOnlySharingIsNotShared) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field shared: Obj;
      method init(s: Obj) { this.shared = s; }
      method run() {
        var o: Obj;
        var x: int;
        o = this.shared;
        x = o.v;
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
  auto PTA = runOPA(*M);
  SharingResult R = runSharingAnalysis(*PTA);
  // Both origins read o.v but nobody writes: not a shared location.
  EXPECT_TRUE(R.sharedLocations().empty());
}

TEST(SharingAnalysisTest, WriterPlusReaderIsShared) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class Writer {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() { var o: Obj; var x: int; o = this.s; o.v = x; }
    }
    class Reader {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() { var o: Obj; var x: int; o = this.s; x = o.v; }
    }
    func main() {
      var s: Obj;
      var w: Writer;
      var r: Reader;
      s = new Obj;
      w = new Writer(s);
      r = new Reader(s);
      spawn w.run();
      spawn r.run();
    }
  )");
  auto PTA = runOPA(*M);
  SharingResult R = runSharingAnalysis(*PTA);
  ASSERT_EQ(R.sharedLocations().size(), 1u);
  const LocAccessSets *Sets = R.get(R.sharedLocations()[0]);
  EXPECT_EQ(Sets->Writers.count(), 1u);
  EXPECT_EQ(Sets->Readers.count(), 1u);
}

TEST(SharingAnalysisTest, MainCountsAsAnOrigin) {
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
  auto PTA = runOPA(*M);
  SharingResult R = runSharingAnalysis(*PTA);
  // Shared between main (reader) and the thread (writer).
  ASSERT_EQ(R.sharedLocations().size(), 1u);
  const LocAccessSets *Sets = R.get(R.sharedLocations()[0]);
  EXPECT_TRUE(Sets->Readers.test(OriginTable::MainOrigin));
}

TEST(SharingAnalysisTest, GlobalsSharedOnlyWhenCrossOrigin) {
  auto M = parseProgram(R"(
    class T {
      method run() { var x: int; @used = x; }
    }
    global used: int;
    global mainOnly: int;
    func main() {
      var t: T;
      var x: int;
      t = new T;
      spawn t.run();
      x = @used;
      @mainOnly = x;
      x = @mainOnly;
    }
  )");
  auto PTA = runOPA(*M);
  SharingResult R = runSharingAnalysis(*PTA);
  // @used: written by the thread, read by main => shared.
  // @mainOnly: only main touches it => not shared, unlike classic
  // escape analysis which treats all statics as escaped.
  ASSERT_EQ(R.sharedLocations().size(), 1u);
  EXPECT_TRUE(R.sharedLocations()[0].isGlobal());
  EXPECT_EQ(R.sharedLocations()[0].toString(*PTA), "@used");
}

TEST(SharingAnalysisTest, ArrayElementsShared) {
  auto M = parseProgram(R"(
    class Obj { }
    class T {
      field arr: Obj[];
      method init(a: Obj[]) { this.arr = a; }
      method run() {
        var a: Obj[];
        var o: Obj;
        a = this.arr;
        o = new Obj;
        a[*] = o;
      }
    }
    func main() {
      var a: Obj[];
      var o: Obj;
      var t: T;
      a = newarray Obj;
      t = new T(a);
      spawn t.run();
      o = a[*];
    }
  )");
  auto PTA = runOPA(*M);
  SharingResult R = runSharingAnalysis(*PTA);
  ASSERT_EQ(R.sharedLocations().size(), 1u);
  MemLoc Loc = R.sharedLocations()[0];
  EXPECT_EQ(Loc.fieldKey(), ArrayElemKey);
  EXPECT_NE(Loc.toString(*PTA).find("[*]"), std::string::npos);
}

TEST(SharingAnalysisTest, DistinctFieldsOfSharedObjectTrackedSeparately) {
  auto M = parseProgram(R"(
    class Obj { field a: int; field b: int; }
    class T {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() { var o: Obj; var x: int; o = this.s; o.a = x; }
    }
    func main() {
      var s: Obj;
      var t: T;
      var x: int;
      s = new Obj;
      t = new T(s);
      spawn t.run();
      x = s.a;
      s.b = x;
      x = s.b;
    }
  )");
  auto PTA = runOPA(*M);
  SharingResult R = runSharingAnalysis(*PTA);
  // Only field .a is cross-origin; .b is main-local.
  ASSERT_EQ(R.sharedLocations().size(), 1u);
  EXPECT_NE(R.sharedLocations()[0].toString(*PTA).find(".a"),
            std::string::npos);
  EXPECT_EQ(R.numSharedObjects(), 1u);
}

TEST(SharingAnalysisTest, SharedAccessStmtQuery) {
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
  auto PTA = runOPA(*M);
  SharingResult R = runSharingAnalysis(*PTA);
  // Find the two access statements: the write in run(), the read in main.
  const Function *Run = M->findClass("T")->findMethod("run");
  unsigned WriteId = ~0u, ReadId = ~0u;
  for (const auto &S : Run->body())
    if (isa<FieldStoreStmt>(S.get()))
      WriteId = S->getId();
  for (const auto &S : M->getMain()->body())
    if (isa<FieldLoadStmt>(S.get()))
      ReadId = S->getId();
  ASSERT_NE(WriteId, ~0u);
  ASSERT_NE(ReadId, ~0u);
  EXPECT_TRUE(R.isSharedAccess(WriteId));
  EXPECT_TRUE(R.isSharedAccess(ReadId));
  EXPECT_EQ(R.numSharedAccessStmts(), 2u);
}

TEST(SharingAnalysisTest, IsSharedTruthTable) {
  auto Sets = [](std::initializer_list<unsigned> Readers,
                 std::initializer_list<unsigned> Writers) {
    LocAccessSets S;
    for (unsigned O : Readers)
      S.Readers.set(O);
    for (unsigned O : Writers)
      S.Writers.set(O);
    return S;
  };
  // No writer: never shared, however many readers.
  EXPECT_FALSE(Sets({0, 1, 2}, {}).isShared());
  // One writer that is also the only reader.
  EXPECT_FALSE(Sets({3}, {3}).isShared());
  // One writer plus another reader.
  EXPECT_TRUE(Sets({3, 5}, {3}).isShared());
  EXPECT_TRUE(Sets({70}, {3}).isShared());
  // Two writers.
  EXPECT_TRUE(Sets({}, {1, 64}).isShared());
}

} // namespace
