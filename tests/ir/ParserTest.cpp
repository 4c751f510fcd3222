//===- ParserTest.cpp - Textual OIR parser unit tests -------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Parser.h"

#include "o2/IR/Module.h"
#include "o2/IR/Printer.h"
#include "o2/Support/Casting.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace o2;

namespace {

std::unique_ptr<Module> parseOk(std::string_view Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_TRUE(M) << "parse error: " << Err;
  return M;
}

std::string parseErr(std::string_view Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_FALSE(M) << "expected parse failure";
  return Err;
}

TEST(ParserTest, EmptyModule) {
  auto M = parseOk("");
  EXPECT_TRUE(M->classes().empty());
  EXPECT_TRUE(M->functions().empty());
}

TEST(ParserTest, GlobalsAndComments) {
  auto M = parseOk(R"(
    // a shared counter
    global counter: int;
    global table: Data; // forward type reference
    class Data { }
  )");
  ASSERT_TRUE(M->findGlobal("counter"));
  EXPECT_EQ(M->findGlobal("counter")->getType(), M->getIntType());
  EXPECT_EQ(M->findGlobal("table")->getType(), M->findClass("Data"));
}

TEST(ParserTest, ClassWithFieldsAndMethods) {
  auto M = parseOk(R"(
    class Task extends Base {
      field state: int;
      field next: Task;
      method run() {
        var s: int;
        s = this.state;
        this.state = s;
      }
    }
    class Base { field owner: int; }
  )");
  ClassType *Task = M->findClass("Task");
  ClassType *Base = M->findClass("Base");
  ASSERT_TRUE(Task && Base);
  EXPECT_EQ(Task->getSuper(), Base);
  EXPECT_TRUE(Task->findField("state"));
  EXPECT_TRUE(Task->findField("owner")); // inherited
  Function *Run = Task->findMethod("run");
  ASSERT_TRUE(Run);
  ASSERT_EQ(Run->params().size(), 1u);
  EXPECT_EQ(Run->params()[0]->getName(), "this");
  EXPECT_EQ(Run->params()[0]->getType(), Task);
  EXPECT_EQ(Run->size(), 2u);
}

TEST(ParserTest, AllStatementForms) {
  auto M = parseOk(R"(
    global g: Obj;
    class Obj {
      field f: Obj;
      method init(a: Obj) { }
      method run() { }
      method get(): Obj { return this; }
    }
    func helper(p: Obj): Obj {
      return p;
    }
    func main() {
      var x: Obj;
      var y: Obj;
      var arr: Obj[];
      x = new Obj;
      y = new Obj(x);
      loop { x = new Obj; }
      arr = newarray Obj;
      arr[*] = x;
      y = arr[*];
      x = y;
      x.f = y;
      y = x.f;
      @g = x;
      y = @g;
      y = helper(x);
      helper(x);
      y = x.get();
      x.run();
      acquire x;
      release x;
      spawn x.run();
      join x;
      return;
    }
  )");
  Function *Main = M->getMain();
  ASSERT_TRUE(Main);
  EXPECT_EQ(Main->size(), 20u);

  // Spot-check a few statement kinds in order.
  const auto &Body = Main->body();
  EXPECT_TRUE(isa<AllocStmt>(Body[0].get()));
  auto *WithCtor = cast<AllocStmt>(Body[1].get());
  EXPECT_EQ(WithCtor->getArgs().size(), 1u);
  auto *InLoop = cast<AllocStmt>(Body[2].get());
  EXPECT_TRUE(InLoop->isInLoop());
  EXPECT_TRUE(isa<ArrayAllocStmt>(Body[3].get()));
  EXPECT_TRUE(isa<ArrayStoreStmt>(Body[4].get()));
  EXPECT_TRUE(isa<ArrayLoadStmt>(Body[5].get()));
  EXPECT_TRUE(isa<AssignStmt>(Body[6].get()));
  EXPECT_TRUE(isa<FieldStoreStmt>(Body[7].get()));
  EXPECT_TRUE(isa<FieldLoadStmt>(Body[8].get()));
  EXPECT_TRUE(isa<GlobalStoreStmt>(Body[9].get()));
  EXPECT_TRUE(isa<GlobalLoadStmt>(Body[10].get()));
  auto *Direct = cast<CallStmt>(Body[11].get());
  EXPECT_FALSE(Direct->isVirtual());
  EXPECT_TRUE(Direct->getTarget());
  auto *DirectDrop = cast<CallStmt>(Body[12].get());
  EXPECT_EQ(DirectDrop->getTarget(), nullptr);
  auto *Virt = cast<CallStmt>(Body[13].get());
  EXPECT_TRUE(Virt->isVirtual());
  EXPECT_TRUE(isa<CallStmt>(Body[14].get()));
  EXPECT_TRUE(isa<AcquireStmt>(Body[15].get()));
  EXPECT_TRUE(isa<ReleaseStmt>(Body[16].get()));
  EXPECT_TRUE(isa<SpawnStmt>(Body[17].get()));
  EXPECT_TRUE(isa<JoinStmt>(Body[18].get()));
  EXPECT_TRUE(isa<ReturnStmt>(Body[19].get()));
}

TEST(ParserTest, ForwardFunctionReference) {
  auto M = parseOk(R"(
    func main() {
      var x: int;
      x = late();
    }
    func late(): int {
      return;
    }
  )");
  EXPECT_TRUE(M->findFunction("late"));
}

TEST(ParserTest, ArrayOfArrays) {
  auto M = parseOk(R"(
    func main() {
      var m: int[][];
      m = newarray int[];
    }
  )");
  Variable *V = M->getMain()->findVariable("m");
  ASSERT_TRUE(V);
  EXPECT_EQ(V->getType()->getName(), "int[][]");
}

TEST(ParserTest, ErrorUnknownVariable) {
  std::string Err = parseErr(R"(
    func main() {
      x = y;
    }
  )");
  EXPECT_NE(Err.find("unknown variable"), std::string::npos);
}

TEST(ParserTest, ErrorUnknownClass) {
  std::string Err = parseErr(R"(
    func main() {
      var x: Missing;
    }
  )");
  EXPECT_NE(Err.find("unknown type"), std::string::npos);
}

TEST(ParserTest, ErrorUnknownField) {
  std::string Err = parseErr(R"(
    class A { }
    func main() {
      var a: A;
      var b: A;
      a = new A;
      b = a.nope;
    }
  )");
  EXPECT_NE(Err.find("no field"), std::string::npos);
}

TEST(ParserTest, ErrorDuplicateClass) {
  std::string Err = parseErr("class A { } class A { }");
  EXPECT_NE(Err.find("duplicate class"), std::string::npos);
}

TEST(ParserTest, ErrorUnknownSuper) {
  // Reported at the superclass name.
  EXPECT_EQ(parseErr("class A extends Nope { }"),
            "1:17: unknown superclass 'Nope' of class 'A'");
}

TEST(ParserTest, ErrorCyclicInheritance) {
  // A cycle would send every superclass-chain walk around forever.
  EXPECT_EQ(parseErr("class A extends A { field x: int; }"),
            "1:17: class 'A' inherits from itself");
  EXPECT_EQ(parseErr("class A extends B { }\n"
                     "class B extends C { }\n"
                     "class C extends B { field x: int; }"),
            "2:17: class 'B' inherits from itself");
  // A chain into a cycle-free hierarchy is fine.
  auto M = parseOk("class A extends B { } class B extends C { } class C { }");
  ASSERT_TRUE(M);
  EXPECT_EQ(M->findClass("A")->getSuper(), M->findClass("B"));
}

TEST(ParserTest, ErrorDuplicateParameter) {
  EXPECT_EQ(parseErr("func f(a: int, a: int) { }"),
            "1:17: duplicate parameter 'a'");
  EXPECT_EQ(parseErr("class A { method m(this: A) { } }"),
            "1:24: duplicate parameter 'this'");
  // A free function has no implicit receiver.
  EXPECT_TRUE(parseOk("class A { } func f(this: A) { }"));
}

TEST(ParserTest, KeywordSpelledIdentifiers) {
  // Keywords are reserved only where a statement or declaration starts;
  // everywhere the grammar expects a name, a keyword-spelled word is one.
  auto M = parseOk(R"(
    class D { field loop: D; }
    func main() {
      var d: D;
      var e: D;
      var new: int;
      d = new D;
      e = new D;
      d.loop = e;
      e = d.loop;
    }
  )");
  ASSERT_TRUE(M);
  const ClassType *D = M->findClass("D");
  ASSERT_TRUE(D && D->findField("loop"));
  const Function *Main = M->getMain();
  ASSERT_TRUE(Main->findVariable("new"));
  EXPECT_EQ(Main->findVariable("new")->getType(), M->getIntType());
  const auto *Store = dyn_cast<FieldStoreStmt>(Main->body()[2].get());
  ASSERT_TRUE(Store);
  EXPECT_EQ(Store->getField(), D->findField("loop"));
  const auto *Load = dyn_cast<FieldLoadStmt>(Main->body()[3].get());
  ASSERT_TRUE(Load);
  EXPECT_EQ(Load->getField(), D->findField("loop"));
}

TEST(ParserTest, ErrorBadToken) {
  std::string Err = parseErr("class A { field f % int; }");
  EXPECT_NE(Err.find("unexpected character"), std::string::npos);
}

TEST(ParserTest, ErrorHasLineInfo) {
  std::string Err = parseErr("\n\nclass A {\n  junk\n}");
  EXPECT_EQ(Err.substr(0, 2), "4:");
}

const char *LongNamesProgram = R"(
  class AccountRegistryEntry { field lastAccessedCounter: int; }
  class BackgroundWorkerThread {
    field registryEntry: AccountRegistryEntry;
    method run() {
      var entryOfThisWorker: AccountRegistryEntry;
      var observedCounterValue: int;
      entryOfThisWorker = this.registryEntry;
      observedCounterValue = entryOfThisWorker.lastAccessedCounter;
    }
  }
  global sharedRegistryEntry: AccountRegistryEntry;
  func main() {
    var workerOfTheMainThread: BackgroundWorkerThread;
    var entryOfTheMainThread: AccountRegistryEntry;
    entryOfTheMainThread = new AccountRegistryEntry;
    @sharedRegistryEntry = entryOfTheMainThread;
    workerOfTheMainThread = new BackgroundWorkerThread;
    workerOfTheMainThread.registryEntry = entryOfTheMainThread;
    spawn workerOfTheMainThread.run();
  }
)";

TEST(ParserTest, ModuleOutlivesItsSourceText) {
  // Names, method names and entry names are copied into the module's
  // string pool: clobbering and freeing the text it was parsed from
  // changes nothing the module prints.
  std::string Expected = printModule(*parseOk(LongNamesProgram));
  std::unique_ptr<Module> M;
  {
    std::string Source = LongNamesProgram;
    M = parseOk(Source);
    std::fill(Source.begin(), Source.end(), '#');
  }
  ASSERT_TRUE(M);
  EXPECT_EQ(printModule(*M), Expected);
  EXPECT_NE(Expected.find("workerOfTheMainThread"), std::string::npos);
}

TEST(ParserTest, ErrorAfterManyStatementsReturnsNull) {
  // The module under construction already holds hundreds of statements
  // when the parser fails; it is dropped whole (the sanitizer build's
  // leak check sees nothing left behind).
  std::string Source = "class Obj { field v: int; }\nfunc main() {\n"
                       "  var o: Obj;\n  var x: int;\n  o = new Obj;\n";
  constexpr unsigned NumStmts = 600;
  for (unsigned I = 0; I != NumStmts; ++I)
    Source += I % 2 ? "  o.v = x;\n" : "  x = o.v;\n";
  Source += "  x = o.missing;\n}\n";
  std::string Err = parseErr(Source);
  EXPECT_EQ(Err.substr(0, Err.find(':')), std::to_string(NumStmts + 6))
      << Err;
}

} // namespace
