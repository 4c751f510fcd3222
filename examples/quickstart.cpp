//===- quickstart.cpp - first steps with the O2 library ---------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Builds a small concurrent program two ways — from textual OIR and with
// the IRBuilder API — runs the full O2 pipeline on it, and prints the
// race report from the batch driver's job record. This is the 5-minute
// tour of the public API.
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"
#include "o2/IR/IRBuilder.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Printer.h"
#include "o2/IR/Verifier.h"
#include "o2/Support/OutputStream.h"

using namespace o2;

/// A worker thread increments a shared counter without a lock while main
/// reads it: the classic data race.
static const char *RacyProgram = R"(
class Counter { field value: int; }
global counter: Counter;

class Worker {
  method run() {
    var c: Counter;
    var v: int;
    c = @counter;
    v = c.value;
    c.value = v;      // unsynchronized increment: races with main's read
  }
}

func main() {
  var c: Counter;
  var w1: Worker;
  var w2: Worker;
  var v: int;
  c = new Counter;
  @counter = c;
  w1 = new Worker;
  w2 = new Worker;
  spawn w1.run();
  spawn w2.run();
  v = c.value;         // concurrent with both workers
}
)";

/// The same shape, assembled programmatically.
static std::unique_ptr<Module> buildWithIRBuilder() {
  auto M = std::make_unique<Module>("quickstart-builder");
  ClassType *Counter = M->addClass("Counter");
  Field *Value = Counter->addField("value", M->getIntType());
  Global *GCounter = M->addGlobal("counter", Counter);

  ClassType *Worker = M->addClass("Worker");
  Function *Run = M->addFunction("run");
  Worker->addMethod(Run);
  Run->addParam("this", Worker);
  {
    IRBuilder B(*M, Run);
    Variable *C = Run->addLocal("c", Counter);
    Variable *V = Run->addLocal("v", M->getIntType());
    B.globalLoad(C, GCounter);
    B.fieldLoad(V, C, Value);
    B.fieldStore(C, Value, V);
  }

  Function *Main = M->addFunction("main");
  {
    IRBuilder B(*M, Main);
    Variable *C = Main->addLocal("c", Counter);
    Variable *W = Main->addLocal("w", Worker);
    Variable *V = Main->addLocal("v", M->getIntType());
    B.alloc(C, Counter);
    B.globalStore(GCounter, C);
    B.alloc(W, Worker);
    B.spawn(W, "run");
    B.fieldLoad(V, C, Value);
  }
  return M;
}

static void analyzeAndReport(const Module &M) {
  std::vector<std::string> Errors;
  if (!verifyModule(M, Errors)) {
    errs() << "verification failed: " << Errors.front() << '\n';
    return;
  }
  AnalysisManager AM(M);
  AM.run(AnalysisSet::defaultSet()); // OPA + OSA + SHB + detector

  // The batch driver's record of the run, printed as text.
  JobResult R;
  R.Name = M.getName();
  R.Analyses = AnalysisSet::defaultSet();
  recordJob(AM, R);
  printJobText(R, outs());
  outs() << '\n';
}

int main() {
  outs() << "--- quickstart 1: analyze textual OIR ---\n";
  std::string Err;
  auto Parsed = parseModule(RacyProgram, Err, "quickstart-oir");
  if (!Parsed) {
    errs() << "parse error: " << Err << '\n';
    return 1;
  }
  analyzeAndReport(*Parsed);

  outs() << "--- quickstart 2: analyze an IRBuilder-built module ---\n";
  auto Built = buildWithIRBuilder();
  analyzeAndReport(*Built);

  outs() << "--- quickstart 3: print a module back as OIR ---\n";
  outs() << printModule(*Built);
  return 0;
}
