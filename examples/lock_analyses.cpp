//===- lock_analyses.cpp - deadlock & over-synchronization demo --------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The paper notes (Section 3) that OPA and OSA "can benefit any analysis
// that requires analyzing pointers or ownership of memory accesses,
// e.g., deadlock, over-synchronization". This example runs both bonus
// analyses over one program that exhibits an AB-BA deadlock, an
// over-synchronized region, and a data race at the same time.
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/Support/OutputStream.h"

using namespace o2;

static const char *Program = R"(
class Account { field balance: int; }
class Lock { }
global lockA: Lock;
global lockB: Lock;
global checking: Account;
global savings: Account;

// transfer(checking -> savings): takes lockA then lockB.
class TransferForward {
  method run() {
    var la: Lock;
    var lb: Lock;
    var from: Account;
    var to: Account;
    var amt: int;
    la = @lockA;
    lb = @lockB;
    from = @checking;
    to = @savings;
    acquire la;
    acquire lb;
    from.balance = amt;
    to.balance = amt;
    release lb;
    release la;
  }
}

// transfer(savings -> checking): takes lockB then lockA — deadlock!
class TransferBackward {
  method run() {
    var la: Lock;
    var lb: Lock;
    var from: Account;
    var to: Account;
    var amt: int;
    la = @lockA;
    lb = @lockB;
    from = @savings;
    to = @checking;
    acquire lb;
    acquire la;
    from.balance = amt;
    to.balance = amt;
    release la;
    release lb;
  }
}

// An auditor that locks around purely thread-local scratch work
// (over-synchronization) and then reads a balance unlocked (race).
class Auditor {
  method run() {
    var la: Lock;
    var scratch: Account;
    var acct: Account;
    var x: int;
    la = @lockA;
    scratch = new Account;
    acquire la;
    scratch.balance = x;
    x = scratch.balance;
    release la;
    acct = @checking;
    x = acct.balance;
  }
}

func main() {
  var a: Lock;
  var b: Lock;
  var c: Account;
  var s: Account;
  var t1: TransferForward;
  var t2: TransferBackward;
  var aud: Auditor;
  a = new Lock;
  b = new Lock;
  c = new Account;
  s = new Account;
  @lockA = a;
  @lockB = b;
  @checking = c;
  @savings = s;
  t1 = new TransferForward;
  t2 = new TransferBackward;
  aud = new Auditor;
  spawn t1.run();
  spawn t2.run();
  spawn aud.run();
}
)";

int main() {
  std::string Err;
  auto M = parseModule(Program, Err, "bank");
  if (!M) {
    errs() << "parse error: " << Err << '\n';
    return 1;
  }
  std::vector<std::string> Errors;
  if (!verifyModule(*M, Errors)) {
    errs() << "verifier: " << Errors.front() << '\n';
    return 1;
  }

  // One PTA and one SHB graph feed all three detectors; the report has
  // a section for each.
  AnalysisSet Analyses = {O2Phase::OSA, O2Phase::Detect, O2Phase::Deadlock,
                          O2Phase::OverSync};
  AnalysisManager AM(*M);
  AM.run(Analyses);
  JobResult R;
  R.Name = M->getName();
  R.Analyses = Analyses;
  recordJob(AM, R);
  printJobText(R, outs());
  return 0;
}
