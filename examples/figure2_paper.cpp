//===- figure2_paper.cpp - the paper's worked example -------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Walks through Figure 2 of the paper: two threads share ⟨s⟩ but carry
// different operation objects (op1/op2). Origin sensitivity resolves the
// virtual call o.act(s) to exactly one target per thread, where a
// context-insensitive analysis merges both; and OSA produces the
// Figure 2(d)-style sharing report (⟨s⟩ shared, everything else local).
//
//===----------------------------------------------------------------------===//

#include "o2/OSA/SharingAnalysis.h"
#include "o2/Support/OutputStream.h"
#include "o2/Workload/BugModels.h"

using namespace o2;

static void showDispatch(const Module &M, const PTAResult &R) {
  const Function *Run = M.findClass("T")->findMethod("run");
  const CallStmt *Act = nullptr;
  for (const auto &S : Run->body())
    if (const auto *C = dyn_cast<CallStmt>(S.get()))
      Act = C;
  outs() << "dispatch of 'o.act(s)' under " << R.options().name() << ":\n";
  for (const auto &[F, C] : R.instances()) {
    if (F != Run)
      continue;
    outs() << "  in <run, " << R.ctxToString(C) << ">: ";
    bool First = true;
    for (const CallTarget &T : R.callTargets(Act, C)) {
      if (!First)
        outs() << ", ";
      First = false;
      outs() << T.Callee->getClass()->getName()
             << "::" << T.Callee->getName();
    }
    outs() << '\n';
  }
}

int main() {
  const BugModel *Fig2 = findBugModel("figure2");
  auto M = buildBugModel(*Fig2);

  PTAOptions OPAOpts;
  OPAOpts.Kind = ContextKind::Origin;
  auto OPA = runPointerAnalysis(*M, OPAOpts);

  PTAOptions InsOpts;
  InsOpts.Kind = ContextKind::Insensitive;
  auto Insensitive = runPointerAnalysis(*M, InsOpts);

  outs() << "Figure 2: origins precisely determine the call chain\n\n";
  showDispatch(*M, *OPA);
  outs() << '\n';
  showDispatch(*M, *Insensitive);

  // Figure 2(d): the OSA output.
  outs() << "\norigin-sharing analysis (Figure 2(d) analogue):\n";
  SharingResult OSA = runSharingAnalysis(*OPA);
  outs() << "  shared locations: " << OSA.sharedLocations().size() << '\n';
  for (const MemLoc &Loc : OSA.sharedLocations()) {
    const LocAccessSets *Sets = OSA.get(Loc);
    outs() << "    " << Loc.toString(*OPA) << "  readers={";
    bool First = true;
    for (unsigned O : Sets->Readers) {
      if (!First)
        outs() << ",";
      First = false;
      outs() << "O" << O;
    }
    outs() << "} writers={";
    First = true;
    for (unsigned O : Sets->Writers) {
      if (!First)
        outs() << ",";
      First = false;
      outs() << "O" << O;
    }
    outs() << "}\n";
  }
  outs() << "  origin-shared accesses: " << OSA.numSharedAccessStmts() << '/'
         << OSA.numAccessStmts() << '\n';
  outs() << "\norigins discovered (with their attributes, Figure 2(b)):\n";
  for (const OriginInfo &O : OPA->origins().origins()) {
    outs() << "  O" << O.Id << ": "
           << (O.Kind == OriginKind::Main
                   ? "main"
                   : (O.Class ? O.Class->getName() : StringRef("?")));
    std::vector<unsigned> Attrs = OPA->originAttributes(O.Id);
    if (!Attrs.empty()) {
      outs() << "  attrs={";
      bool First = true;
      for (unsigned Obj : Attrs) {
        if (!First)
          outs() << ", ";
        First = false;
        outs() << "obj" << Obj << ":"
               << OPA->object(Obj).AllocatedType->getName();
      }
      outs() << "}";
    }
    outs() << '\n';
  }
  return 0;
}
