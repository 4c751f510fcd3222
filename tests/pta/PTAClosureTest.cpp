//===- PTAClosureTest.cpp - Inclusion-constraint closure oracle -------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The solver's result must be a fixpoint of the inclusion constraints the
// IR induces. This oracle shares no code with the solver: for every
// reached ⟨function, context⟩ instance it re-reads each statement from
// the IR and checks the constraint it stands for on the final PTAResult,
// through the public query API only:
//
//   alloc          the target points to an object allocated there;
//   assign         pts(source) ⊆ pts(target);
//   field / array  for every base object o, pts(o.f) ⊆ pts(target) on a
//                  load and pts(source) ⊆ pts(o.f) on a store;
//   global         pts(@g) ⊆ pts(target), pts(source) ⊆ pts(@g);
//   virtual call,  every receiver object whose class has the method has
//   spawn          a call target bound to that object;
//   call targets   the target's instance is reached, actuals ⊆ formals,
//                  the receiver is in `this`, and returns ⊆ target;
//   access table   accesses(F, C) lists exactly the body's field, array
//                  and global accesses in order, each with its read/write
//                  flag and the locations field(o, f) for o in pts(base),
//                  or the global's location.
//
// It runs every bundled examples/oir program and the generated benchmark
// workloads under all four context abstractions, and also checks that two
// runs produce identical results (numbering included).
//
//===----------------------------------------------------------------------===//

#include "PTATestUtils.h"
#include "ReportFacts.h"

#include "o2/Race/RaceDetector.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

using namespace o2;

namespace {

std::unique_ptr<Module> loadOIR(const std::string &FileName) {
  std::ifstream In(std::string(O2_OIR_DIR) + "/" + FileName);
  EXPECT_TRUE(In.good()) << "cannot open " << FileName;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return o2test::parseProgram(Buf.str());
}

//===----------------------------------------------------------------------===//
// Closure oracle
//===----------------------------------------------------------------------===//

/// Checks every inclusion constraint of one result against the IR.
class ClosureChecker {
public:
  ClosureChecker(const PTAResult &R, std::string Tag)
      : R(R), Tag(std::move(Tag)) {
    for (const auto &I : R.instances())
      Reached.insert(I);
  }

  void run() {
    for (const auto &[F, C] : R.instances()) {
      for (const auto &S : F->body())
        checkStmt(*S, C);
      checkAccesses(F, C);
    }
  }

private:
  const PTAResult &R;
  std::string Tag;
  std::set<std::pair<const Function *, Ctx>> Reached;

  static bool isRef(const Variable *V) {
    return V->getType()->isReference();
  }

  std::string where(const Stmt &S, Ctx C) const {
    return Tag + " " + S.getFunction()->getName() + "#" +
           std::to_string(S.getIndex()) + " in " + R.ctxToString(C);
  }

  /// A null set (never reached) reads as empty.
  void expectContains(const BitVector *Set, unsigned Obj,
                      const std::string &What) {
    EXPECT_TRUE(Set && Set->test(Obj)) << What << ": object " << Obj
                                       << " missing";
  }

  /// Sub ⊆ Super.
  void expectSubset(const BitVector *Sub, const BitVector *Super,
                    const std::string &What) {
    if (Sub)
      for (unsigned Obj : *Sub)
        expectContains(Super, Obj, What);
  }

  /// The target of an allocation points to an object allocated there.
  void expectAllocated(const BitVector *Pts, const Stmt &Alloc,
                       const std::string &What) {
    bool Found = false;
    if (Pts)
      for (unsigned Obj : *Pts)
        Found |= R.object(Obj).Alloc == &Alloc;
    EXPECT_TRUE(Found) << What << ": target lacks the allocated object";
  }

  void checkLoad(const Variable *Base, FieldKey FK, const Variable *Target,
                 Ctx C, const std::string &What) {
    if (const BitVector *Objs = R.pts(Base, C))
      for (unsigned Obj : *Objs)
        expectSubset(R.ptsField(Obj, FK), R.pts(Target, C), What);
  }

  void checkStore(const Variable *Base, FieldKey FK, const Variable *Source,
                  Ctx C, const std::string &What) {
    if (const BitVector *Objs = R.pts(Base, C))
      for (unsigned Obj : *Objs)
        expectSubset(R.pts(Source, C), R.ptsField(Obj, FK), What);
  }

  /// Every receiver object whose class defines \p Method has a target
  /// bound to it.
  void checkDispatch(const Stmt &S, const Variable *Recv,
                     const std::string &Method, Ctx C,
                     const std::string &What) {
    const BitVector *Objs = R.pts(Recv, C);
    if (!Objs)
      return;
    const auto &Targets = R.callTargets(&S, C);
    for (unsigned Obj : *Objs) {
      const auto *Cls = dyn_cast<ClassType>(R.object(Obj).AllocatedType);
      const Function *Callee = Cls ? Cls->findMethod(Method) : nullptr;
      if (!Callee)
        continue;
      bool Bound = false;
      for (const CallTarget &T : Targets)
        Bound |= T.ReceiverObj == Obj && T.Callee == Callee;
      EXPECT_TRUE(Bound) << What << ": no target for receiver " << Obj;
    }
  }

  /// The binding constraints of every resolved target of \p S.
  void checkTargets(const Stmt &S, ArrayRef<Variable *> Actuals,
                    const Variable *Result, Ctx C, const std::string &What) {
    for (const CallTarget &T : R.callTargets(&S, C)) {
      const Function *Callee = T.Callee;
      Ctx CalleeC = T.CalleeCtx;
      EXPECT_TRUE(Reached.count({Callee, CalleeC}))
          << What << ": " << Callee->getName() << " not reached";
      const auto &Params = Callee->params();
      size_t Base = 0;
      if (T.ReceiverObj != ~0u) {
        Base = 1;
        if (!Params.empty())
          expectContains(R.pts(Params[0], CalleeC), T.ReceiverObj,
                         What + " this");
      }
      for (size_t I = 0; I < Actuals.size() && Base + I < Params.size(); ++I)
        if (isRef(Actuals[I]))
          expectSubset(R.pts(Actuals[I], C), R.pts(Params[Base + I], CalleeC),
                       What + " arg " + std::to_string(I));
      if (!Result || !isRef(Result))
        continue;
      for (const auto &CS : Callee->body())
        if (const auto *Ret = dyn_cast<ReturnStmt>(CS.get()))
          if (Ret->getValue() && isRef(Ret->getValue()))
            expectSubset(R.pts(Ret->getValue(), CalleeC), R.pts(Result, C),
                         What + " return");
    }
  }

  /// The locations \p S accesses under \p C, or nullopt if \p S is not a
  /// field, array or global access.
  std::optional<std::vector<MemLoc>> accessedLocs(const Stmt &S, Ctx C,
                                                  bool &IsWrite) const {
    const Variable *Base = nullptr;
    FieldKey FK = ArrayElemKey;
    IsWrite = isa<FieldStoreStmt, ArrayStoreStmt, GlobalStoreStmt>(&S);
    if (const auto *L = dyn_cast<FieldLoadStmt>(&S)) {
      Base = L->getBase();
      FK = fieldKeyOf(L->getField());
    } else if (const auto *St = dyn_cast<FieldStoreStmt>(&S)) {
      Base = St->getBase();
      FK = fieldKeyOf(St->getField());
    } else if (const auto *AL = dyn_cast<ArrayLoadStmt>(&S)) {
      Base = AL->getBase();
    } else if (const auto *AS = dyn_cast<ArrayStoreStmt>(&S)) {
      Base = AS->getBase();
    } else if (const auto *GL = dyn_cast<GlobalLoadStmt>(&S)) {
      return std::vector<MemLoc>{MemLoc::global(GL->getGlobal()->getId())};
    } else if (const auto *GS = dyn_cast<GlobalStoreStmt>(&S)) {
      return std::vector<MemLoc>{MemLoc::global(GS->getGlobal()->getId())};
    } else {
      return std::nullopt;
    }
    std::vector<MemLoc> Locs;
    if (const BitVector *Objs = R.pts(Base, C))
      for (unsigned Obj : *Objs)
        Locs.push_back(MemLoc::field(Obj, FK));
    return Locs;
  }

  void checkAccesses(const Function *F, Ctx C) {
    ArrayRef<Access> Table = R.accesses(F, C);
    size_t Next = 0;
    for (const auto &S : F->body()) {
      bool IsWrite = false;
      std::optional<std::vector<MemLoc>> Locs = accessedLocs(*S, C, IsWrite);
      if (!Locs)
        continue;
      const std::string What = where(*S, C) + " access table";
      ASSERT_LT(Next, Table.size()) << What << ": entry missing";
      const Access &A = Table[Next++];
      EXPECT_EQ(A.S, S.get()) << What;
      EXPECT_EQ(A.IsWrite, IsWrite) << What;
      EXPECT_TRUE(A.Locs == ArrayRef<MemLoc>(*Locs)) << What;
    }
    EXPECT_EQ(Next, Table.size())
        << Tag << " " << F->getName() << ": extra access-table entries";
  }

  void checkStmt(const Stmt &S, Ctx C) {
    const std::string What = where(S, C);
    switch (S.getKind()) {
    case Stmt::SK_Alloc: {
      const auto &A = cast<AllocStmt>(S);
      const BitVector *Pts = R.pts(A.getTarget(), C);
      expectAllocated(Pts, A, What + " alloc");
      for (const CallTarget &T : R.callTargets(&A, C)) {
        EXPECT_EQ(R.object(T.ReceiverObj).Alloc, &A) << What;
        expectContains(Pts, T.ReceiverObj, What + " init receiver");
      }
      checkTargets(S, A.getArgs(), nullptr, C, What + " init");
      return;
    }
    case Stmt::SK_ArrayAlloc: {
      const auto &A = cast<ArrayAllocStmt>(S);
      expectAllocated(R.pts(A.getTarget(), C), A, What + " array alloc");
      return;
    }
    case Stmt::SK_Assign: {
      const auto &A = cast<AssignStmt>(S);
      if (isRef(A.getSource()) && isRef(A.getTarget()))
        expectSubset(R.pts(A.getSource(), C), R.pts(A.getTarget(), C),
                     What + " assign");
      return;
    }
    case Stmt::SK_FieldLoad: {
      const auto &L = cast<FieldLoadStmt>(S);
      if (L.getField()->getType()->isReference())
        checkLoad(L.getBase(), fieldKeyOf(L.getField()), L.getTarget(), C,
                  What + " field load");
      return;
    }
    case Stmt::SK_FieldStore: {
      const auto &St = cast<FieldStoreStmt>(S);
      if (St.getField()->getType()->isReference())
        checkStore(St.getBase(), fieldKeyOf(St.getField()), St.getSource(), C,
                   What + " field store");
      return;
    }
    case Stmt::SK_ArrayLoad: {
      const auto &L = cast<ArrayLoadStmt>(S);
      if (isRef(L.getTarget()))
        checkLoad(L.getBase(), ArrayElemKey, L.getTarget(), C,
                  What + " array load");
      return;
    }
    case Stmt::SK_ArrayStore: {
      const auto &St = cast<ArrayStoreStmt>(S);
      if (isRef(St.getSource()))
        checkStore(St.getBase(), ArrayElemKey, St.getSource(), C,
                   What + " array store");
      return;
    }
    case Stmt::SK_GlobalLoad: {
      const auto &L = cast<GlobalLoadStmt>(S);
      if (L.getGlobal()->getType()->isReference())
        expectSubset(R.ptsGlobal(L.getGlobal()), R.pts(L.getTarget(), C),
                     What + " global load");
      return;
    }
    case Stmt::SK_GlobalStore: {
      const auto &St = cast<GlobalStoreStmt>(S);
      if (St.getGlobal()->getType()->isReference())
        expectSubset(R.pts(St.getSource(), C), R.ptsGlobal(St.getGlobal()),
                     What + " global store");
      return;
    }
    case Stmt::SK_Call: {
      const auto &Call = cast<CallStmt>(S);
      if (Call.isVirtual()) {
        checkDispatch(S, Call.getReceiver(), Call.getMethodName(), C,
                      What + " call");
      } else {
        bool Bound = false;
        for (const CallTarget &T : R.callTargets(&S, C))
          Bound |= T.Callee == Call.getDirectCallee() && T.ReceiverObj == ~0u;
        EXPECT_TRUE(Bound) << What << ": direct call unbound";
      }
      checkTargets(S, Call.getArgs(), Call.getTarget(), C, What + " call");
      return;
    }
    case Stmt::SK_Spawn: {
      const auto &Sp = cast<SpawnStmt>(S);
      checkDispatch(S, Sp.getReceiver(), Sp.getEntryName(), C,
                    What + " spawn");
      checkTargets(S, Sp.getArgs(), nullptr, C, What + " spawn");
      return;
    }
    case Stmt::SK_Join:
    case Stmt::SK_Acquire:
    case Stmt::SK_Release:
    case Stmt::SK_Return:
      return;
    }
  }
};

//===----------------------------------------------------------------------===//
// Run-twice determinism
//===----------------------------------------------------------------------===//

void expectSamePts(const BitVector *A, const BitVector *B,
                   const std::string &Tag) {
  ASSERT_EQ(A != nullptr, B != nullptr) << Tag;
  if (A) {
    EXPECT_TRUE(*A == *B) << Tag;
  }
}

/// Compares everything a PTAResult exposes. Numbering (object IDs, node
/// IDs, context handles, origin IDs) must match exactly, not just up to
/// isomorphism — downstream phases (SHB thread numbering, reports) depend
/// on it.
void expectIdenticalResults(const Module &M, const PTAResult &A,
                            const PTAResult &B, const std::string &Tag) {
  EXPECT_EQ(A.hitBudget(), B.hitBudget()) << Tag;

  ASSERT_EQ(A.instances().size(), B.instances().size()) << Tag;
  for (size_t I = 0; I != A.instances().size(); ++I) {
    EXPECT_EQ(A.instances()[I].first, B.instances()[I].first) << Tag;
    EXPECT_EQ(A.instances()[I].second, B.instances()[I].second) << Tag;
  }

  ASSERT_EQ(A.objects().size(), B.objects().size()) << Tag;
  for (size_t I = 0; I != A.objects().size(); ++I) {
    const ObjInfo &X = A.objects()[I];
    const ObjInfo &Y = B.objects()[I];
    EXPECT_EQ(X.Site, Y.Site) << Tag;
    EXPECT_EQ(X.HeapCtx, Y.HeapCtx) << Tag;
    EXPECT_EQ(X.AllocatedType, Y.AllocatedType) << Tag;
    EXPECT_EQ(X.Alloc, Y.Alloc) << Tag;
    EXPECT_EQ(X.DupIndex, Y.DupIndex) << Tag;
    EXPECT_EQ(A.originOfObject(X.Id), B.originOfObject(Y.Id)) << Tag;
  }

  ASSERT_EQ(A.origins().size(), B.origins().size()) << Tag;
  for (unsigned O = 0; O != A.origins().size(); ++O) {
    const OriginInfo &X = A.origins().info(O);
    const OriginInfo &Y = B.origins().info(O);
    EXPECT_EQ(X.Kind, Y.Kind) << Tag;
    EXPECT_EQ(X.Class, Y.Class) << Tag;
    EXPECT_EQ(X.AllocSite, Y.AllocSite) << Tag;
    EXPECT_EQ(X.ParentCtx, Y.ParentCtx) << Tag;
    EXPECT_EQ(X.DupIndex, Y.DupIndex) << Tag;
    EXPECT_EQ(A.originAttributes(O), B.originAttributes(O)) << Tag;
    if (A.options().Kind == ContextKind::Origin) {
      EXPECT_EQ(A.originCtx(O), B.originCtx(O)) << Tag;
    }
  }

  // Points-to sets of every reached variable instance, global, and field.
  for (const auto &[F, C] : A.instances())
    for (const auto &V : F->variables())
      expectSamePts(A.pts(V.get(), C), B.pts(V.get(), C),
                    Tag + " var " + V->getName());
  for (const auto &G : M.globals())
    expectSamePts(A.ptsGlobal(G.get()), B.ptsGlobal(G.get()),
                  Tag + " global " + G->getName());

  std::map<std::pair<unsigned, FieldKey>, BitVector> FieldsA, FieldsB;
  A.forEachFieldPts([&](unsigned Obj, FieldKey FK, const BitVector &Pts) {
    FieldsA[{Obj, FK}] = Pts;
  });
  B.forEachFieldPts([&](unsigned Obj, FieldKey FK, const BitVector &Pts) {
    FieldsB[{Obj, FK}] = Pts;
  });
  ASSERT_EQ(FieldsA.size(), FieldsB.size()) << Tag;
  for (const auto &[Key, Pts] : FieldsA) {
    auto It = FieldsB.find(Key);
    ASSERT_NE(It, FieldsB.end()) << Tag;
    EXPECT_TRUE(Pts == It->second) << Tag;
  }

  // Call-target vectors, including their order (SHB thread numbering
  // walks them in stored order).
  for (const auto &[F, C] : A.instances())
    for (const auto &S : F->body()) {
      const auto &TA = A.callTargets(S.get(), C);
      const auto &TB = B.callTargets(S.get(), C);
      ASSERT_EQ(TA.size(), TB.size()) << Tag;
      for (size_t I = 0; I != TA.size(); ++I)
        EXPECT_TRUE(TA[I] == TB[I]) << Tag;
    }

  // Access tables, entry by entry.
  for (const auto &[F, C] : A.instances()) {
    ArrayRef<Access> TA = A.accesses(F, C);
    ArrayRef<Access> TB = B.accesses(F, C);
    ASSERT_EQ(TA.size(), TB.size()) << Tag;
    for (size_t I = 0; I != TA.size(); ++I) {
      EXPECT_EQ(TA[I].S, TB[I].S) << Tag;
      EXPECT_EQ(TA[I].IsWrite, TB[I].IsWrite) << Tag;
      EXPECT_TRUE(TA[I].Locs == TB[I].Locs) << Tag;
    }
  }

  EXPECT_EQ(A.stats().counters(), B.stats().counters()) << Tag;
}

/// The races found on \p PTA, then the detector's counters.
std::string renderRaces(const PTAResult &PTA) {
  SHBGraph SHB = buildSHBGraph(PTA);
  SharingResult Sharing = sharingFromOSA(PTA) ? runSharingAnalysis(PTA)
                                              : runThreadSharing(SHB);
  RaceReport R = detectRaces(PTA, SHB, Sharing);
  std::string Out = test::raceFacts(R);
  for (const auto &[Name, Value] : R.stats().counters())
    Out += Name + "=" + std::to_string(Value) + "\n";
  return Out;
}

class PTAClosure : public ::testing::TestWithParam<std::string> {};

TEST_P(PTAClosure, FixpointSatisfiesEveryConstraint) {
  const std::string &Name = GetParam();
  std::unique_ptr<Module> M;
  if (Name.rfind("oir_", 0) == 0) {
    M = loadOIR(Name.substr(4) + ".oir");
  } else {
    const WorkloadProfile *P = findProfile(Name);
    ASSERT_NE(P, nullptr) << Name;
    M = generateWorkload(*P);
  }
  ASSERT_TRUE(M);
  for (ContextKind Kind :
       {ContextKind::Insensitive, ContextKind::KCallsite,
        ContextKind::KObject, ContextKind::Origin}) {
    PTAOptions Opts = o2test::optsFor(Kind);
    auto First = runPointerAnalysis(*M, Opts);
    auto Second = runPointerAnalysis(*M, Opts);
    std::string Tag = GetParam() + "/" + Opts.name();
    expectIdenticalResults(*M, *First, *Second, Tag);
    EXPECT_EQ(renderRaces(*First), renderRaces(*Second)) << Tag;
    // A budget stop leaves a partial result that no fixpoint check fits.
    if (!First->hitBudget())
      ClosureChecker(*First, Tag).run();
  }
}

std::vector<std::string> closureCases() {
  std::vector<std::string> Cases = {"oir_racy_counter",
                                    "oir_producer_consumer",
                                    "oir_event_thread_mix"};
  for (const WorkloadProfile &P : benchmarkProfiles())
    Cases.push_back(P.Name);
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, PTAClosure,
                         ::testing::ValuesIn(closureCases()),
                         [](const auto &Info) { return Info.param; });

} // namespace
