//===- Verifier.cpp - OIR structural checks ---------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Verifier.h"

#include "o2/IR/Module.h"
#include "o2/IR/Printer.h"
#include "o2/Support/Casting.h"

#include <vector>

using namespace o2;

namespace {

class VerifierImpl {
public:
  VerifierImpl(const Module &M, std::vector<std::string> &Errors)
      : M(M), Errors(Errors) {}

  bool run() {
    size_t Before = Errors.size();
    checkEntryPoint();
    for (const auto &F : M.functions())
      checkFunction(*F);
    return Errors.size() == Before;
  }

private:
  void error(const Function &F, const Stmt *S, const std::string &Msg) {
    std::string Full = "in " + qualifiedName(F);
    if (S)
      Full += ", at '" + printStmt(*S) + "'";
    Full += ": " + Msg;
    Errors.push_back(std::move(Full));
  }

  static std::string qualifiedName(const Function &F) {
    if (F.getClass())
      return F.getClass()->getName() + "::" + F.getName();
    return F.getName().str();
  }

  void checkEntryPoint() {
    const Function *Main = M.getMain();
    if (!Main) {
      Errors.push_back("module has no 'main' function");
      return;
    }
    if (!Main->params().empty())
      Errors.push_back("'main' must take no parameters");
  }

  /// Checks that \p V is a variable of \p F.
  bool owned(const Function &F, const Variable *V, const Stmt *S,
             const char *Role) {
    if (!V) {
      error(F, S, std::string("null ") + Role + " variable");
      return false;
    }
    if (V->getFunction() != &F) {
      error(F, S, std::string(Role) + " variable '" + V->getName() +
                      "' belongs to another function");
      return false;
    }
    return true;
  }

  /// True if a value of type \p Src may be stored into storage of type
  /// \p Dst (identity, or subclass into superclass).
  static bool assignable(const Type *Src, const Type *Dst) {
    if (Src == Dst)
      return true;
    const auto *SrcC = dyn_cast<ClassType>(Src);
    const auto *DstC = dyn_cast<ClassType>(Dst);
    return SrcC && DstC && SrcC->isSubclassOf(DstC);
  }

  void checkAssignable(const Function &F, const Stmt &S, const Type *Src,
                       const Type *Dst, const char *What) {
    if (!assignable(Src, Dst))
      error(F, &S, std::string(What) + ": cannot store '" + Src->getName() +
                       "' into '" + Dst->getName() + "'");
  }

  void checkFunction(const Function &F) {
    if (F.isMethod()) {
      if (F.params().empty() || F.params()[0]->getName() != "this")
        error(F, nullptr, "method lacks implicit 'this' parameter");
      else if (F.params()[0]->getType() != F.getClass() &&
               !(isa<ClassType>(F.params()[0]->getType()) &&
                 cast<ClassType>(F.getClass())
                     ->isSubclassOf(cast<ClassType>(F.params()[0]->getType()))))
        error(F, nullptr, "'this' parameter type mismatch");
    }

    std::vector<const Variable *> LockStack;
    for (const auto &SPtr : F.body()) {
      const Stmt &S = *SPtr;
      checkStmt(F, S, LockStack);
    }
    if (!LockStack.empty())
      error(F, nullptr, "unbalanced lock region: " +
                            std::to_string(LockStack.size()) +
                            " acquire(s) without release");
  }

  void checkCallArity(const Function &F, const Stmt &S,
                      const Function &Callee, size_t NumArgs,
                      bool HasReceiver) {
    size_t Expected = Callee.params().size() - (HasReceiver ? 1 : 0);
    if (NumArgs != Expected)
      error(F, &S, "call to '" + qualifiedName(Callee) + "' passes " +
                       std::to_string(NumArgs) + " argument(s), expected " +
                       std::to_string(Expected));
  }

  void checkStmt(const Function &F, const Stmt &S,
                 std::vector<const Variable *> &LockStack) {
    switch (S.getKind()) {
    case Stmt::SK_Alloc: {
      const auto &A = cast<AllocStmt>(S);
      if (!owned(F, A.getTarget(), &S, "target"))
        return;
      checkAssignable(F, S, A.getAllocType(), A.getTarget()->getType(),
                      "alloc");
      for (const Variable *Arg : A.getArgs())
        owned(F, Arg, &S, "argument");
      if (Function *Init = A.getAllocType()->findMethod("init")) {
        checkCallArity(F, S, *Init, A.getArgs().size(), /*HasReceiver=*/true);
      } else if (!A.getArgs().empty()) {
        error(F, &S, "constructor arguments but class '" +
                         A.getAllocType()->getName() + "' has no 'init'");
      }
      return;
    }
    case Stmt::SK_ArrayAlloc: {
      const auto &A = cast<ArrayAllocStmt>(S);
      if (!owned(F, A.getTarget(), &S, "target"))
        return;
      checkAssignable(F, S, A.getAllocType(), A.getTarget()->getType(),
                      "array alloc");
      return;
    }
    case Stmt::SK_Assign: {
      const auto &A = cast<AssignStmt>(S);
      if (!owned(F, A.getTarget(), &S, "target") ||
          !owned(F, A.getSource(), &S, "source"))
        return;
      checkAssignable(F, S, A.getSource()->getType(),
                      A.getTarget()->getType(), "assign");
      return;
    }
    case Stmt::SK_FieldLoad: {
      const auto &L = cast<FieldLoadStmt>(S);
      if (!owned(F, L.getTarget(), &S, "target") ||
          !owned(F, L.getBase(), &S, "base"))
        return;
      checkFieldAccess(F, S, L.getBase(), L.getField());
      checkAssignable(F, S, L.getField()->getType(),
                      L.getTarget()->getType(), "field load");
      return;
    }
    case Stmt::SK_FieldStore: {
      const auto &St = cast<FieldStoreStmt>(S);
      if (!owned(F, St.getBase(), &S, "base") ||
          !owned(F, St.getSource(), &S, "source"))
        return;
      checkFieldAccess(F, S, St.getBase(), St.getField());
      checkAssignable(F, S, St.getSource()->getType(),
                      St.getField()->getType(), "field store");
      return;
    }
    case Stmt::SK_ArrayLoad: {
      const auto &L = cast<ArrayLoadStmt>(S);
      if (!owned(F, L.getTarget(), &S, "target") ||
          !owned(F, L.getBase(), &S, "base"))
        return;
      if (const auto *AT = dyn_cast<ArrayType>(L.getBase()->getType()))
        checkAssignable(F, S, AT->getElementType(), L.getTarget()->getType(),
                        "array load");
      else
        error(F, &S, "array load from non-array variable");
      return;
    }
    case Stmt::SK_ArrayStore: {
      const auto &St = cast<ArrayStoreStmt>(S);
      if (!owned(F, St.getBase(), &S, "base") ||
          !owned(F, St.getSource(), &S, "source"))
        return;
      if (const auto *AT = dyn_cast<ArrayType>(St.getBase()->getType()))
        checkAssignable(F, S, St.getSource()->getType(), AT->getElementType(),
                        "array store");
      else
        error(F, &S, "array store to non-array variable");
      return;
    }
    case Stmt::SK_GlobalLoad: {
      const auto &L = cast<GlobalLoadStmt>(S);
      if (!owned(F, L.getTarget(), &S, "target"))
        return;
      checkAssignable(F, S, L.getGlobal()->getType(),
                      L.getTarget()->getType(), "global load");
      return;
    }
    case Stmt::SK_GlobalStore: {
      const auto &St = cast<GlobalStoreStmt>(S);
      if (!owned(F, St.getSource(), &S, "source"))
        return;
      checkAssignable(F, S, St.getSource()->getType(),
                      St.getGlobal()->getType(), "global store");
      return;
    }
    case Stmt::SK_Call: {
      const auto &C = cast<CallStmt>(S);
      if (C.getTarget())
        owned(F, C.getTarget(), &S, "target");
      for (const Variable *Arg : C.getArgs())
        owned(F, Arg, &S, "argument");
      if (C.isVirtual()) {
        if (!owned(F, C.getReceiver(), &S, "receiver"))
          return;
        const auto *RC = dyn_cast<ClassType>(C.getReceiver()->getType());
        if (!RC) {
          error(F, &S, "virtual call on non-class receiver");
          return;
        }
        Function *Target = RC->findMethod(C.getMethodName());
        if (!Target) {
          error(F, &S, "class '" + RC->getName() + "' has no method '" +
                           C.getMethodName() + "'");
          return;
        }
        checkCallArity(F, S, *Target, C.getArgs().size(),
                       /*HasReceiver=*/true);
      } else {
        if (!C.getDirectCallee()) {
          error(F, &S, "direct call with null callee");
          return;
        }
        checkCallArity(F, S, *C.getDirectCallee(), C.getArgs().size(),
                       /*HasReceiver=*/false);
      }
      return;
    }
    case Stmt::SK_Spawn: {
      const auto &Sp = cast<SpawnStmt>(S);
      if (!owned(F, Sp.getReceiver(), &S, "receiver"))
        return;
      for (const Variable *Arg : Sp.getArgs())
        owned(F, Arg, &S, "argument");
      const auto *RC = dyn_cast<ClassType>(Sp.getReceiver()->getType());
      if (!RC) {
        error(F, &S, "spawn on non-class receiver");
        return;
      }
      Function *Entry = RC->findMethod(Sp.getEntryName());
      if (!Entry) {
        error(F, &S, "class '" + RC->getName() + "' has no entry method '" +
                         Sp.getEntryName() + "'");
        return;
      }
      checkCallArity(F, S, *Entry, Sp.getArgs().size(), /*HasReceiver=*/true);
      return;
    }
    case Stmt::SK_Join: {
      const auto &J = cast<JoinStmt>(S);
      if (owned(F, J.getReceiver(), &S, "receiver") &&
          !isa<ClassType>(J.getReceiver()->getType()))
        error(F, &S, "join on non-class receiver");
      return;
    }
    case Stmt::SK_Acquire: {
      const auto &A = cast<AcquireStmt>(S);
      if (owned(F, A.getLock(), &S, "lock")) {
        if (!A.getLock()->getType()->isReference())
          error(F, &S, "lock variable must have reference type");
        LockStack.push_back(A.getLock());
      }
      return;
    }
    case Stmt::SK_Release: {
      const auto &R = cast<ReleaseStmt>(S);
      if (!owned(F, R.getLock(), &S, "lock"))
        return;
      if (LockStack.empty()) {
        error(F, &S, "release without matching acquire");
        return;
      }
      if (LockStack.back() != R.getLock())
        error(F, &S, "lock regions are not well nested (expected release of '" +
                         LockStack.back()->getName() + "')");
      LockStack.pop_back();
      return;
    }
    case Stmt::SK_Return: {
      const auto &R = cast<ReturnStmt>(S);
      if (R.getValue()) {
        if (!owned(F, R.getValue(), &S, "return value"))
          return;
        if (!F.getReturnType())
          error(F, &S, "value returned from void function");
        else
          checkAssignable(F, S, R.getValue()->getType(), F.getReturnType(),
                          "return");
      }
      return;
    }
    }
    O2_UNREACHABLE("covered switch");
  }

  void checkFieldAccess(const Function &F, const Stmt &S,
                        const Variable *Base, const Field *Fld) {
    const auto *BC = dyn_cast<ClassType>(Base->getType());
    if (!BC) {
      error(F, &S, "field access on non-class variable");
      return;
    }
    if (!Fld) {
      error(F, &S, "null field");
      return;
    }
    if (!BC->isSubclassOf(Fld->getParent()) &&
        !Fld->getParent()->isSubclassOf(BC))
      error(F, &S, "field '" + Fld->getName() +
                       "' is not declared on the base's class hierarchy");
  }

  const Module &M;
  std::vector<std::string> &Errors;
};

} // namespace

bool o2::verifyModule(const Module &M, std::vector<std::string> &Errors) {
  return VerifierImpl(M, Errors).run();
}
