//===- IRBuilder.cpp - Convenience IR construction -------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/IR/IRBuilder.h"

#include "o2/Support/Casting.h"

using namespace o2;

static SmallVector<Variable *, 4> toVector(ArrayRef<Variable *> Args) {
  return SmallVector<Variable *, 4>(Args.begin(), Args.end());
}

/// Resolves a field by name through the static type of \p Base. Fields are
/// not overridable, so resolution through the static type yields the same
/// declared Field as resolution through any dynamic subclass.
static Field *resolveField(Variable *Base, const std::string &FieldName) {
  auto *C = dyn_cast<ClassType>(Base->getType());
  assert(C && "field access base must have class type");
  Field *Fld = C->findField(FieldName);
  assert(Fld && "no such field on the base's static type");
  return Fld;
}

AllocStmt *IRBuilder::alloc(Variable *Target, ClassType *C,
                            ArrayRef<Variable *> Args) {
  auto S = std::make_unique<AllocStmt>(F, M.takeStmtId(), nextIndex(), Target,
                                       C, toVector(Args), M.takeAllocSite(),
                                       inLoop());
  return cast<AllocStmt>(F->append(std::move(S)));
}

ArrayAllocStmt *IRBuilder::allocArray(Variable *Target, ArrayType *Ty) {
  auto S = std::make_unique<ArrayAllocStmt>(
      F, M.takeStmtId(), nextIndex(), Target, Ty, M.takeAllocSite(), inLoop());
  return cast<ArrayAllocStmt>(F->append(std::move(S)));
}

AssignStmt *IRBuilder::assign(Variable *Target, Variable *Source) {
  auto S = std::make_unique<AssignStmt>(F, M.takeStmtId(), nextIndex(), Target,
                                        Source);
  return cast<AssignStmt>(F->append(std::move(S)));
}

FieldLoadStmt *IRBuilder::fieldLoad(Variable *Target, Variable *Base,
                                    const std::string &FieldName) {
  return fieldLoad(Target, Base, resolveField(Base, FieldName));
}

FieldLoadStmt *IRBuilder::fieldLoad(Variable *Target, Variable *Base,
                                    Field *Fld) {
  auto S = std::make_unique<FieldLoadStmt>(F, M.takeStmtId(), nextIndex(),
                                           Target, Base, Fld);
  return cast<FieldLoadStmt>(F->append(std::move(S)));
}

FieldStoreStmt *IRBuilder::fieldStore(Variable *Base,
                                      const std::string &FieldName,
                                      Variable *Source) {
  return fieldStore(Base, resolveField(Base, FieldName), Source);
}

FieldStoreStmt *IRBuilder::fieldStore(Variable *Base, Field *Fld,
                                      Variable *Source) {
  auto S = std::make_unique<FieldStoreStmt>(F, M.takeStmtId(), nextIndex(),
                                            Base, Fld, Source);
  return cast<FieldStoreStmt>(F->append(std::move(S)));
}

ArrayLoadStmt *IRBuilder::arrayLoad(Variable *Target, Variable *Base) {
  auto S = std::make_unique<ArrayLoadStmt>(F, M.takeStmtId(), nextIndex(),
                                           Target, Base);
  return cast<ArrayLoadStmt>(F->append(std::move(S)));
}

ArrayStoreStmt *IRBuilder::arrayStore(Variable *Base, Variable *Source) {
  auto S = std::make_unique<ArrayStoreStmt>(F, M.takeStmtId(), nextIndex(),
                                            Base, Source);
  return cast<ArrayStoreStmt>(F->append(std::move(S)));
}

GlobalLoadStmt *IRBuilder::globalLoad(Variable *Target, Global *G) {
  auto S = std::make_unique<GlobalLoadStmt>(F, M.takeStmtId(), nextIndex(),
                                            Target, G);
  return cast<GlobalLoadStmt>(F->append(std::move(S)));
}

GlobalStoreStmt *IRBuilder::globalStore(Global *G, Variable *Source) {
  auto S = std::make_unique<GlobalStoreStmt>(F, M.takeStmtId(), nextIndex(), G,
                                             Source);
  return cast<GlobalStoreStmt>(F->append(std::move(S)));
}

CallStmt *IRBuilder::call(Variable *Target, Variable *Receiver,
                          std::string_view MethodName,
                          ArrayRef<Variable *> Args) {
  assert(Receiver && "virtual call requires a receiver");
  auto S = std::make_unique<CallStmt>(F, M.takeStmtId(), nextIndex(), Target,
                                      Receiver, std::string(MethodName),
                                      /*DirectCallee=*/nullptr, toVector(Args),
                                      M.takeCallSite());
  return cast<CallStmt>(F->append(std::move(S)));
}

CallStmt *IRBuilder::callDirect(Variable *Target, Function *Callee,
                                ArrayRef<Variable *> Args) {
  assert(Callee && "direct call requires a callee");
  auto S = std::make_unique<CallStmt>(F, M.takeStmtId(), nextIndex(), Target,
                                      /*Receiver=*/nullptr, Callee->getName(),
                                      Callee, toVector(Args),
                                      M.takeCallSite());
  return cast<CallStmt>(F->append(std::move(S)));
}

SpawnStmt *IRBuilder::spawn(Variable *Receiver, std::string_view EntryName,
                            ArrayRef<Variable *> Args) {
  auto S = std::make_unique<SpawnStmt>(F, M.takeStmtId(), nextIndex(),
                                       Receiver, std::string(EntryName),
                                       toVector(Args),
                                       M.takeCallSite(), inLoop());
  return cast<SpawnStmt>(F->append(std::move(S)));
}

JoinStmt *IRBuilder::join(Variable *Receiver) {
  auto S =
      std::make_unique<JoinStmt>(F, M.takeStmtId(), nextIndex(), Receiver);
  return cast<JoinStmt>(F->append(std::move(S)));
}

AcquireStmt *IRBuilder::acquire(Variable *Lock) {
  auto S = std::make_unique<AcquireStmt>(F, M.takeStmtId(), nextIndex(), Lock);
  return cast<AcquireStmt>(F->append(std::move(S)));
}

ReleaseStmt *IRBuilder::release(Variable *Lock) {
  auto S = std::make_unique<ReleaseStmt>(F, M.takeStmtId(), nextIndex(), Lock);
  return cast<ReleaseStmt>(F->append(std::move(S)));
}

ReturnStmt *IRBuilder::ret(Variable *Value) {
  auto S = std::make_unique<ReturnStmt>(F, M.takeStmtId(), nextIndex(), Value);
  return cast<ReturnStmt>(F->append(std::move(S)));
}
