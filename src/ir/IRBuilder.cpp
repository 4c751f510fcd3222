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

/// Resolves a field by name through the static type of \p Base. Fields are
/// not overridable, so resolution through the static type yields the same
/// declared Field as resolution through any dynamic subclass.
static Field *resolveField(Variable *Base, std::string_view FieldName) {
  auto *C = dyn_cast<ClassType>(Base->getType());
  assert(C && "field access base must have class type");
  Field *Fld = C->findField(FieldName);
  assert(Fld && "no such field on the base's static type");
  return Fld;
}

AllocStmt *IRBuilder::alloc(Variable *Target, ClassType *C,
                            ArrayRef<Variable *> Args) {
  return make<AllocStmt>(Target, C, M.copyArray(Args), M.takeAllocSite(),
                         inLoop());
}

ArrayAllocStmt *IRBuilder::allocArray(Variable *Target, ArrayType *Ty) {
  return make<ArrayAllocStmt>(Target, Ty, M.takeAllocSite(), inLoop());
}

AssignStmt *IRBuilder::assign(Variable *Target, Variable *Source) {
  return make<AssignStmt>(Target, Source);
}

FieldLoadStmt *IRBuilder::fieldLoad(Variable *Target, Variable *Base,
                                    std::string_view FieldName) {
  return fieldLoad(Target, Base, resolveField(Base, FieldName));
}

FieldLoadStmt *IRBuilder::fieldLoad(Variable *Target, Variable *Base,
                                    Field *Fld) {
  return make<FieldLoadStmt>(Target, Base, Fld);
}

FieldStoreStmt *IRBuilder::fieldStore(Variable *Base,
                                      std::string_view FieldName,
                                      Variable *Source) {
  return fieldStore(Base, resolveField(Base, FieldName), Source);
}

FieldStoreStmt *IRBuilder::fieldStore(Variable *Base, Field *Fld,
                                      Variable *Source) {
  return make<FieldStoreStmt>(Base, Fld, Source);
}

ArrayLoadStmt *IRBuilder::arrayLoad(Variable *Target, Variable *Base) {
  return make<ArrayLoadStmt>(Target, Base);
}

ArrayStoreStmt *IRBuilder::arrayStore(Variable *Base, Variable *Source) {
  return make<ArrayStoreStmt>(Base, Source);
}

GlobalLoadStmt *IRBuilder::globalLoad(Variable *Target, Global *G) {
  return make<GlobalLoadStmt>(Target, G);
}

GlobalStoreStmt *IRBuilder::globalStore(Global *G, Variable *Source) {
  return make<GlobalStoreStmt>(G, Source);
}

CallStmt *IRBuilder::call(Variable *Target, Variable *Receiver,
                          std::string_view MethodName,
                          ArrayRef<Variable *> Args) {
  assert(Receiver && "virtual call requires a receiver");
  return make<CallStmt>(Target, Receiver, M.saveString(MethodName),
                        /*DirectCallee=*/nullptr, M.copyArray(Args),
                        M.takeCallSite());
}

CallStmt *IRBuilder::callDirect(Variable *Target, Function *Callee,
                                ArrayRef<Variable *> Args) {
  assert(Callee && "direct call requires a callee");
  return make<CallStmt>(Target, /*Receiver=*/nullptr, Callee->getName(),
                        Callee, M.copyArray(Args), M.takeCallSite());
}

SpawnStmt *IRBuilder::spawn(Variable *Receiver, std::string_view EntryName,
                            ArrayRef<Variable *> Args) {
  return make<SpawnStmt>(Receiver, M.saveString(EntryName), M.copyArray(Args),
                         M.takeCallSite(), inLoop());
}

JoinStmt *IRBuilder::join(Variable *Receiver) {
  return make<JoinStmt>(Receiver);
}

AcquireStmt *IRBuilder::acquire(Variable *Lock) {
  return make<AcquireStmt>(Lock);
}

ReleaseStmt *IRBuilder::release(Variable *Lock) {
  return make<ReleaseStmt>(Lock);
}

ReturnStmt *IRBuilder::ret(Variable *Value) {
  return make<ReturnStmt>(Value);
}
