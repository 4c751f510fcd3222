//===- o2/IR/IRBuilder.h - Convenience IR construction -----------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IRBuilder appends statements to a function, allocating the dense site
/// and statement IDs from the module and tracking `loop { }` nesting so
/// allocations and spawns inside loops get their in-loop flag (which makes
/// OPA duplicate the corresponding origins).
///
//===----------------------------------------------------------------------===//

#ifndef O2_IR_IRBUILDER_H
#define O2_IR_IRBUILDER_H

#include "o2/IR/Module.h"
#include "o2/Support/ArrayRef.h"

namespace o2 {

class IRBuilder {
public:
  explicit IRBuilder(Module &M, Function *F = nullptr) : M(M), F(F) {}

  Module &getModule() const { return M; }
  Function *getFunction() const { return F; }

  /// Retargets the builder; resets loop nesting.
  void setFunction(Function *NewF) {
    F = NewF;
    LoopDepth = 0;
  }

  /// Enters / leaves a syntactic loop region (affects only the in-loop
  /// flag of allocations and spawns).
  void beginLoop() { ++LoopDepth; }
  void endLoop() {
    assert(LoopDepth > 0 && "endLoop() without beginLoop()");
    --LoopDepth;
  }

  AllocStmt *alloc(Variable *Target, ClassType *C,
                   ArrayRef<Variable *> Args = {});
  ArrayAllocStmt *allocArray(Variable *Target, ArrayType *Ty);
  AssignStmt *assign(Variable *Target, Variable *Source);
  FieldLoadStmt *fieldLoad(Variable *Target, Variable *Base,
                           std::string_view FieldName);
  FieldLoadStmt *fieldLoad(Variable *Target, Variable *Base, Field *Fld);
  FieldStoreStmt *fieldStore(Variable *Base, std::string_view FieldName,
                             Variable *Source);
  FieldStoreStmt *fieldStore(Variable *Base, Field *Fld, Variable *Source);
  ArrayLoadStmt *arrayLoad(Variable *Target, Variable *Base);
  ArrayStoreStmt *arrayStore(Variable *Base, Variable *Source);
  GlobalLoadStmt *globalLoad(Variable *Target, Global *G);
  GlobalStoreStmt *globalStore(Global *G, Variable *Source);

  /// Virtual call x = recv.m(args).
  CallStmt *call(Variable *Target, Variable *Receiver,
                 std::string_view MethodName, ArrayRef<Variable *> Args = {});
  /// Direct call x = f(args).
  CallStmt *callDirect(Variable *Target, Function *Callee,
                       ArrayRef<Variable *> Args = {});

  SpawnStmt *spawn(Variable *Receiver, std::string_view EntryName,
                   ArrayRef<Variable *> Args = {});
  JoinStmt *join(Variable *Receiver);
  AcquireStmt *acquire(Variable *Lock);
  ReleaseStmt *release(Variable *Lock);
  ReturnStmt *ret(Variable *Value = nullptr);

private:
  bool inLoop() const { return LoopDepth > 0; }
  unsigned nextIndex() const { return static_cast<unsigned>(F->size()); }

  /// Appends a statement of kind \p StmtT, made in the module's arena.
  template <typename StmtT, typename... ArgTs> StmtT *make(ArgTs &&...Args) {
    auto *S = M.create<StmtT>(F, M.takeStmtId(), nextIndex(),
                              std::forward<ArgTs>(Args)...);
    F->append(S);
    return S;
  }

  Module &M;
  Function *F;
  unsigned LoopDepth = 0;
};

} // namespace o2

#endif // O2_IR_IRBUILDER_H
