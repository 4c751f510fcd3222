//===- o2/IR/Stmt.h - OIR statements -----------------------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OIR statement hierarchy. The forms correspond 1:1 to the paper's
/// Table 2 (pointer-analysis rules) and Table 4 (SHB rules):
///
///   ❶ x = new C(b1..bn)     AllocStmt (origin allocation if C has an
///                            origin entry method — rule ❽)
///     x = newarray T         ArrayAllocStmt
///   ❷ x = y                  AssignStmt
///   ❸ x.f = y                FieldStoreStmt
///   ❹ x = y.f                FieldLoadStmt
///   ❺ x[*] = y               ArrayStoreStmt
///   ❻ x = y[*]               ArrayLoadStmt
///     @g = x / x = @g        GlobalStoreStmt / GlobalLoadStmt (statics)
///   ❼ x = y.m(a1..an)        CallStmt (virtual); also direct calls
///   ❾ spawn y.entry(c1..cn)  SpawnStmt (origin entry invocation)
///   ❿ join y                 JoinStmt
///   ⓫ acquire x / release x  AcquireStmt / ReleaseStmt (monitor locks)
///     return x               ReturnStmt
///
//===----------------------------------------------------------------------===//

#ifndef O2_IR_STMT_H
#define O2_IR_STMT_H

#include "o2/Support/ArrayRef.h"
#include "o2/Support/Casting.h"
#include "o2/Support/StringRef.h"

#include <cstdint>

namespace o2 {

class ArrayType;
class ClassType;
class Field;
class Function;
class Global;
class Variable;

/// Base class for all OIR statements. Statements live in their Module's
/// arena and carry dense module-wide IDs used by the analyses. Every kind
/// is trivially destructible: operands are pointers, and argument lists
/// and names are views into the same arena.
class Stmt {
public:
  enum StmtKind : uint8_t {
    SK_Alloc,
    SK_ArrayAlloc,
    SK_Assign,
    SK_FieldLoad,
    SK_FieldStore,
    SK_ArrayLoad,
    SK_ArrayStore,
    SK_GlobalLoad,
    SK_GlobalStore,
    SK_Call,
    SK_Spawn,
    SK_Join,
    SK_Acquire,
    SK_Release,
    SK_Return,
  };

  StmtKind getKind() const { return Kind; }
  Function *getFunction() const { return Parent; }

  /// Module-wide dense statement ID.
  unsigned getId() const { return Id; }

  /// Position within the owning function body (SHB trace order).
  unsigned getIndex() const { return Index; }

protected:
  Stmt(StmtKind Kind, Function *Parent, unsigned Id, unsigned Index)
      : Kind(Kind), Parent(Parent), Id(Id), Index(Index) {}

private:
  const StmtKind Kind;
  Function *Parent;
  unsigned Id;
  unsigned Index;
};

/// x = new C(args...). If C (transitively) declares an origin entry method,
/// the pointer analysis treats this as an origin allocation (rule ❽).
class AllocStmt : public Stmt {
public:
  AllocStmt(Function *Parent, unsigned Id, unsigned Index, Variable *Target,
            ClassType *AllocType, ArrayRef<Variable *> Args,
            unsigned Site, bool InLoop)
      : Stmt(SK_Alloc, Parent, Id, Index), Target(Target),
        AllocType(AllocType), Args(Args), Site(Site),
        InLoop(InLoop) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_Alloc; }

  Variable *getTarget() const { return Target; }
  ClassType *getAllocType() const { return AllocType; }
  ArrayRef<Variable *> getArgs() const { return Args; }

  /// Module-wide dense allocation-site ID.
  unsigned getSite() const { return Site; }

  /// True if syntactically inside a `loop { }` region; origin allocations
  /// in loops are duplicated (Section 3.2, "Wrapper Functions and Loops").
  bool isInLoop() const { return InLoop; }

private:
  Variable *Target;
  ClassType *AllocType;
  ArrayRef<Variable *> Args;
  unsigned Site;
  bool InLoop;
};

/// x = newarray T.
class ArrayAllocStmt : public Stmt {
public:
  ArrayAllocStmt(Function *Parent, unsigned Id, unsigned Index,
                 Variable *Target, ArrayType *AllocType, unsigned Site,
                 bool InLoop)
      : Stmt(SK_ArrayAlloc, Parent, Id, Index), Target(Target),
        AllocType(AllocType), Site(Site), InLoop(InLoop) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_ArrayAlloc; }

  Variable *getTarget() const { return Target; }
  ArrayType *getAllocType() const { return AllocType; }
  unsigned getSite() const { return Site; }
  bool isInLoop() const { return InLoop; }

private:
  Variable *Target;
  ArrayType *AllocType;
  unsigned Site;
  bool InLoop;
};

/// x = y.
class AssignStmt : public Stmt {
public:
  AssignStmt(Function *Parent, unsigned Id, unsigned Index, Variable *Target,
             Variable *Source)
      : Stmt(SK_Assign, Parent, Id, Index), Target(Target), Source(Source) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_Assign; }

  Variable *getTarget() const { return Target; }
  Variable *getSource() const { return Source; }

private:
  Variable *Target;
  Variable *Source;
};

/// x = y.f.
class FieldLoadStmt : public Stmt {
public:
  FieldLoadStmt(Function *Parent, unsigned Id, unsigned Index,
                Variable *Target, Variable *Base, Field *Fld)
      : Stmt(SK_FieldLoad, Parent, Id, Index), Target(Target), Base(Base),
        Fld(Fld) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_FieldLoad; }

  Variable *getTarget() const { return Target; }
  Variable *getBase() const { return Base; }
  Field *getField() const { return Fld; }

private:
  Variable *Target;
  Variable *Base;
  Field *Fld;
};

/// x.f = y.
class FieldStoreStmt : public Stmt {
public:
  FieldStoreStmt(Function *Parent, unsigned Id, unsigned Index, Variable *Base,
                 Field *Fld, Variable *Source)
      : Stmt(SK_FieldStore, Parent, Id, Index), Base(Base), Fld(Fld),
        Source(Source) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_FieldStore; }

  Variable *getBase() const { return Base; }
  Field *getField() const { return Fld; }
  Variable *getSource() const { return Source; }

private:
  Variable *Base;
  Field *Fld;
  Variable *Source;
};

/// x = y[*].
class ArrayLoadStmt : public Stmt {
public:
  ArrayLoadStmt(Function *Parent, unsigned Id, unsigned Index,
                Variable *Target, Variable *Base)
      : Stmt(SK_ArrayLoad, Parent, Id, Index), Target(Target), Base(Base) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_ArrayLoad; }

  Variable *getTarget() const { return Target; }
  Variable *getBase() const { return Base; }

private:
  Variable *Target;
  Variable *Base;
};

/// x[*] = y.
class ArrayStoreStmt : public Stmt {
public:
  ArrayStoreStmt(Function *Parent, unsigned Id, unsigned Index, Variable *Base,
                 Variable *Source)
      : Stmt(SK_ArrayStore, Parent, Id, Index), Base(Base), Source(Source) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_ArrayStore; }

  Variable *getBase() const { return Base; }
  Variable *getSource() const { return Source; }

private:
  Variable *Base;
  Variable *Source;
};

/// x = @g (static field read).
class GlobalLoadStmt : public Stmt {
public:
  GlobalLoadStmt(Function *Parent, unsigned Id, unsigned Index,
                 Variable *Target, Global *G)
      : Stmt(SK_GlobalLoad, Parent, Id, Index), Target(Target), G(G) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_GlobalLoad; }

  Variable *getTarget() const { return Target; }
  Global *getGlobal() const { return G; }

private:
  Variable *Target;
  Global *G;
};

/// @g = x (static field write).
class GlobalStoreStmt : public Stmt {
public:
  GlobalStoreStmt(Function *Parent, unsigned Id, unsigned Index, Global *G,
                  Variable *Source)
      : Stmt(SK_GlobalStore, Parent, Id, Index), G(G), Source(Source) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_GlobalStore; }

  Global *getGlobal() const { return G; }
  Variable *getSource() const { return Source; }

private:
  Global *G;
  Variable *Source;
};

/// x = y.m(a1..an) — virtual call dispatched on the dynamic type of y —
/// or x = f(a1..an) — direct call to a free function.
class CallStmt : public Stmt {
public:
  CallStmt(Function *Parent, unsigned Id, unsigned Index, Variable *Target,
           Variable *Receiver, StringRef MethodName, Function *DirectCallee,
           ArrayRef<Variable *> Args, unsigned Site)
      : Stmt(SK_Call, Parent, Id, Index), Target(Target), Receiver(Receiver),
        MethodName(MethodName), DirectCallee(DirectCallee),
        Args(Args), Site(Site) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_Call; }

  /// Destination of the return value; may be null.
  Variable *getTarget() const { return Target; }

  /// Receiver for virtual calls; null for direct calls.
  Variable *getReceiver() const { return Receiver; }
  bool isVirtual() const { return Receiver != nullptr; }

  StringRef getMethodName() const { return MethodName; }
  Function *getDirectCallee() const { return DirectCallee; }

  ArrayRef<Variable *> getArgs() const { return Args; }

  /// Module-wide dense call-site ID (shared space with spawn sites).
  unsigned getSite() const { return Site; }

private:
  Variable *Target;
  Variable *Receiver;
  StringRef MethodName;
  Function *DirectCallee;
  ArrayRef<Variable *> Args;
  unsigned Site;
};

/// spawn y.entry(c1..cn) — invocation of an origin entry point (rule ❾):
/// thread start, event-handler dispatch, task submission.
class SpawnStmt : public Stmt {
public:
  SpawnStmt(Function *Parent, unsigned Id, unsigned Index, Variable *Receiver,
            StringRef EntryName, ArrayRef<Variable *> Args,
            unsigned Site, bool InLoop)
      : Stmt(SK_Spawn, Parent, Id, Index), Receiver(Receiver),
        EntryName(EntryName), Args(Args), Site(Site),
        InLoop(InLoop) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_Spawn; }

  Variable *getReceiver() const { return Receiver; }
  StringRef getEntryName() const { return EntryName; }
  ArrayRef<Variable *> getArgs() const { return Args; }
  unsigned getSite() const { return Site; }
  bool isInLoop() const { return InLoop; }

private:
  Variable *Receiver;
  StringRef EntryName;
  ArrayRef<Variable *> Args;
  unsigned Site;
  bool InLoop;
};

/// join y — waits for the origins spawned from objects y points to (rule ❿).
class JoinStmt : public Stmt {
public:
  JoinStmt(Function *Parent, unsigned Id, unsigned Index, Variable *Receiver)
      : Stmt(SK_Join, Parent, Id, Index), Receiver(Receiver) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_Join; }

  Variable *getReceiver() const { return Receiver; }

private:
  Variable *Receiver;
};

/// acquire x — enters the monitor of the object(s) x points to.
class AcquireStmt : public Stmt {
public:
  AcquireStmt(Function *Parent, unsigned Id, unsigned Index, Variable *Lock)
      : Stmt(SK_Acquire, Parent, Id, Index), Lock(Lock) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_Acquire; }

  Variable *getLock() const { return Lock; }

private:
  Variable *Lock;
};

/// release x — exits the monitor. Must be well nested within a function.
class ReleaseStmt : public Stmt {
public:
  ReleaseStmt(Function *Parent, unsigned Id, unsigned Index, Variable *Lock)
      : Stmt(SK_Release, Parent, Id, Index), Lock(Lock) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_Release; }

  Variable *getLock() const { return Lock; }

private:
  Variable *Lock;
};

/// return x (or bare return).
class ReturnStmt : public Stmt {
public:
  ReturnStmt(Function *Parent, unsigned Id, unsigned Index, Variable *Value)
      : Stmt(SK_Return, Parent, Id, Index), Value(Value) {}

  static bool classof(const Stmt *S) { return S->getKind() == SK_Return; }

  /// May be null for a bare return.
  Variable *getValue() const { return Value; }

private:
  Variable *Value;
};

} // namespace o2

#endif // O2_IR_STMT_H
