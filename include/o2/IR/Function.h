//===- o2/IR/Function.h - OIR variables and functions -----------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Function: an ordered list of statements over locals and parameters.
/// OIR functions are single-body (no explicit CFG): the pointer analysis
/// is flow-insensitive and the SHB trace follows statement order, exactly
/// the granularity at which the paper's rules are stated.
///
//===----------------------------------------------------------------------===//

#ifndef O2_IR_FUNCTION_H
#define O2_IR_FUNCTION_H

#include "o2/IR/Stmt.h"
#include "o2/IR/Type.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace o2 {

class Function;
class Module;

/// A local variable or parameter of a function. Carries a module-wide
/// dense ID and its position among its function's variables, so analyses
/// can index variables as integers, module-wide or per function.
class Variable {
public:
  Variable(std::string Name, Type *Ty, Function *Parent, unsigned Id,
           unsigned Index, bool IsParam)
      : Name(std::move(Name)), Ty(Ty), Parent(Parent), Id(Id), Index(Index),
        IsParam(IsParam) {}

  const std::string &getName() const { return Name; }
  Type *getType() const { return Ty; }
  Function *getFunction() const { return Parent; }
  unsigned getId() const { return Id; }
  /// Position in the parent's variables().
  unsigned getIndex() const { return Index; }
  bool isParam() const { return IsParam; }

private:
  std::string Name;
  Type *Ty;
  Function *Parent;
  unsigned Id;
  unsigned Index;
  bool IsParam;
};

/// A global variable (Java static field / C global).
class Global {
public:
  Global(std::string Name, Type *Ty, unsigned Id, bool IsAtomic = false)
      : Name(std::move(Name)), Ty(Ty), Id(Id), IsAtomic(IsAtomic) {}

  const std::string &getName() const { return Name; }
  Type *getType() const { return Ty; }
  unsigned getId() const { return Id; }

  /// See Field::isAtomic().
  bool isAtomic() const { return IsAtomic; }

private:
  std::string Name;
  Type *Ty;
  unsigned Id;
  bool IsAtomic;
};

/// A free function or a class method. For methods, parameter 0 is the
/// implicit receiver named "this".
class Function {
public:
  Function(std::string Name, Type *RetTy, Module &Parent, unsigned Id)
      : Name(std::move(Name)), RetTy(RetTy), ParentModule(Parent), Id(Id) {}

  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  const std::string &getName() const { return Name; }
  Module &getModule() const { return ParentModule; }
  unsigned getId() const { return Id; }

  /// Declared return type; null for void functions.
  Type *getReturnType() const { return RetTy; }

  /// Declaring class if this is a method; null for free functions.
  ClassType *getClass() const { return Class; }
  void setClass(ClassType *C) { Class = C; }
  bool isMethod() const { return Class != nullptr; }

  /// Creates a parameter. For methods, the receiver parameter "this" must
  /// be created first.
  Variable *addParam(const std::string &ParamName, Type *Ty);

  /// Creates a local variable.
  Variable *addLocal(const std::string &LocalName, Type *Ty);

  /// Returns the variable that return statements write into, creating it
  /// lazily. Null if the function returns void.
  Variable *getReturnVar();

  /// Finds a parameter or local by name; null if absent.
  Variable *findVariable(std::string_view VarName) const;

  const std::vector<Variable *> &params() const { return Params; }
  const std::vector<std::unique_ptr<Variable>> &variables() const {
    return Vars;
  }

  const std::vector<std::unique_ptr<Stmt>> &body() const { return Body; }
  size_t size() const { return Body.size(); }
  bool empty() const { return Body.empty(); }

  /// Appends a statement; used by IRBuilder. Takes ownership.
  Stmt *append(std::unique_ptr<Stmt> S) {
    Body.push_back(std::move(S));
    return Body.back().get();
  }

private:
  std::string Name;
  Type *RetTy;
  Module &ParentModule;
  unsigned Id;
  ClassType *Class = nullptr;
  std::vector<Variable *> Params;
  std::vector<std::unique_ptr<Variable>> Vars;
  std::vector<uint32_t> VarHashes; ///< name hash of Vars[I]
  Variable *RetVar = nullptr;
  std::vector<std::unique_ptr<Stmt>> Body;
};

} // namespace o2

#endif // O2_IR_FUNCTION_H
