//===- o2/IR/Module.h - OIR whole-program module -----------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Module: the whole program — classes, globals, functions, and the dense
/// ID spaces (variables, fields, globals, allocation sites, call sites,
/// statements) that the analyses index by.
///
/// The Module owns its IR in one arena: every statement, variable, field,
/// class, array type, global and function, each function's body and
/// variable arrays, every argument list, and one string pool for all
/// names. Pointers, ArrayRefs and StringRefs into the IR stay valid as
/// long as the Module; destroying it frees the slabs and runs no
/// per-object destructor.
///
//===----------------------------------------------------------------------===//

#ifndef O2_IR_MODULE_H
#define O2_IR_MODULE_H

#include "o2/IR/Function.h"
#include "o2/IR/NameIndex.h"
#include "o2/IR/Type.h"
#include "o2/Support/Arena.h"

#include <string>
#include <string_view>
#include <vector>

namespace o2 {

class Module {
public:
  explicit Module(std::string Name = "module") : Name(std::move(Name)) {}

  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  const std::string &getName() const { return Name; }

  /// The unique scalar type.
  IntType *getIntType() { return &IntTy; }

  /// Creates a class; \p Super may be null. The name must be fresh.
  ClassType *addClass(std::string_view ClassName, ClassType *Super = nullptr);

  /// Returns the unique array type over \p Elem.
  ArrayType *getArrayType(Type *Elem);

  /// Creates a global variable. The name must be fresh.
  Global *addGlobal(std::string_view GlobalName, Type *Ty,
                    bool IsAtomic = false);

  /// Creates a free function or (when later attached via
  /// ClassType::addMethod) a method. \p RetTy may be null for void.
  Function *addFunction(std::string_view FuncName, Type *RetTy = nullptr);

  ClassType *findClass(std::string_view ClassName) const;
  Global *findGlobal(std::string_view GlobalName) const;

  /// Finds a free function (not a method) by name; null if absent. With
  /// several same-named free functions, the first one created.
  Function *findFunction(std::string_view FuncName) const;

  /// The program entry point, conventionally named "main".
  Function *getMain() const { return findFunction("main"); }

  ArrayRef<ArenaPtr<ClassType>> classes() const { return Classes; }
  ArrayRef<ArenaPtr<Global>> globals() const { return Globals; }
  ArrayRef<ArenaPtr<Function>> functions() const { return Functions; }

  // Dense ID space sizes (exclusive upper bounds).
  unsigned numVariables() const { return NextVarId; }
  unsigned numFields() const { return NextFieldId; }
  unsigned numGlobals() const { return static_cast<unsigned>(Globals.size()); }
  unsigned numAllocSites() const { return NextAllocSite; }
  unsigned numCallSites() const { return NextCallSite; }
  unsigned numStmts() const { return NextStmtId; }

  /// Total number of statements across all functions (program size "p").
  unsigned numProgramStmts() const;

  // ID allocation, used by IR construction code (IRBuilder, Parser).
  unsigned takeVarId() { return NextVarId++; }
  unsigned takeFieldId() { return NextFieldId++; }
  unsigned takeAllocSite() { return NextAllocSite++; }
  unsigned takeCallSite() { return NextCallSite++; }
  unsigned takeStmtId() { return NextStmtId++; }

  /// Makes an IR object in the module's arena.
  template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
    return Arena.create<T>(std::forward<ArgTs>(Args)...);
  }
  /// Copies \p Elems (an argument list) into the arena.
  template <typename T> ArrayRef<T> copyArray(ArrayRef<T> Elems) {
    return Arena.copyArray(Elems);
  }
  /// Copies \p S into the module's string pool.
  StringRef saveString(std::string_view S) { return Arena.copyString(S); }

private:
  std::string Name;
  BumpAllocator Arena;
  IntType IntTy;
  std::vector<ArenaPtr<ClassType>> Classes;
  std::vector<ArenaPtr<Global>> Globals;
  std::vector<ArenaPtr<Function>> Functions;
  NameIndex<ClassType> ClassByName;
  NameIndex<Global> GlobalByName;
  /// Free functions only: ClassType::addMethod drops a function that
  /// becomes a method.
  NameIndex<Function> FunctionByName;
  /// Some function was created under a name FunctionByName already held.
  bool HasShadowedFunctions = false;

  friend class ClassType;
  friend class Function;
  void forgetFreeFunction(Function *F);
  /// Where classes and functions grow their member arrays.
  BumpAllocator &arena() { return Arena; }

  unsigned NextVarId = 0;
  unsigned NextFieldId = 0;
  unsigned NextAllocSite = 0;
  unsigned NextCallSite = 0;
  unsigned NextStmtId = 0;
  unsigned NextFuncId = 0;
};

} // namespace o2

#endif // O2_IR_MODULE_H
