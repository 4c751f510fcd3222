//===- Module.cpp - OIR module, types, and functions ----------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Module.h"

#include "o2/Support/Compiler.h"

using namespace o2;

/// A 32-bit FNV-1a hash of a declared name. Name lookups scan a compact
/// array of these before comparing any string.
static uint32_t hashName(std::string_view Name) {
  uint32_t H = 2166136261u;
  for (char C : Name)
    H = (H ^ static_cast<unsigned char>(C)) * 16777619u;
  return H;
}

//===----------------------------------------------------------------------===//
// ClassType
//===----------------------------------------------------------------------===//

Field *ClassType::addField(const std::string &FieldName, Type *Ty,
                           bool IsAtomic) {
  assert(!findField(FieldName) && "field redeclared along superclass chain");
  Fields.push_back(std::make_unique<Field>(
      FieldName, Ty, this, ParentModule.takeFieldId(), IsAtomic));
  FieldHashes.push_back(hashName(FieldName));
  return Fields.back().get();
}

void ClassType::addMethod(Function *Method) {
  assert(Method && "null method");
  assert(!Method->isMethod() && "function already attached to a class");
  Method->setClass(this);
  Methods.push_back(Method);
  MethodHashes.push_back(hashName(Method->getName()));
  ParentModule.forgetFreeFunction(Method);
}

Field *ClassType::findField(std::string_view FieldName) const {
  const uint32_t H = hashName(FieldName);
  for (const ClassType *C = this; C; C = C->Super)
    for (size_t I = 0, E = C->FieldHashes.size(); I != E; ++I)
      if (C->FieldHashes[I] == H && C->Fields[I]->getName() == FieldName)
        return C->Fields[I].get();
  return nullptr;
}

Function *ClassType::findMethod(std::string_view MethodName) const {
  const uint32_t H = hashName(MethodName);
  for (const ClassType *C = this; C; C = C->Super)
    for (size_t I = 0, E = C->MethodHashes.size(); I != E; ++I)
      if (C->MethodHashes[I] == H && C->Methods[I]->getName() == MethodName)
        return C->Methods[I];
  return nullptr;
}

bool ClassType::isSubclassOf(const ClassType *Other) const {
  for (const ClassType *C = this; C; C = C->Super)
    if (C == Other)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Function
//===----------------------------------------------------------------------===//

Variable *Function::addParam(const std::string &ParamName, Type *Ty) {
  assert(!findVariable(ParamName) && "parameter name already in use");
  Vars.push_back(std::make_unique<Variable>(
      ParamName, Ty, this, ParentModule.takeVarId(),
      static_cast<unsigned>(Vars.size()), /*IsParam=*/true));
  VarHashes.push_back(hashName(ParamName));
  Params.push_back(Vars.back().get());
  return Vars.back().get();
}

Variable *Function::addLocal(const std::string &LocalName, Type *Ty) {
  assert(!findVariable(LocalName) && "local name already in use");
  Vars.push_back(std::make_unique<Variable>(
      LocalName, Ty, this, ParentModule.takeVarId(),
      static_cast<unsigned>(Vars.size()), /*IsParam=*/false));
  VarHashes.push_back(hashName(LocalName));
  return Vars.back().get();
}

Variable *Function::getReturnVar() {
  if (!RetTy)
    return nullptr;
  if (!RetVar) {
    Vars.push_back(std::make_unique<Variable>(
        "$ret", RetTy, this, ParentModule.takeVarId(),
        static_cast<unsigned>(Vars.size()), /*IsParam=*/false));
    VarHashes.push_back(hashName("$ret"));
    RetVar = Vars.back().get();
  }
  return RetVar;
}

Variable *Function::findVariable(std::string_view VarName) const {
  const uint32_t H = hashName(VarName);
  for (size_t I = 0, E = VarHashes.size(); I != E; ++I)
    if (VarHashes[I] == H && Vars[I]->getName() == VarName)
      return Vars[I].get();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

ClassType *Module::addClass(const std::string &ClassName, ClassType *Super) {
  assert(!findClass(ClassName) && "class name already in use");
  Classes.push_back(std::make_unique<ClassType>(
      ClassName, Super, *this, static_cast<unsigned>(Classes.size())));
  ClassType *C = Classes.back().get();
  ClassByName.emplace(C->getName(), C);
  return C;
}

ArrayType *Module::getArrayType(Type *Elem) {
  auto &Slot = ArrayTypes[Elem];
  if (!Slot)
    Slot = std::make_unique<ArrayType>(Elem);
  return Slot.get();
}

Global *Module::addGlobal(const std::string &GlobalName, Type *Ty,
                          bool IsAtomic) {
  assert(!findGlobal(GlobalName) && "global name already in use");
  Globals.push_back(std::make_unique<Global>(
      GlobalName, Ty, static_cast<unsigned>(Globals.size()), IsAtomic));
  Global *G = Globals.back().get();
  GlobalByName.emplace(G->getName(), G);
  return G;
}

Function *Module::addFunction(const std::string &FuncName, Type *RetTy) {
  Functions.push_back(
      std::make_unique<Function>(FuncName, RetTy, *this, NextFuncId++));
  Function *F = Functions.back().get();
  // A later same-named free function stays behind the first one.
  if (!FunctionByName.emplace(F->getName(), F).second)
    HasShadowedFunctions = true;
  return F;
}

void Module::forgetFreeFunction(Function *F) {
  auto It = FunctionByName.find(F->getName());
  if (It == FunctionByName.end() || It->second != F)
    return;
  FunctionByName.erase(It);
  if (!HasShadowedFunctions)
    return;
  // Promote the next same-named free function, if any.
  for (const auto &Other : Functions)
    if (!Other->isMethod() && Other->getName() == F->getName()) {
      FunctionByName.emplace(Other->getName(), Other.get());
      return;
    }
}

ClassType *Module::findClass(std::string_view ClassName) const {
  auto It = ClassByName.find(ClassName);
  return It == ClassByName.end() ? nullptr : It->second;
}

Global *Module::findGlobal(std::string_view GlobalName) const {
  auto It = GlobalByName.find(GlobalName);
  return It == GlobalByName.end() ? nullptr : It->second;
}

Function *Module::findFunction(std::string_view FuncName) const {
  auto It = FunctionByName.find(FuncName);
  return It == FunctionByName.end() ? nullptr : It->second;
}

unsigned Module::numProgramStmts() const {
  unsigned N = 0;
  for (const auto &F : Functions)
    N += static_cast<unsigned>(F->size());
  return N;
}
