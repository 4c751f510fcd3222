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

//===----------------------------------------------------------------------===//
// ClassType
//===----------------------------------------------------------------------===//

Field *ClassType::addField(std::string_view FieldName, Type *Ty,
                           bool IsAtomic) {
  assert(!findField(FieldName) && "field redeclared along superclass chain");
  Module &M = ParentModule;
  Field *Fld = M.create<Field>(M.saveString(FieldName), Ty, this,
                               M.takeFieldId(), IsAtomic);
  Fields.push_back(Fld, M.arena());
  FieldHashes.push_back(hashName(FieldName), M.arena());
  return Fld;
}

void ClassType::addMethod(Function *Method) {
  assert(Method && "null method");
  assert(!Method->isMethod() && "function already attached to a class");
  Method->setClass(this);
  Methods.push_back(Method, ParentModule.arena());
  MethodHashes.push_back(hashName(Method->getName()), ParentModule.arena());
  ParentModule.forgetFreeFunction(Method);
}

Field *ClassType::findField(std::string_view FieldName) const {
  const uint32_t H = hashName(FieldName);
  for (const ClassType *C = this; C; C = C->Super)
    for (size_t I = 0, E = C->FieldHashes.size(); I != E; ++I)
      if (C->FieldHashes[I] == H && C->Fields[I]->getName() == FieldName)
        return C->Fields[I];
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

Variable *Function::addVariable(std::string_view VarName, Type *Ty,
                                bool IsParam) {
  Module &M = ParentModule;
  Variable *V = M.create<Variable>(M.saveString(VarName), Ty, this,
                                   M.takeVarId(),
                                   static_cast<unsigned>(Vars.size()), IsParam);
  Vars.push_back(V, M.arena());
  VarHashes.push_back(hashName(VarName), M.arena());
  return V;
}

Variable *Function::addParam(std::string_view ParamName, Type *Ty) {
  assert(!findVariable(ParamName) && "parameter name already in use");
  Variable *V = addVariable(ParamName, Ty, /*IsParam=*/true);
  Params.push_back(V, ParentModule.arena());
  return V;
}

Variable *Function::addLocal(std::string_view LocalName, Type *Ty) {
  assert(!findVariable(LocalName) && "local name already in use");
  return addVariable(LocalName, Ty, /*IsParam=*/false);
}

Variable *Function::getReturnVar() {
  if (!RetTy)
    return nullptr;
  if (!RetVar)
    RetVar = addVariable("$ret", RetTy, /*IsParam=*/false);
  return RetVar;
}

Variable *Function::findVariable(std::string_view VarName) const {
  const uint32_t H = hashName(VarName);
  for (size_t I = 0, E = VarHashes.size(); I != E; ++I)
    if (VarHashes[I] == H && Vars[I]->getName() == VarName)
      return Vars[I];
  return nullptr;
}

void Function::append(Stmt *S) {
  assert(S->getFunction() == this && S->getIndex() == Body.size() &&
         "statements are appended in body order");
  Body.push_back(S, ParentModule.arena());
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

ClassType *Module::addClass(std::string_view ClassName, ClassType *Super) {
  assert(!findClass(ClassName) && "class name already in use");
  ClassType *C = create<ClassType>(saveString(ClassName), Super, *this,
                                   static_cast<unsigned>(Classes.size()));
  Classes.push_back(C);
  ClassByName.insert(C);
  return C;
}

ArrayType *Module::getArrayType(Type *Elem) {
  if (!Elem->ArrayOf) {
    std::string Name = Elem->getName() + "[]";
    Elem->ArrayOf = create<ArrayType>(saveString(Name), Elem);
  }
  return Elem->ArrayOf;
}

Global *Module::addGlobal(std::string_view GlobalName, Type *Ty,
                          bool IsAtomic) {
  assert(!findGlobal(GlobalName) && "global name already in use");
  Global *G = create<Global>(saveString(GlobalName), Ty,
                             static_cast<unsigned>(Globals.size()), IsAtomic);
  Globals.push_back(G);
  GlobalByName.insert(G);
  return G;
}

Function *Module::addFunction(std::string_view FuncName, Type *RetTy) {
  Function *F =
      create<Function>(saveString(FuncName), RetTy, *this, NextFuncId++);
  Functions.push_back(F);
  // A later same-named free function stays behind the first one.
  if (!FunctionByName.insert(F))
    HasShadowedFunctions = true;
  return F;
}

void Module::forgetFreeFunction(Function *F) {
  if (FunctionByName.find(F->getName()) != F)
    return;
  FunctionByName.erase(F);
  if (!HasShadowedFunctions)
    return;
  // Promote the next same-named free function, if any.
  for (Function *Other : Functions)
    if (!Other->isMethod() && Other->getName() == F->getName()) {
      FunctionByName.insert(Other);
      return;
    }
}

ClassType *Module::findClass(std::string_view ClassName) const {
  return ClassByName.find(ClassName);
}

Global *Module::findGlobal(std::string_view GlobalName) const {
  return GlobalByName.find(GlobalName);
}

Function *Module::findFunction(std::string_view FuncName) const {
  return FunctionByName.find(FuncName);
}

unsigned Module::numProgramStmts() const {
  unsigned N = 0;
  for (const auto &F : Functions)
    N += static_cast<unsigned>(F->size());
  return N;
}
