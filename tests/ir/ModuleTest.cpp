//===- ModuleTest.cpp - Module/Type/Function unit tests ----------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Module.h"

#include "o2/Support/Casting.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

TEST(ModuleTest, AddAndFindClass) {
  Module M;
  ClassType *A = M.addClass("A");
  EXPECT_EQ(M.findClass("A"), A);
  EXPECT_EQ(M.findClass("B"), nullptr);
  EXPECT_EQ(A->getSuper(), nullptr);
}

TEST(ModuleTest, SubclassChain) {
  Module M;
  ClassType *A = M.addClass("A");
  ClassType *B = M.addClass("B", A);
  ClassType *C = M.addClass("C", B);
  EXPECT_TRUE(C->isSubclassOf(A));
  EXPECT_TRUE(C->isSubclassOf(C));
  EXPECT_FALSE(A->isSubclassOf(C));
}

TEST(ModuleTest, FieldInheritanceAndIdentity) {
  Module M;
  ClassType *A = M.addClass("A");
  Field *F = A->addField("f", M.getIntType());
  ClassType *B = M.addClass("B", A);
  EXPECT_EQ(B->findField("f"), F);
  EXPECT_EQ(F->getParent(), A);
  Field *G = B->addField("g", A);
  EXPECT_NE(F->getId(), G->getId());
  EXPECT_EQ(A->findField("g"), nullptr);
}

TEST(ModuleTest, MethodDispatchWithOverride) {
  Module M;
  ClassType *A = M.addClass("A");
  ClassType *B = M.addClass("B", A);
  Function *RunA = M.addFunction("run");
  A->addMethod(RunA);
  Function *RunB = M.addFunction("run");
  B->addMethod(RunB);
  EXPECT_EQ(A->findMethod("run"), RunA);
  EXPECT_EQ(B->findMethod("run"), RunB);
  EXPECT_EQ(RunA->getClass(), A);
  EXPECT_EQ(RunB->getClass(), B);
}

TEST(ModuleTest, MethodInherited) {
  Module M;
  ClassType *A = M.addClass("A");
  ClassType *B = M.addClass("B", A);
  Function *Run = M.addFunction("run");
  A->addMethod(Run);
  EXPECT_EQ(B->findMethod("run"), Run);
  EXPECT_EQ(B->findMethod("stop"), nullptr);
}

TEST(ModuleTest, ArrayTypesAreUnique) {
  Module M;
  ClassType *A = M.addClass("A");
  ArrayType *T1 = M.getArrayType(A);
  ArrayType *T2 = M.getArrayType(A);
  EXPECT_EQ(T1, T2);
  EXPECT_EQ(T1->getElementType(), A);
  EXPECT_EQ(T1->getName(), "A[]");
  ArrayType *Nested = M.getArrayType(T1);
  EXPECT_EQ(Nested->getName(), "A[][]");
  EXPECT_NE(Nested, T1);
}

TEST(ModuleTest, GlobalsHaveDenseIds) {
  Module M;
  Global *G0 = M.addGlobal("g0", M.getIntType());
  Global *G1 = M.addGlobal("g1", M.getIntType());
  EXPECT_EQ(G0->getId(), 0u);
  EXPECT_EQ(G1->getId(), 1u);
  EXPECT_EQ(M.findGlobal("g0"), G0);
  EXPECT_EQ(M.numGlobals(), 2u);
}

TEST(ModuleTest, FunctionVariablesAndParams) {
  Module M;
  ClassType *A = M.addClass("A");
  Function *F = M.addFunction("f", A);
  Variable *P = F->addParam("p", A);
  Variable *L = F->addLocal("l", M.getIntType());
  EXPECT_TRUE(P->isParam());
  EXPECT_FALSE(L->isParam());
  EXPECT_EQ(F->findVariable("p"), P);
  EXPECT_EQ(F->findVariable("l"), L);
  EXPECT_EQ(F->findVariable("q"), nullptr);
  EXPECT_NE(P->getId(), L->getId());
}

TEST(ModuleTest, ReturnVarLazyAndTyped) {
  Module M;
  ClassType *A = M.addClass("A");
  Function *F = M.addFunction("f", A);
  Variable *R1 = F->getReturnVar();
  Variable *R2 = F->getReturnVar();
  EXPECT_EQ(R1, R2);
  EXPECT_EQ(R1->getType(), A);

  Function *V = M.addFunction("v");
  EXPECT_EQ(V->getReturnVar(), nullptr);
}

TEST(ModuleTest, FindFunctionSkipsMethods) {
  Module M;
  ClassType *A = M.addClass("A");
  Function *Free = M.addFunction("work");
  Function *Method = M.addFunction("work");
  A->addMethod(Method);
  EXPECT_EQ(M.findFunction("work"), Free);
}

TEST(ModuleTest, FindFunctionSeesFreeFunctionsCreatedAroundMethods) {
  // Methods are created as functions and attached afterwards, so the
  // name index must drop a function once it becomes a method and fall
  // back to the next same-named free function.
  Module M;
  ClassType *A = M.addClass("A");
  Function *Method = M.addFunction("work");
  Function *Free = M.addFunction("work");
  Function *Later = M.addFunction("work");
  EXPECT_EQ(M.findFunction("work"), Method);
  A->addMethod(Method);
  EXPECT_EQ(M.findFunction("work"), Free);
  M.addClass("C")->addMethod(Free);
  EXPECT_EQ(M.findFunction("work"), Later);
  Function *Solo = M.addFunction("solo");
  A->addMethod(Solo);
  EXPECT_EQ(M.findFunction("solo"), nullptr);
}

TEST(ModuleTest, DenseIdsAndIndexes) {
  Module M;
  ClassType *A = M.addClass("A");
  ClassType *B = M.addClass("B", A);
  EXPECT_EQ(A->getId(), 0u);
  EXPECT_EQ(B->getId(), 1u);
  Function *F = M.addFunction("f", A);
  Variable *P = F->addParam("p", A);
  Variable *L = F->addLocal("l", M.getIntType());
  Variable *R = F->getReturnVar();
  EXPECT_EQ(P->getIndex(), 0u);
  EXPECT_EQ(L->getIndex(), 1u);
  EXPECT_EQ(R->getIndex(), 2u);
  EXPECT_EQ(F->findVariable("$ret"), R);
}

TEST(ModuleTest, TypeKinds) {
  Module M;
  ClassType *A = M.addClass("A");
  EXPECT_TRUE(isa<IntType>(M.getIntType()));
  EXPECT_TRUE(isa<ClassType>(A));
  EXPECT_TRUE(isa<ArrayType>(M.getArrayType(A)));
  EXPECT_FALSE(M.getIntType()->isReference());
  EXPECT_TRUE(A->isReference());
}

TEST(ModuleTest, MainLookup) {
  Module M;
  EXPECT_EQ(M.getMain(), nullptr);
  Function *Main = M.addFunction("main");
  EXPECT_EQ(M.getMain(), Main);
}

} // namespace
