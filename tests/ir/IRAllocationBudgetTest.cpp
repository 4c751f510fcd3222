//===- IRAllocationBudgetTest.cpp - heap allocations per statement ------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// A Module holds its IR in arena slabs, so building a module — through
// IRBuilder in the workload generator, or through the parser — makes at
// most one heap allocation per 8 statements. This executable replaces the
// global operator new to count them, which is why it is kept apart from
// every other test binary.
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Parser.h"
#include "o2/IR/Printer.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <type_traits>

namespace {
std::atomic<bool> Counting{false};
std::atomic<uint64_t> NumAllocations{0};
} // namespace

// GCC sees the replaced delete free() memory from new expressions it
// inlined and warns; the pair below is consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *operator new(size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    NumAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](size_t Size) { return ::operator new(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }

using namespace o2;

// The arena runs no destructors: everything it holds must need none.
static_assert(std::is_trivially_destructible_v<AllocStmt>);
static_assert(std::is_trivially_destructible_v<ArrayAllocStmt>);
static_assert(std::is_trivially_destructible_v<AssignStmt>);
static_assert(std::is_trivially_destructible_v<FieldLoadStmt>);
static_assert(std::is_trivially_destructible_v<FieldStoreStmt>);
static_assert(std::is_trivially_destructible_v<ArrayLoadStmt>);
static_assert(std::is_trivially_destructible_v<ArrayStoreStmt>);
static_assert(std::is_trivially_destructible_v<GlobalLoadStmt>);
static_assert(std::is_trivially_destructible_v<GlobalStoreStmt>);
static_assert(std::is_trivially_destructible_v<CallStmt>);
static_assert(std::is_trivially_destructible_v<SpawnStmt>);
static_assert(std::is_trivially_destructible_v<JoinStmt>);
static_assert(std::is_trivially_destructible_v<AcquireStmt>);
static_assert(std::is_trivially_destructible_v<ReleaseStmt>);
static_assert(std::is_trivially_destructible_v<ReturnStmt>);
static_assert(std::is_trivially_destructible_v<Variable>);
static_assert(std::is_trivially_destructible_v<Global>);
static_assert(std::is_trivially_destructible_v<Function>);
static_assert(std::is_trivially_destructible_v<Field>);
static_assert(std::is_trivially_destructible_v<ClassType>);
static_assert(std::is_trivially_destructible_v<ArrayType>);

namespace {

constexpr uint64_t StmtsPerAllocation = 8;

class IRAllocationBudget : public ::testing::TestWithParam<std::string> {};

TEST_P(IRAllocationBudget, GeneratorPathAllocatesOncePer8Statements) {
  NumAllocations = 0;
  Counting = true;
  std::unique_ptr<Module> M = generateWorkload(profileNamed(GetParam()));
  Counting = false;
  uint64_t Allocations = NumAllocations;
  uint64_t Stmts = M->numProgramStmts();
  EXPECT_GT(Allocations, 0u) << "the counting operator new is not in use";
  EXPECT_LE(Allocations * StmtsPerAllocation, Stmts)
      << GetParam() << ": " << Allocations << " allocations for " << Stmts
      << " statements";
}

TEST_P(IRAllocationBudget, ParserPathAllocatesOncePer8Statements) {
  std::string Text = printModule(*generateWorkload(profileNamed(GetParam())));
  std::string Err;
  NumAllocations = 0;
  Counting = true;
  std::unique_ptr<Module> M = parseModule(Text, Err, GetParam());
  Counting = false;
  ASSERT_TRUE(M) << Err;
  uint64_t Allocations = NumAllocations;
  uint64_t Stmts = M->numProgramStmts();
  EXPECT_GT(Allocations, 0u) << "the counting operator new is not in use";
  EXPECT_LE(Allocations * StmtsPerAllocation, Stmts)
      << GetParam() << ": " << Allocations << " allocations for " << Stmts
      << " statements";
}

INSTANTIATE_TEST_SUITE_P(Table5, IRAllocationBudget,
                         ::testing::Values("telegram", "chrome"),
                         [](const auto &Info) { return Info.param; });

} // namespace
