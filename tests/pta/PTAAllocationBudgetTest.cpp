//===- PTAAllocationBudgetTest.cpp - allocations per pointer node -------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The pointer analysis keeps one-word points-to sets, short successor and
// use lists and each call slot's first target inline, so a whole OPA run
// makes at most one heap allocation per pointer node. This executable
// replaces the global operator new to count them, which is why it is kept
// apart from every other test binary.
//
//===----------------------------------------------------------------------===//

#include "o2/PTA/PointerAnalysis.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

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

namespace {

class PTAAllocationBudget : public ::testing::TestWithParam<std::string> {};

TEST_P(PTAAllocationBudget, AtMostOneAllocationPerPointerNode) {
  auto M = generateWorkload(profileNamed(GetParam()));
  PTAOptions Opts; // OPA
  NumAllocations = 0;
  Counting = true;
  std::unique_ptr<PTAResult> R = runPointerAnalysis(*M, Opts);
  Counting = false;
  uint64_t Allocations = NumAllocations;
  uint64_t Nodes = R->stats().get("pta.pointer-nodes");
  ASSERT_FALSE(R->hitBudget());
  EXPECT_GT(Allocations, 0u) << "the counting operator new is not in use";
  EXPECT_LE(Allocations, Nodes)
      << GetParam() << ": " << Allocations << " allocations for " << Nodes
      << " pointer nodes";
}

INSTANTIATE_TEST_SUITE_P(Table5, PTAAllocationBudget,
                         ::testing::Values("telegram", "chrome"),
                         [](const auto &Info) { return Info.param; });

} // namespace
