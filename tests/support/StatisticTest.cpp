//===- StatisticTest.cpp - StatisticRegistry unit tests ----------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/Statistic.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using o2::StatisticRegistry;

namespace {

TEST(StatisticTest, StartsEmpty) {
  StatisticRegistry R;
  EXPECT_TRUE(R.empty());
  EXPECT_EQ(R.get("anything"), 0u);
}

TEST(StatisticTest, AddAndGet) {
  StatisticRegistry R;
  R.add("pta.edges");
  R.add("pta.edges", 4);
  EXPECT_EQ(R.get("pta.edges"), 5u);
}

TEST(StatisticTest, SetOverrides) {
  StatisticRegistry R;
  R.add("x", 10);
  R.set("x", 3);
  EXPECT_EQ(R.get("x"), 3u);
}

TEST(StatisticTest, PrintSortedByName) {
  // Reports print the counters in this order, so it must not depend on
  // the order they were added in.
  StatisticRegistry R;
  R.add("zeta", 1);
  R.add("alpha", 2);
  std::vector<std::pair<std::string, uint64_t>> Got(R.counters().begin(),
                                                    R.counters().end());
  std::vector<std::pair<std::string, uint64_t>> Want = {{"alpha", 2},
                                                        {"zeta", 1}};
  EXPECT_EQ(Got, Want);
}

TEST(StatisticTest, MergeAddsEveryCounter) {
  StatisticRegistry A;
  A.add("shared", 2);
  A.add("only-a", 1);
  StatisticRegistry B;
  B.add("shared", 3);
  B.add("only-b", 7);
  A.merge(B);
  EXPECT_EQ(A.get("shared"), 5u);
  EXPECT_EQ(A.get("only-a"), 1u);
  EXPECT_EQ(A.get("only-b"), 7u);
  // The source registry is untouched.
  EXPECT_EQ(B.get("shared"), 3u);
  EXPECT_EQ(B.get("only-a"), 0u);
}

} // namespace
