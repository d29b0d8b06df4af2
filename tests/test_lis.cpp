// LIS: naive / optimized-sequential / parallel / routed agreement + Thm 3.1
// structural properties (rounds == LIS length, work bounds).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/lis/lis.hpp"
#include "src/parallel/random.hpp"
#include "test_util.hpp"

using cordon::lis::lis_naive;
using cordon::lis::lis_parallel;
using cordon::lis::lis_sequential;

struct LisCase {
  std::size_t n;
  std::uint64_t seed;
  std::uint64_t bound;  // value range controls duplicate density
};

class LisSweep : public ::testing::TestWithParam<LisCase> {};

TEST_P(LisSweep, AllThreeAlgorithmsAgreePerState) {
  auto [n, seed, bound] = GetParam();
  auto a = cordon::testing::random_values(n, seed, bound);
  auto nv = lis_naive(a);
  auto sv = lis_sequential(a);
  auto pv = lis_parallel(a);
  EXPECT_EQ(nv.length, sv.length);
  EXPECT_EQ(nv.length, pv.length);
  ASSERT_EQ(nv.dp.size(), sv.dp.size());
  // Whichever route it takes, the production entry fills the same dp.
  EXPECT_EQ(cordon::lis::lis_auto(a).dp, nv.dp);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(nv.dp[i], sv.dp[i]) << i;
    ASSERT_EQ(nv.dp[i], pv.dp[i]) << i;
  }
  // Thm 3.1: the cordon algorithm runs exactly LIS-length rounds.
  EXPECT_EQ(pv.stats.rounds, pv.length);
  // Work efficiency: every state is touched exactly once.
  EXPECT_EQ(pv.stats.states, n);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LisSweep,
    ::testing::Values(LisCase{1, 1, 10}, LisCase{2, 2, 2}, LisCase{10, 3, 5},
                      LisCase{100, 4, 1000}, LisCase{100, 5, 7},
                      LisCase{1000, 6, 1000000}, LisCase{1000, 7, 3},
                      LisCase{5000, 8, 50}));

TEST(Lis, EmptyInput) {
  std::vector<std::uint64_t> a;
  EXPECT_EQ(lis_parallel(a).length, 0u);
  EXPECT_EQ(lis_sequential(a).length, 0u);
}

TEST(Lis, StrictlyIncreasingIsWholeSequence) {
  std::vector<std::uint64_t> a(300);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = i * 2;
  auto pv = lis_parallel(a);
  EXPECT_EQ(pv.length, a.size());
  EXPECT_EQ(pv.stats.rounds, a.size());  // worst-case depth: no parallelism
}

TEST(Lis, DecreasingFinishesInOneRound) {
  std::vector<std::uint64_t> a(300);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 1000 - i;
  auto pv = lis_parallel(a);
  EXPECT_EQ(pv.length, 1u);
  EXPECT_EQ(pv.stats.rounds, 1u);  // perfect parallelism
}

TEST(Lis, AllEqualValues) {
  std::vector<std::uint64_t> a(50, 42);
  auto pv = lis_parallel(a);
  EXPECT_EQ(pv.length, 1u);  // strictly increasing => duplicates break chains
  EXPECT_EQ(lis_naive(a).length, 1u);
}

TEST(Lis, WitnessIsAValidIncreasingSubsequence) {
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    auto a = cordon::testing::random_values(500, seed, 40);  // many dups
    auto res = lis_parallel(a);
    auto wit = cordon::lis::lis_witness(a, res);
    ASSERT_EQ(wit.size(), res.length);
    for (std::size_t k = 1; k < wit.size(); ++k) {
      ASSERT_LT(wit[k - 1], wit[k]);          // increasing indices
      ASSERT_LT(a[wit[k - 1]], a[wit[k]]);    // strictly increasing values
    }
  }
}

TEST(Lis, SequentialWorkIsOnePerState) {
  auto a = cordon::testing::random_values(2000, 11, 100000);
  auto sv = lis_sequential(a);
  EXPECT_EQ(sv.stats.relaxations, a.size());  // one effective edge per state
}
