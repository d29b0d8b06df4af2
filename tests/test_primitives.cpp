// Property tests for the parallel reduce against its sequential
// definition, swept over sizes with parameterized gtest, and for the
// seeded random generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/parallel/primitives.hpp"
#include "src/parallel/random.hpp"

namespace cp = cordon::parallel;

class PrimitiveSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrimitiveSweep, ReduceMatchesAccumulate) {
  const std::size_t n = GetParam();
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = cp::hash64(1, i) % 1000;
  std::uint64_t expected = std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  EXPECT_EQ(cp::reduce(0, n, [&](std::size_t i) { return v[i]; }),
            expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrimitiveSweep,
                         ::testing::Values(0, 1, 2, 7, 100, 2048, 2049, 50000,
                                           100001));

TEST(Random, Hash64Deterministic) {
  EXPECT_EQ(cp::hash64(42, 7), cp::hash64(42, 7));
  EXPECT_NE(cp::hash64(42, 7), cp::hash64(42, 8));
}

TEST(Random, PermutationIsPermutation) {
  auto p = cp::random_permutation(1000, 9);
  std::vector<std::uint32_t> sorted(p);
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i], i);
}
