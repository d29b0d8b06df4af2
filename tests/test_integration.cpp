// Cross-module integration: the public API composed the way the examples
// and benchmarks use it.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/gap/gap.hpp"
#include "src/glws/costs.hpp"
#include "src/glws/glws.hpp"
#include "src/kglws/kglws.hpp"
#include "src/lcs/lcs.hpp"
#include "src/lis/lis.hpp"
#include "src/oat/oat.hpp"
#include "src/parallel/random.hpp"

namespace cp = cordon::parallel;

TEST(Integration, LineBreakingMatchesNaiveDp) {
  // Knuth-Plass line breaking as convex GLWS: words with random widths,
  // line width 60.
  const std::size_t n = 200;
  auto wp = std::make_shared<std::vector<double>>(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i)
    (*wp)[i] = (*wp)[i - 1] + 3.0 + cp::uniform_double(3, i) * 9.0 + 1.0;
  auto w = cordon::glws::line_break_cost(wp, 60.0);
  auto e = cordon::glws::identity_e();
  auto nv = cordon::glws::glws_naive(n, 0.0, w, e);
  auto pv = cordon::glws::glws_parallel(n, 0.0, w, e,
                                        cordon::glws::Shape::kConvex);
  for (std::size_t i = 0; i <= n; ++i) ASSERT_NEAR(nv.d[i], pv.d[i], 1e-6);
}

TEST(Integration, KMeans1dViaKglwsIsOptimal) {
  // 1D k-means on three well-separated blobs with k=3 must cut at the
  // blob boundaries.
  std::vector<double> x{0.0};  // 1-indexed
  for (int c = 0; c < 3; ++c)
    for (int i = 0; i < 10; ++i)
      x.push_back(c * 100.0 + i * 0.5);
  auto cost = cordon::glws::squared_distance_cost(x);
  cordon::glws::CostFn w = [cost](std::size_t j, std::size_t i) {
    return cost(j, i);
  };
  auto cuts = cordon::kglws::kglws_backtrack(30, 3, w);
  EXPECT_EQ(cuts, (std::vector<std::uint32_t>{0, 10, 20, 30}));
}

TEST(Integration, DiffSizesViaSparseLcs) {
  // Line-based diff: LCS length of two "files" determines the number of
  // changed lines; deleting one line from a file keeps LCS = n-1.
  std::vector<std::uint32_t> file1(100);
  for (std::size_t i = 0; i < 100; ++i)
    file1[i] = static_cast<std::uint32_t>(cp::hash64(1, i) % 1000000);
  std::vector<std::uint32_t> file2 = file1;
  file2.erase(file2.begin() + 42);
  auto pairs = cordon::lcs::match_pairs_soa(file1, file2);
  auto res = cordon::lcs::lcs_parallel(pairs);
  EXPECT_EQ(res.length, 99u);
}

TEST(Integration, AlphabeticCodeIsPrefixFreeAndNearEntropy) {
  // An alphabetic code built from an OAT: codeword lengths = leaf levels
  // satisfy Kraft's inequality with equality (full binary tree).
  const std::size_t n = 128;
  std::vector<double> freq(n);
  for (std::size_t i = 0; i < n; ++i)
    freq[i] = 1.0 + static_cast<double>(cp::hash64(9, i) % 1000);
  auto oat = cordon::oat::oat_garsia_wachs(freq);
  double kraft = 0;
  for (auto lv : oat.levels) kraft += std::pow(0.5, lv);
  EXPECT_NEAR(kraft, 1.0, 1e-9);
  // Alphabetic codes are within 2 bits of entropy on average.
  double total = 0, entropy = 0, avg_len = 0;
  for (double f : freq) total += f;
  for (std::size_t i = 0; i < n; ++i) {
    double p = freq[i] / total;
    entropy -= p * std::log2(p);
    avg_len += p * oat.levels[i];
  }
  EXPECT_LE(avg_len, entropy + 2.0);
}

TEST(Integration, GapWithHugeGapCostsDegeneratesToLcsStructure) {
  // When gaps are extremely expensive and strings share a long common
  // subsequence as prefix/suffix alignment, the DP still matches naive.
  std::vector<std::uint32_t> a{1, 2, 3, 4, 5, 6};
  std::vector<std::uint32_t> b{1, 2, 9, 4, 5, 6};
  auto w = cordon::gap::affine_gap_cost(2.0, 0.5);
  auto nv = cordon::gap::gap_naive(a, b, w, w);
  auto pv = cordon::gap::gap_parallel(a, b, w, w,
                                      cordon::glws::Shape::kConvex);
  EXPECT_NEAR(nv.distance, pv.distance, 1e-9);
  // One substitution = delete one symbol in each string: 2 * (2 + 0.5).
  EXPECT_NEAR(nv.distance, 5.0, 1e-9);
}

TEST(Integration, StatsComposeAcrossAlgorithms) {
  cordon::core::DpStats total;
  auto lis = cordon::lis::lis_parallel({5, 1, 4, 2, 3});
  total += lis.stats;
  auto x = std::make_shared<std::vector<double>>(
      std::vector<double>{0, 1, 2, 3, 4, 5});
  auto w = cordon::glws::post_office_cost(x, 2.0);
  auto g = cordon::glws::glws_parallel(5, 0.0, w, cordon::glws::identity_e(),
                                       cordon::glws::Shape::kConvex);
  total += g.stats;
  EXPECT_GT(total.states, 0u);
  EXPECT_GT(total.rounds, 0u);
}
