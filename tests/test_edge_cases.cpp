// Cross-cutting edge cases and stress: degenerate sizes, tie-heavy and
// adversarial costs, asymmetric inputs, scheduler stress under real
// contention.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/core/monge.hpp"
#include "src/gap/gap.hpp"
#include "src/glws/costs.hpp"
#include "src/glws/glws.hpp"
#include "src/obst/obst.hpp"
#include "src/parallel/primitives.hpp"
#include "src/parallel/random.hpp"
#include "test_util.hpp"

namespace cp = cordon::parallel;

// ---------------------------------------------------------------- scheduler
TEST(Stress, MixedNestedWorkloads) {
  // Irregular recursion: a parallel reduce of a different size inside
  // each iteration of a fully forked parallel_for, checking every result
  // against its sequential sum and the run against a repeat.
  auto run = [] {
    std::vector<std::uint64_t> sums(32);
    cp::parallel_for(0, sums.size(), [&](std::size_t t) {
      sums[t] = cp::reduce(0, 1000 + t * 2477, [t](std::size_t i) {
        return cp::hash64(t, i) % 97;
      });
    }, /*granularity=*/1);
    return sums;
  };
  const std::vector<std::uint64_t> first = run();
  for (std::size_t t = 0; t < first.size(); ++t) {
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < 1000 + t * 2477; ++i)
      expect += cp::hash64(t, i) % 97;
    ASSERT_EQ(first[t], expect) << t;
  }
  EXPECT_EQ(run(), first);
}

// --------------------------------------------------------------------- glws
TEST(GlwsEdge, ZeroSpanAllTies) {
  // Constant cost: every decision ties; any best[] is optimal but D must
  // be exact and rounds must be 1 (all states ready immediately... the
  // boundary candidate 0 already gives the optimum; no tentative state
  // can improve anything).
  using namespace cordon::glws;
  const std::size_t n = 200;
  CostFn w = [](std::size_t, std::size_t) { return 5.0; };
  auto nv = glws_naive(n, 0.0, w, identity_e());
  auto pv = glws_parallel(n, 0.0, w, identity_e(), Shape::kConvex);
  for (std::size_t i = 0; i <= n; ++i) ASSERT_DOUBLE_EQ(nv.d[i], pv.d[i]);
  EXPECT_EQ(pv.stats.rounds, 1u);
}

TEST(GlwsEdge, NegativeBoundaryAndCosts) {
  using namespace cordon::glws;
  const std::size_t n = 300;
  auto x = cordon::testing::random_positions(n, 7);
  CostFn w = [x](std::size_t j, std::size_t i) {
    double s = (*x)[i] - (*x)[j + 1];
    return -50.0 + 0.01 * s * s;  // negative base cost
  };
  auto nv = glws_naive(n, -10.0, w, identity_e());
  auto sv = glws_sequential(n, -10.0, w, identity_e(), Shape::kConvex);
  auto pv = glws_parallel(n, -10.0, w, identity_e(), Shape::kConvex);
  for (std::size_t i = 0; i <= n; ++i) {
    ASSERT_NEAR(nv.d[i], sv.d[i], 1e-7) << i;
    ASSERT_NEAR(nv.d[i], pv.d[i], 1e-7) << i;
  }
}

TEST(GlwsEdge, HugeOpeningCostSingleCluster) {
  using namespace cordon::glws;
  const std::size_t n = 500;
  auto x = cordon::testing::random_positions(n, 3);
  CostFn w = post_office_cost(x, 1e15);
  auto pv = glws_parallel(n, 0.0, w, identity_e(), Shape::kConvex);
  // One office serves everything: one decision, one round... the chain
  // from n must reach 0 directly.
  EXPECT_EQ(pv.best[n], 0u);
  EXPECT_EQ(pv.stats.rounds, 1u);
}

// ---------------------------------------------------------------------- gap
TEST(GapEdge, VeryAsymmetricStrings) {
  using namespace cordon::gap;
  std::vector<std::uint32_t> a(64);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<std::uint32_t>(cp::uniform(3, i, 4));
  std::vector<std::uint32_t> b{a[5], a[20], a[40]};
  auto w = affine_gap_cost(3.0, 0.5);
  auto nv = gap_naive(a, b, w, w);
  auto pv = gap_parallel(a, b, w, w, cordon::glws::Shape::kConvex);
  for (std::size_t i = 0; i < nv.rows; ++i)
    for (std::size_t j = 0; j < nv.cols; ++j)
      ASSERT_NEAR(nv.at(i, j), pv.at(i, j), 1e-9) << i << "," << j;
}

TEST(GapEdge, UnaryAlphabetEverythingMatches) {
  using namespace cordon::gap;
  std::vector<std::uint32_t> a(30, 1), b(25, 1);
  auto w = quadratic_gap_cost(1.0, 0.1);
  auto nv = gap_naive(a, b, w, w);
  auto sv = gap_seq(a, b, w, w, cordon::glws::Shape::kConvex);
  auto pv = gap_parallel(a, b, w, w, cordon::glws::Shape::kConvex);
  EXPECT_NEAR(nv.distance, sv.distance, 1e-9);
  EXPECT_NEAR(nv.distance, pv.distance, 1e-9);
  // Quadratic gap costs are superadditive, so the optimum interleaves
  // matches and *splits* the 5 deletions across several gaps — it must
  // be at most the single-gap cost w(25, 30) and at least the 5-gap
  // floor of 5 * w(len 1).
  EXPECT_LE(nv.distance, 1.0 + 0.1 * 25.0 + 1e-9);
  EXPECT_NEAR(nv.distance, 3.3, 1e-9);  // 2+3 split: (1+0.4) + (1+0.9)
}

TEST(GapEdge, MixedShapesViaSeparateCosts) {
  // w1 affine, w2 quadratic — still both convex; engines must agree.
  using namespace cordon::gap;
  std::vector<std::uint32_t> a(40), b(35);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<std::uint32_t>(cp::uniform(11, i, 3));
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::uint32_t>(cp::uniform(12, i, 3));
  auto w1 = affine_gap_cost(2.0, 1.0);
  auto w2 = quadratic_gap_cost(2.0, 0.2);
  auto nv = gap_naive(a, b, w1, w2);
  auto pv = gap_parallel(a, b, w1, w2, cordon::glws::Shape::kConvex);
  EXPECT_NEAR(nv.distance, pv.distance, 1e-9);
}

// --------------------------------------------------------------------- obst
TEST(ObstEdge, ZeroWeightsAndSpikes) {
  std::vector<double> w{0.0, 0.0, 50.0, 0.0, 0.0};
  auto nv = cordon::obst::obst_naive(w);
  auto kv = cordon::obst::obst_knuth(w);
  auto pv = cordon::obst::obst_parallel(w);
  EXPECT_NEAR(nv.cost, kv.cost, 1e-12);
  EXPECT_NEAR(nv.cost, pv.cost, 1e-12);
  EXPECT_DOUBLE_EQ(nv.cost, 50.0);  // spike at the root, depth 0 => 1*50
}

// --------------------------------------------------------- monge validators
TEST(MongeEdge, SampledCheckerCatchesViolation) {
  // A deliberately non-Monge cost (random noise) must be rejected.
  auto bad = [](std::size_t j, std::size_t i) {
    return static_cast<double>(cp::hash64(j * 1315423911u + i) % 1000);
  };
  EXPECT_FALSE(cordon::core::is_convex_monge_sampled(bad, 200, 2000));
}
