// Quickstart: the three one-liners of the library.
//
//   1. parallel LIS over a value sequence,
//   2. parallel convex GLWS (the post-office problem),
//   3. sparse parallel LCS over two strings.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <vector>

#include "src/glws/costs.hpp"
#include "src/glws/glws.hpp"
#include "src/lcs/lcs.hpp"
#include "src/lis/lis.hpp"

int main() {
  using namespace cordon;

  // --- 1. LIS ---------------------------------------------------------
  std::vector<std::uint64_t> seq{7, 3, 6, 8, 1, 4, 2, 5};  // Fig. 2(a)
  auto lis = lis::lis_parallel(seq);
  std::printf("LIS of {7,3,6,8,1,4,2,5} = %u (rounds = %llu)\n", lis.length,
              static_cast<unsigned long long>(lis.stats.rounds));

  // --- 2. Convex GLWS: where to build post offices ---------------------
  // Villages at positions x[1..12]; one office costs 40 to open plus the
  // squared span of the villages it serves.
  auto x = std::make_shared<std::vector<double>>(
      std::vector<double>{0, 1, 2, 3, 10, 11, 12, 13, 25, 26, 40, 41, 42});
  glws::CostFn w = glws::post_office_cost(x, 40.0);
  auto plan = glws::glws_parallel(12, 0.0, w, glws::identity_e(),
                                  glws::Shape::kConvex);
  std::printf("post offices: total cost %.1f, assignments:", plan.d[12]);
  // Backtrack the optimal segmentation.
  std::vector<std::size_t> cuts;
  for (std::size_t i = 12; i != 0; i = plan.best[i]) cuts.push_back(i);
  for (auto it = cuts.rbegin(); it != cuts.rend(); ++it)
    std::printf(" ..%zu", *it);
  std::printf("  (%llu offices, %llu cordon rounds)\n",
              static_cast<unsigned long long>(cuts.size()),
              static_cast<unsigned long long>(plan.stats.rounds));

  // --- 3. Sparse LCS ----------------------------------------------------
  std::vector<std::uint32_t> a{'b', 'a', 'n', 'a', 'n', 'a'};
  std::vector<std::uint32_t> b{'a', 'n', 'a', 'n', 'a', 's'};
  auto pairs = lcs::match_pairs_soa(a, b);
  auto lcs = lcs::lcs_parallel(pairs);
  std::printf("LCS(banana, ananas) = %u over %zu match pairs\n", lcs.length,
              pairs.size());
  return 0;
}
