// lint-fixture: R6
//
// Parallel bodies that write the solver's stats counters instead of
// returning their counts through the fork-join: an inline parallel_for
// lambda and two named par_do branches.  Never compiled —
// cordon_lint.py --fixtures must flag all three writes.
#include <cstddef>

void probe(DpStats& stats, std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i) {
    stats.relaxations += cost(i);  // R6: shared counter, every iteration
  });
  auto left = [&] { ++stats.states; };          // R6: named branch
  auto right = [&] { stats += solve_half(); };  // R6: whole-struct add
  parallel::par_do(left, right);
}
