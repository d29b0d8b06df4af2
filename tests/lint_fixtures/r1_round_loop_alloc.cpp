// lint-fixture: R1
//
// A solver round loop (marked by ++stats.rounds) that grows an
// owning vector with no arena and no allow-alloc annotation.  Never
// compiled — cordon_lint.py --fixtures must flag the push_back.
#include <vector>

void solve(DpStats& stats, std::size_t rounds) {
  std::vector<int> frontier;
  for (std::size_t r = 0; r < rounds; ++r) {
    ++stats.rounds;
    frontier.push_back(static_cast<int>(r));  // R1: grows every round
  }
}
