#include "src/lis/lis.hpp"

#include <algorithm>
#include <limits>

#include "src/core/kernels.hpp"
#include "src/core/trace.hpp"
#include "src/parallel/primitives.hpp"
#include "src/structures/tournament_tree.hpp"

namespace cordon::lis {

LisResult lis_naive(const std::vector<std::uint64_t>& a) {
  const std::size_t n = a.size();
  LisResult res;
  res.dp.assign(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      ++res.stats.relaxations;
      if (a[j] < a[i] && res.dp[j] + 1 > res.dp[i]) res.dp[i] = res.dp[j] + 1;
    }
    ++res.stats.states;
    if (res.dp[i] > res.length) res.length = res.dp[i];
  }
  return res;
}

namespace {

// Fenwick tree over value ranks supporting prefix-max queries.
class FenwickMax {
 public:
  explicit FenwickMax(std::size_t n) : tree_(n + 1, 0) {}

  void update(std::size_t i, std::uint32_t v) {
    for (++i; i < tree_.size(); i += i & (~i + 1))
      tree_[i] = std::max(tree_[i], v);
  }

  /// Max over ranks [0, i) — i.e., strictly smaller values.
  [[nodiscard]] std::uint32_t prefix_max(std::size_t i) const {
    std::uint32_t best = 0;
    for (; i > 0; i -= i & (~i + 1)) best = std::max(best, tree_[i]);
    return best;
  }

 private:
  std::vector<std::uint32_t> tree_;
};

// Dense ranks of a (equal values share a rank).
std::vector<std::uint32_t> dense_ranks(const std::vector<std::uint64_t>& a) {
  std::vector<std::uint64_t> sorted(a);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<std::uint32_t> rank(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    rank[i] = static_cast<std::uint32_t>(
        std::lower_bound(sorted.begin(), sorted.end(), a[i]) -
        sorted.begin());
  }
  return rank;
}

}  // namespace

LisResult lis_sequential(const std::vector<std::uint64_t>& a) {
  const std::size_t n = a.size();
  LisResult res;
  res.dp.assign(n, 1);
  std::vector<std::uint32_t> rank = dense_ranks(a);
  FenwickMax fen(n);
  core::PollTicker poll;
  for (std::size_t i = 0; i < n; ++i) {
    poll.tick();
    // Best decision: the max DP among strictly smaller values to the left.
    std::uint32_t best = fen.prefix_max(rank[i]);
    res.dp[i] = best + 1;
    fen.update(rank[i], res.dp[i]);
    ++res.stats.states;
    ++res.stats.relaxations;  // exactly one effective transition per state
    if (res.dp[i] > res.length) res.length = res.dp[i];
  }
  return res;
}

LisResult lis_parallel(const std::vector<std::uint64_t>& a) {
  const std::size_t n = a.size();
  LisResult res;
  res.dp.assign(n, 0);
  if (n == 0) return res;

  // Cordon rounds: the ready states of round r are the prefix-minimum
  // elements among the still-active ones (Sec. 3) — no active j < i has
  // a[j] < a[i].  All of them share tentative value r, so D never needs
  // explicit relaxation (the "global tentative value" observation).
  structures::TournamentTree tree(a);
  std::vector<std::size_t> frontier;  // reused: zero-alloc steady state
  std::uint32_t round = 0;
  while (!tree.empty()) {
    ++round;
    telemetry::RoundSpan round_span("lis.round", res.stats);
    tree.extract_prefix_minima_into(frontier);
    ++res.stats.rounds;
    res.stats.states += frontier.size();
    res.stats.relaxations += frontier.size();
    core::kernels::parallel_scatter_fill(res.dp.data(), frontier.data(),
                                         frontier.size(), round);
  }
  res.length = round;
  return res;
}

std::vector<std::size_t> lis_witness(const std::vector<std::uint64_t>& a,
                                     const LisResult& res) {
  // Backward greedy: a state with DP value v chains after any earlier
  // state with value v-1 and a strictly smaller element.
  std::vector<std::size_t> out;
  std::uint32_t want = res.length;
  std::uint64_t ceiling = std::numeric_limits<std::uint64_t>::max();
  bool ceiling_open = true;  // no upper constraint yet
  for (std::size_t i = a.size(); i > 0 && want > 0; --i) {
    if (res.dp[i - 1] == want && (ceiling_open || a[i - 1] < ceiling)) {
      out.push_back(i - 1);
      ceiling = a[i - 1];
      ceiling_open = false;
      --want;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void lis_extend(LisFrontier& f, const std::uint64_t* values,
                std::size_t count, core::DpStats& stats) {
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t v = values[i];
    // First tail >= v: v extends the chain of that length - 1 and
    // becomes the new (strictly smaller or equal) tail; past-the-end
    // means v extends the longest chain.
    auto it = std::lower_bound(f.tails.begin(), f.tails.end(), v);
    if (it == f.tails.end())
      f.tails.push_back(v);
    else
      *it = v;
    ++stats.states;
    ++stats.relaxations;
  }
  f.consumed += count;
}

}  // namespace cordon::lis
