#include "src/lis/lis.hpp"

#include <algorithm>
#include <limits>

#include "src/core/cancel.hpp"
#include "src/core/cutoff.hpp"
#include "src/core/kernels.hpp"
#include "src/core/trace.hpp"
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

// One patience step [65]: v replaces the first tail >= v, or extends the
// longest chain when every tail is smaller.  Returns that slot: v ends a
// strictly increasing subsequence of length slot + 1, and no longer one.
std::size_t patience_step(LisFrontier& f, std::uint64_t v,
                          core::DpStats& stats) {
  auto it = std::lower_bound(f.tails.begin(), f.tails.end(), v);
  const auto slot = static_cast<std::size_t>(it - f.tails.begin());
  if (it == f.tails.end())
    f.tails.push_back(v);
  else
    *it = v;
  ++f.consumed;
  ++stats.states;
  ++stats.relaxations;  // exactly one effective transition per state
  return slot;
}

}  // namespace

LisResult lis_sequential(const std::vector<std::uint64_t>& a) {
  LisResult res;
  res.dp.resize(a.size());
  LisFrontier f;
  core::PollTicker poll;
  for (std::size_t i = 0; i < a.size(); ++i) {
    poll.tick();
    res.dp[i] =
        static_cast<std::uint32_t>(patience_step(f, a[i], res.stats) + 1);
  }
  res.length = f.length();
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

LisResult lis_auto(const std::vector<std::uint64_t>& a) {
  return core::route(
      core::Routed::kLis, a.size(), [&] { return lis_sequential(a); },
      [&] { return lis_parallel(a); });
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
  for (std::size_t i = 0; i < count; ++i)
    patience_step(f, values[i], stats);
}

}  // namespace cordon::lis
