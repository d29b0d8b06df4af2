#include "src/lcs/lcs.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "src/core/audit.hpp"
#include "src/core/cancel.hpp"
#include "src/core/cutoff.hpp"
#include "src/core/kernels.hpp"
#include "src/core/trace.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/structures/tournament_tree.hpp"

namespace cordon::lcs {

BIndex build_b_index(const std::vector<std::uint32_t>& b) {
  BIndex index;
  index.b_size = b.size();
  index.where.reserve(b.size());
  for (std::uint32_t j = 0; j < b.size(); ++j) index.where[b[j]].push_back(j);
  return index;
}

namespace {

// Emits the match pairs of a[0..count) against `index` through
// emit(i, j) in (i asc, j desc) order, i counted from a[0].  j descends
// within one i, so a pair never chains onto another pair with the same i.
template <typename Emit>
void for_each_pair(const BIndex& index, const std::uint32_t* a,
                   std::size_t count, const Emit& emit) {
  for (std::size_t i = 0; i < count; ++i) {
    auto it = index.where.find(a[i]);
    if (it == index.where.end()) continue;
    const std::vector<std::uint32_t>& js = it->second;
    for (std::size_t k = js.size(); k > 0; --k)
      emit(static_cast<std::uint32_t>(i), js[k - 1]);
  }
}

// One Hunt–Szymanski step: pair j replaces the first threshold >= j, or
// extends the longest chain.  Returns that slot: the pair ends a common
// chain of length slot + 1, and no longer one.
std::size_t threshold_step(LcsFrontier& f, std::uint32_t j,
                           core::DpStats& stats) {
  auto it = std::lower_bound(f.thresholds.begin(), f.thresholds.end(), j);
  const auto slot = static_cast<std::size_t>(it - f.thresholds.begin());
  if (it == f.thresholds.end())
    f.thresholds.push_back(j);
  else
    *it = j;
  // The frontier stays strictly increasing after every overwrite: O(1)
  // neighbor probe at the touched slot is enough, since only one slot
  // changed.
  CORDON_DCHECK(slot == 0 || f.thresholds[slot - 1] < f.thresholds[slot],
                "lcs threshold frontier lost sortedness (left)");
  CORDON_DCHECK(slot + 1 >= f.thresholds.size() ||
                    f.thresholds[slot] < f.thresholds[slot + 1],
                "lcs threshold frontier lost sortedness (right)");
  ++f.pairs_consumed;
  ++stats.states;
  ++stats.relaxations;  // exactly one effective transition per pair
  return slot;
}

}  // namespace

MatchPairsSoA match_pairs_soa(const std::vector<std::uint32_t>& a,
                              const std::vector<std::uint32_t>& b) {
  const BIndex index = build_b_index(b);
  // Count pass first, so each stream allocates exactly once.
  std::size_t total = 0;
  for (std::uint32_t x : a) {
    auto it = index.where.find(x);
    if (it != index.where.end()) total += it->second.size();
  }
  MatchPairsSoA pairs;
  pairs.i.reserve(total);
  pairs.j.reserve(total);
  for_each_pair(index, a.data(), a.size(),
                [&](std::uint32_t i, std::uint32_t j) {
                  pairs.i.push_back(i);
                  pairs.j.push_back(j);
                });
  return pairs;
}

LcsResult lcs_naive(const std::vector<std::uint32_t>& a,
                    const std::vector<std::uint32_t>& b) {
  const std::size_t n = a.size(), m = b.size();
  LcsResult res;
  std::vector<std::uint32_t> prev(m + 1, 0), cur(m + 1, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      ++res.stats.relaxations;
      cur[j] = a[i - 1] == b[j - 1]
                   ? prev[j - 1] + 1
                   : std::max(prev[j], cur[j - 1]);
    }
    res.stats.states += m;
    std::swap(prev, cur);
  }
  res.length = prev[m];
  return res;
}

LcsResult lcs_sparse_seq(const MatchPairsSoA& pairs) {
  LcsResult res;
  res.pair_dp.resize(pairs.size());
  LcsFrontier f;
  core::PollTicker poll;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    poll.tick();
    const std::size_t slot = threshold_step(f, pairs.j[p], res.stats);
    res.pair_dp[p] = static_cast<std::uint32_t>(slot + 1);
  }
  res.length = f.length();
  return res;
}

// Cordon rounds over the j key stream.  The pairs on the cordon are
// exactly the prefix minima (Sec. 3, Fig. 2(f)), i.e., the LCS over the
// secondary keys is an LIS instance.  One frontier buffer is reused for
// every round and the finalization scatter runs through the block kernel.
LcsResult lcs_parallel(const MatchPairsSoA& pairs) {
  LcsResult res;
  res.pair_dp.assign(pairs.size(), 0);
  if (pairs.empty()) return res;

  structures::TournamentTree tree(pairs.j);
  std::vector<std::size_t> frontier;  // reused: zero-alloc steady state
  // Round fusion: a cordon of few pairs (relaxations == frontier size)
  // is not worth forking the scatter for; run such rounds inline.  The
  // previous round's frontier predicts the next one well enough here.
  std::size_t prev_frontier = std::numeric_limits<std::size_t>::max();
  std::uint32_t round = 0;
  while (!tree.empty()) {
    ++round;
    telemetry::RoundSpan round_span("lcs.round", res.stats);
    tree.extract_prefix_minima_into(frontier);
    ++res.stats.rounds;
    res.stats.states += frontier.size();
    res.stats.relaxations += frontier.size();
    if (core::fuse_round(prev_frontier)) {
      parallel::SequentialRegion seq;
      core::kernels::parallel_scatter_fill(res.pair_dp.data(), frontier.data(),
                                           frontier.size(), round);
    } else {
      core::kernels::parallel_scatter_fill(res.pair_dp.data(), frontier.data(),
                                           frontier.size(), round);
    }
    prev_frontier = frontier.size();
  }
  res.length = round;
  return res;
}

LcsResult lcs_auto(const MatchPairsSoA& pairs) {
  return core::route(
      core::Routed::kLcs, pairs.size(), [&] { return lcs_sparse_seq(pairs); },
      [&] { return lcs_parallel(pairs); });
}

std::vector<MatchPair> recover_chain(const MatchPairsSoA& pairs,
                                     const LcsResult& res) {
  // Backward greedy: a pair with DP value v chains onto any pair with
  // value v-1 strictly above-left of it; scanning the (i asc, j desc)
  // order backwards and keeping strictly-dominated coordinates always
  // finds one (the DP values certify existence).
  std::vector<MatchPair> chain;
  std::uint32_t want = res.length;
  std::uint32_t limit_i = 0xffffffffu, limit_j = 0xffffffffu;
  for (std::size_t p = pairs.size(); p > 0 && want > 0; --p) {
    const MatchPair pr{pairs.i[p - 1], pairs.j[p - 1]};
    if (res.pair_dp[p - 1] == want && pr.i < limit_i && pr.j < limit_j) {
      chain.push_back(pr);
      limit_i = pr.i;
      limit_j = pr.j;
      --want;
    }
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

void lcs_extend(LcsFrontier& f, const BIndex& index,
                const std::uint32_t* a_suffix, std::size_t count,
                core::DpStats& stats) {
  // The step and pair order of lcs_sparse_seq: the frontier after
  // (prefix ++ suffix) is bitwise the one the sequential algorithm
  // reaches on the concatenation.
  for_each_pair(index, a_suffix, count, [&](std::uint32_t, std::uint32_t j) {
    threshold_step(f, j, stats);
  });
  f.a_consumed += count;
}

}  // namespace cordon::lcs
