#include "src/lcs/lcs.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <unordered_map>

#include "src/core/audit.hpp"
#include "src/core/cutoff.hpp"
#include "src/core/kernels.hpp"
#include "src/core/trace.hpp"
#include "src/parallel/primitives.hpp"
#include "src/parallel/sort.hpp"
#include "src/structures/tournament_tree.hpp"

namespace cordon::lcs {

namespace {

// Bucket positions of each symbol in b (j ascending per symbol), plus the
// total number of match pairs — so emitters reserve exactly once.
struct SymbolBuckets {
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> where;
  std::size_t total_pairs = 0;

  SymbolBuckets(const std::vector<std::uint32_t>& a,
                const std::vector<std::uint32_t>& b) {
    where.reserve(b.size());
    for (std::uint32_t j = 0; j < b.size(); ++j) where[b[j]].push_back(j);
    for (std::uint32_t x : a) {
      auto it = where.find(x);
      if (it != where.end()) total_pairs += it->second.size();
    }
  }
};

// Emits every pair in (i asc, j desc) order through emit(i, j).
template <typename Emit>
void for_each_pair(const std::vector<std::uint32_t>& a,
                   const SymbolBuckets& buckets, const Emit& emit) {
  for (std::uint32_t i = 0; i < a.size(); ++i) {
    auto it = buckets.where.find(a[i]);
    if (it == buckets.where.end()) continue;
    // j descending within equal i: later j first.
    for (std::size_t k = it->second.size(); k > 0; --k)
      emit(i, it->second[k - 1]);
  }
}

}  // namespace

std::vector<MatchPair> match_pairs(const std::vector<std::uint32_t>& a,
                                   const std::vector<std::uint32_t>& b) {
  SymbolBuckets buckets(a, b);
  std::vector<MatchPair> pairs;
  pairs.reserve(buckets.total_pairs);
  for_each_pair(a, buckets, [&](std::uint32_t i, std::uint32_t j) {
    pairs.push_back({i, j});
  });
  return pairs;  // already (i asc, j desc) by construction
}

MatchPairsSoA match_pairs_soa(const std::vector<std::uint32_t>& a,
                              const std::vector<std::uint32_t>& b) {
  SymbolBuckets buckets(a, b);
  MatchPairsSoA pairs;
  pairs.i.reserve(buckets.total_pairs);
  pairs.j.reserve(buckets.total_pairs);
  for_each_pair(a, buckets, [&](std::uint32_t i, std::uint32_t j) {
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

namespace {

// Hunt–Szymanski core over the contiguous j stream: process pairs in
// (i asc, j desc) order; thresholds[k] is the smallest j ending a chain
// of length k+1.  Because j is descending within one i, a pair never
// chains onto another pair with the same i.
LcsResult sparse_seq_impl(std::span<const std::uint32_t> js) {
  LcsResult res;
  res.pair_dp.assign(js.size(), 0);
  std::vector<std::uint32_t> thresholds;  // strictly increasing j values
  core::PollTicker poll;
  for (std::size_t p = 0; p < js.size(); ++p) {
    poll.tick();
    std::uint32_t j = js[p];
    auto it = std::lower_bound(thresholds.begin(), thresholds.end(), j);
    std::uint32_t len = static_cast<std::uint32_t>(it - thresholds.begin());
    if (it == thresholds.end())
      thresholds.push_back(j);
    else
      *it = j;
    // The frontier stays strictly increasing after every overwrite:
    // O(1) neighbor probe at the touched slot is enough, since only one
    // slot changed.
    CORDON_DCHECK(len == 0 || thresholds[len - 1] < thresholds[len],
                  "lcs threshold frontier lost sortedness (left)");
    CORDON_DCHECK(len + 1 >= thresholds.size() ||
                      thresholds[len] < thresholds[len + 1],
                  "lcs threshold frontier lost sortedness (right)");
    res.pair_dp[p] = len + 1;
    ++res.stats.states;
    ++res.stats.relaxations;
  }
  res.length = static_cast<std::uint32_t>(thresholds.size());
  return res;
}

// Cordon rounds over the j key stream.  The pairs on the cordon are
// exactly the prefix minima (Sec. 3, Fig. 2(f)), i.e., the LCS over the
// secondary keys is an LIS instance.  One frontier buffer is reused for
// every round and the finalization scatter runs through the block kernel.
LcsResult parallel_impl(std::span<const std::uint32_t> js) {
  LcsResult res;
  res.pair_dp.assign(js.size(), 0);
  if (js.empty()) return res;

  structures::TournamentTree tree(js);
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

// The AoS entry points only need the j stream: peel it off once.
std::vector<std::uint32_t> j_stream(const std::vector<MatchPair>& pairs) {
  std::vector<std::uint32_t> js(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) js[p] = pairs[p].j;
  return js;
}

}  // namespace

LcsResult lcs_sparse_seq(const std::vector<MatchPair>& pairs) {
  return sparse_seq_impl(j_stream(pairs));
}

LcsResult lcs_sparse_seq(const MatchPairsSoA& pairs) {
  return sparse_seq_impl(pairs.j);
}

LcsResult lcs_parallel(const std::vector<MatchPair>& pairs) {
  return parallel_impl(j_stream(pairs));
}

LcsResult lcs_parallel(const MatchPairsSoA& pairs) {
  return parallel_impl(pairs.j);
}

LcsResult lcs_auto(const MatchPairsSoA& pairs) {
  return core::route(
      core::Routed::kLcs, pairs.size(),
      [&] { return sparse_seq_impl(pairs.j); },
      [&] { return parallel_impl(pairs.j); });
}

namespace {

// Backward greedy: a pair with DP value v chains onto any pair with
// value v-1 strictly above-left of it; scanning the (i asc, j desc)
// order backwards and keeping strictly-dominated coordinates always
// finds one (the DP values certify existence).
template <typename PairAt>
std::vector<MatchPair> recover_impl(std::size_t count, const PairAt& pair_at,
                                    const LcsResult& res) {
  std::vector<MatchPair> chain;
  std::uint32_t want = res.length;
  std::uint32_t limit_i = 0xffffffffu, limit_j = 0xffffffffu;
  for (std::size_t p = count; p > 0 && want > 0; --p) {
    const MatchPair pr = pair_at(p - 1);
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

}  // namespace

std::vector<MatchPair> recover_chain(const std::vector<MatchPair>& pairs,
                                     const LcsResult& res) {
  return recover_impl(
      pairs.size(), [&](std::size_t p) { return pairs[p]; }, res);
}

std::vector<MatchPair> recover_chain(const MatchPairsSoA& pairs,
                                     const LcsResult& res) {
  return recover_impl(
      pairs.size(),
      [&](std::size_t p) {
        return MatchPair{pairs.i[p], pairs.j[p]};
      },
      res);
}

BIndex build_b_index(const std::vector<std::uint32_t>& b) {
  BIndex index;
  index.b_size = b.size();
  index.where.reserve(b.size());
  for (std::uint32_t j = 0; j < b.size(); ++j) index.where[b[j]].push_back(j);
  return index;
}

void lcs_extend(LcsFrontier& f, const BIndex& index,
                const std::uint32_t* a_suffix, std::size_t count,
                core::DpStats& stats) {
  // Same update as sparse_seq_impl, same (i asc, j desc) pair order:
  // the frontier after (prefix ++ suffix) is bitwise the frontier the
  // sequential algorithm would reach on the concatenation.
  for (std::size_t ai = 0; ai < count; ++ai) {
    auto it = index.where.find(a_suffix[ai]);
    if (it == index.where.end()) continue;
    const std::vector<std::uint32_t>& positions = it->second;
    for (std::size_t k = positions.size(); k > 0; --k) {
      std::uint32_t j = positions[k - 1];
      auto t = std::lower_bound(f.thresholds.begin(), f.thresholds.end(), j);
      std::size_t slot = static_cast<std::size_t>(t - f.thresholds.begin());
      if (t == f.thresholds.end())
        f.thresholds.push_back(j);
      else
        *t = j;
      CORDON_DCHECK(slot == 0 || f.thresholds[slot - 1] < f.thresholds[slot],
                    "lcs resumed frontier lost sortedness (left)");
      CORDON_DCHECK(slot + 1 >= f.thresholds.size() ||
                        f.thresholds[slot] < f.thresholds[slot + 1],
                    "lcs resumed frontier lost sortedness (right)");
      ++f.pairs_consumed;
      ++stats.states;
      ++stats.relaxations;
    }
  }
  f.a_consumed += count;
}

}  // namespace cordon::lcs
