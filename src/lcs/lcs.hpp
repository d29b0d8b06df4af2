// Sparse Longest Common Subsequence (Sec. 3, Thm 3.2).
//
// The sparsification [7, 40, 51, 56]: only states (i, j) with
// A[i] == B[j] matter (L such "match pairs"), and LCS is the longest
// chain of pairs increasing in both coordinates.
//
//   * lcs_naive      — O(nm) grid DP (oracle),
//   * lcs_sparse_seq — Hunt–Szymanski-style O(L log n) over match pairs,
//   * lcs_parallel   — the Cordon Algorithm (Thm 3.2): over the pairs in
//     (i asc, j desc) order, each round a tournament tree extracts the
//     pairs on the cordon (prefix minima of the j keys), which are exactly
//     the states with LCS value = round number.  O(L log n) work,
//     O(k log n) span where k is the LCS length.
//
// The pre-processing that finds match pairs is provided (and excluded
// from benchmark timings, as in the paper).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/dp_stats.hpp"

namespace cordon::lcs {

/// One link of a recovered LCS chain.
struct MatchPair {
  std::uint32_t i;  // position in A
  std::uint32_t j;  // position in B
};

/// The match pairs, the one pair form every algorithm here consumes:
/// struct-of-arrays, in (i asc, j desc) order.  The cordon rounds read
/// ONLY the j stream (tournament keys) and the threshold scan of the
/// sequential algorithm walks it linearly, so keeping j densely packed
/// halves the bandwidth per probe versus interleaved {i, j} records.
/// The i stream is touched only by witness recovery.
struct MatchPairsSoA {
  std::vector<std::uint32_t> i, j;

  [[nodiscard]] std::size_t size() const noexcept { return j.size(); }
  [[nodiscard]] bool empty() const noexcept { return j.empty(); }
};

/// All (i, j) with a[i] == b[j], in (i asc, j desc) order — the order
/// the cordon algorithm consumes.  size() = L.
[[nodiscard]] MatchPairsSoA match_pairs_soa(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);

struct LcsResult {
  std::uint32_t length = 0;
  core::DpStats stats;
  /// For the sparse algorithms: dp[p] = LCS of prefixes (a[0..i_p],
  /// b[0..j_p]) that *ends at* pair p, aligned with the pair order.
  std::vector<std::uint32_t> pair_dp;
  core::SolvePath path = core::SolvePath::kParallel;  // set by lcs_auto
};

/// O(nm) grid DP over recurrence (3) (oracle).
[[nodiscard]] LcsResult lcs_naive(const std::vector<std::uint32_t>& a,
                                  const std::vector<std::uint32_t>& b);

/// Sparse sequential O(L log n) over pre-computed pairs.
[[nodiscard]] LcsResult lcs_sparse_seq(const MatchPairsSoA& pairs);

/// Cordon Algorithm over pre-computed pairs (Thm 3.2).
/// stats.rounds == LCS length.
[[nodiscard]] LcsResult lcs_parallel(const MatchPairsSoA& pairs);

/// Production entry point: lcs_sparse_seq when effective parallelism is
/// below the worker floor or L (the pair count) is under the size
/// threshold (the kLcs row of core::kRoutes), lcs_parallel otherwise.
/// The routing decision is recorded in LcsResult::path.
/// Both produce the same pair_dp semantics (LCS value ending at pair p).
[[nodiscard]] LcsResult lcs_auto(const MatchPairsSoA& pairs);

/// One optimal chain of match pairs (an LCS witness), recovered from the
/// per-pair DP values of either sparse algorithm.  Returned in chain
/// order (increasing i and j); length == res.length.  O(L) scan.
[[nodiscard]] std::vector<MatchPair> recover_chain(const MatchPairsSoA& pairs,
                                                   const LcsResult& res);

// --- append-resumable frontier (solve sessions) -----------------------------

/// Positions of every symbol in the fixed reference sequence `b`
/// (j ascending per symbol): the one index both match_pairs_soa and
/// lcs_extend walk.  Immutable once built — session versions share one
/// index behind a shared_ptr; growing `b` invalidates it and forces a
/// cold re-solve (the restricted update model).
struct BIndex {
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> where;
  std::size_t b_size = 0;
};

[[nodiscard]] BIndex build_b_index(const std::vector<std::uint32_t>& b);

/// Hunt–Szymanski thresholds after consuming a prefix of `a` against a
/// fixed `b`: thresholds[k] is the smallest j ending a common chain of
/// length k+1.  Appending to `a` appends match pairs at the END of the
/// (i asc, j desc) pair stream, so the thresholds array is exactly the
/// suffix-re-solve state — O(LCS) space, O(new pairs · log) per append,
/// and bitwise the same lengths as lcs_sparse_seq over the full pair
/// stream.
struct LcsFrontier {
  std::vector<std::uint32_t> thresholds;
  std::uint64_t a_consumed = 0;
  std::uint64_t pairs_consumed = 0;

  [[nodiscard]] std::uint32_t length() const noexcept {
    return static_cast<std::uint32_t>(thresholds.size());
  }
};

/// Feeds `count` appended `a` symbols through the frontier in place:
/// their match pairs against `index`, in (i asc, j desc) order, each
/// through the threshold step of lcs_sparse_seq.
void lcs_extend(LcsFrontier& f, const BIndex& index,
                const std::uint32_t* a_suffix, std::size_t count,
                core::DpStats& stats);

}  // namespace cordon::lcs
