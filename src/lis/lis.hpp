// Longest Increasing Subsequence (Sec. 3, Thm 3.1).
//
// Three algorithms over one recurrence
//   D[i] = max{1, max_{j<i, A[j]<A[i]} D[j] + 1}:
//   * lis_naive       — the textbook O(n^2) evaluation (test oracle),
//   * lis_sequential  — the optimized O(n log k) algorithm [65]: patience
//     sorting over the tails of the best chain of each length; element i
//     lands in slot D[i] - 1, found by one binary search,
//   * lis_parallel    — the Cordon Algorithm: each round extracts the
//     prefix-minimum elements (the states whose tentative value cannot be
//     improved) with a tournament tree; round r finalizes exactly the
//     states with D = r.  Work O(n log k), span O(k log n); a perfect
//     parallelization of the sequential algorithm.
// lis_auto routes between the last two (core::kRoutes).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/dp_stats.hpp"

namespace cordon::lis {

struct LisResult {
  std::vector<std::uint32_t> dp;  // D[i] = LIS length ending at i
  std::uint32_t length = 0;       // max D
  core::DpStats stats;
  core::SolvePath path = core::SolvePath::kParallel;  // set by lis_auto
};

/// O(n^2) reference evaluation of the recurrence.
[[nodiscard]] LisResult lis_naive(const std::vector<std::uint64_t>& a);

/// Optimized sequential algorithm [65]: the patience step over a
/// LisFrontier, O(n log k) time and O(k) extra space (the Γ whose
/// parallelization Thm 3.1 analyzes).  lis_extend runs the same step.
[[nodiscard]] LisResult lis_sequential(const std::vector<std::uint64_t>& a);

/// Cordon Algorithm with a tournament tree (Thm 3.1).
/// stats.rounds == LIS length (the perfect depth of the DP DAG).
[[nodiscard]] LisResult lis_parallel(const std::vector<std::uint64_t>& a);

/// Production entry point: lis_sequential when effective parallelism is
/// below the worker floor or n is under the size threshold (the kLis row
/// of core::kRoutes), lis_parallel otherwise.  The routing decision is
/// recorded in LisResult::path; both fill the same dp.
[[nodiscard]] LisResult lis_auto(const std::vector<std::uint64_t>& a);

/// One longest strictly increasing subsequence (indices into `a`),
/// reconstructed from per-state DP values in one backward scan.
[[nodiscard]] std::vector<std::size_t> lis_witness(
    const std::vector<std::uint64_t>& a, const LisResult& res);

// --- append-resumable frontier (solve sessions) -----------------------------

/// Patience frontier: tails[k] is the smallest value ending a strictly
/// increasing subsequence of length k+1 among the `consumed` elements so
/// far.  tails is strictly increasing, O(LIS) space, and — unlike the
/// per-state dp array — absorbing one appended element costs O(log LIS):
/// exactly the state an append-only session checkpoints.  The LIS length
/// of any extension never depends on dropped information, so
/// lis_extend(frontier of a) ++ suffix == lis(a ++ suffix) exactly.
struct LisFrontier {
  std::vector<std::uint64_t> tails;
  std::uint64_t consumed = 0;

  [[nodiscard]] std::uint32_t length() const noexcept {
    return static_cast<std::uint32_t>(tails.size());
  }
};

/// Feeds `count` appended values through the frontier in place: the
/// patience step of lis_sequential, without the per-state dp array.
/// O(count log LIS); stats counts one state and one relaxation per value.
void lis_extend(LisFrontier& f, const std::uint64_t* values,
                std::size_t count, core::DpStats& stats);

}  // namespace cordon::lis
