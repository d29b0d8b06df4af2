// Optimal Alphabetic Tree (Sec. 5.1, Thm 5.1, Appendix A).
//
// Given leaf weights a[0..n-1], find the binary tree with those leaves in
// order minimizing sum a_i * depth_i.
//
//   * oat_dp_cost      — O(n^2) Knuth-style interval DP (oracle, small n),
//   * oat_garsia_wachs — the classic two-phase sequential algorithm:
//     phase 1 builds the l-tree by repeatedly combining the leftmost
//     locally minimal pair and reinserting; phase 2 rebuilds the
//     alphabetic tree from the leaf levels,
//   * oat_parallel     — the phase-parallel scheme of Larmore et al. [72]
//     that the paper accelerates: every round combines *all* disjoint
//     locally minimal pairs at once and batch-reinserts (any locally
//     minimal pair yields the same l-tree).  stats.rounds counts the
//     phase-parallel rounds.  The 1-valley/convex-LWS acceleration of
//     Appendix A (which bounds rounds by O(log n) on adversarial inputs)
//     is not implemented.  In its place, oat_parallel drains a sorted
//     working list (the monotone case where the base scheme needs O(n)
//     rounds) Huffman-style in one step and charges its combine depth as
//     rounds; it exposes the same experimental quantities (rounds,
//     height, work) the paper's analysis is parameterized by.
//
// Lemma 5.1 utilities: oat height is O(log W) for positive integer
// weights of word size W (tests/bench A4 check this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/dp_stats.hpp"

namespace cordon::oat {

struct OatResult {
  std::vector<std::uint32_t> levels;  // depth of each leaf in the OAT
  double cost = 0;                    // sum a_i * levels_i
  std::uint32_t height = 0;           // max level
  core::DpStats stats;
};

/// O(n^2) interval-DP optimal cost (Knuth-range speedup); oracle.
[[nodiscard]] double oat_dp_cost(const std::vector<double>& weights);

/// Sequential Garsia–Wachs.
[[nodiscard]] OatResult oat_garsia_wachs(const std::vector<double>& weights);

/// Sequential Hu–Tucker [53]: the original OAT algorithm.  This is the
/// textbook variant that repeatedly combines the minimum-sum
/// *compatible* pair (only transparent/internal nodes may sit between
/// the two), O(n^2) worst case — kept as an independent baseline whose
/// l-tree levels must agree with Garsia–Wachs.
[[nodiscard]] OatResult oat_hu_tucker(const std::vector<double>& weights);

/// Phase-parallel all-locally-minimal-pairs rounds ([72] base scheme).
[[nodiscard]] OatResult oat_parallel(const std::vector<double>& weights);

/// Smallest chunk of oat_parallel's per-round marking pass worth a fork
/// (its parallel_for granularity floor).  A pair costs ~1.7 ns (four
/// weight loads through the snapshot, three adds, two compares; g++ -O2,
/// x86_64) and a fork-join ~4.5 us (perfbench's sched.fork_join_us), so
/// 4096 is the smallest power of two whose chunk outweighs the fork that
/// exposes it.  Rounds of at most this many pairs — every round of the
/// n <= 512 solves a session append runs — never touch the scheduler.
inline constexpr std::size_t kOatMarkGrain = 4096;

/// Phase 2: rebuilds an explicit alphabetic tree from leaf levels.
/// Returns, for each of the n-1 internal nodes, its children as signed
/// ids: value >= 0 -> leaf index, value < 0 -> internal node ~value.
/// The last internal node is the root.  Validates that the level
/// sequence is realizable (throws std::invalid_argument otherwise).
struct AlphabeticTree {
  std::vector<std::int32_t> left;
  std::vector<std::int32_t> right;
  [[nodiscard]] std::size_t num_internal() const noexcept {
    return left.size();
  }
};
[[nodiscard]] AlphabeticTree tree_from_levels(
    const std::vector<std::uint32_t>& levels);

}  // namespace cordon::oat
