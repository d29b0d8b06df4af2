// Tree-GLWS (Sec. 5.3, Thm 5.3): GLWS along every root-to-node path.
//
// Given a rooted tree T, boundary D[root] = d0, and a convex cost on
// depths, compute for every node v:
//   D[v] = min over proper ancestors u of  E[u] + w(depth(u), depth(v)),
// with E[u] = f(D[u], u).  Sibling nodes share D (same ancestor set) but
// may differ in E.
//
//   * tree_glws_naive      — O(n * depth) ancestor scan (oracle),
//   * tree_glws_sequential — DFS with a *journaled* best-decision array:
//     convex inserts are undone on backtrack, queries are binary
//     searches, so one array serves every path (the inherently
//     sequential baseline the paper describes),
//   * tree_glws_parallel   — the Cordon Algorithm on trees: rounds of
//     depth-windowed prefix-doubling (subtree + depth-range extraction
//     via a 2D range report), sentinels located with find-first searches
//     against the path envelope, per-path blocking resolved with
//     HLD + segment-tree path minima, and per-node best-decision lists
//     maintained as *persistent treaps* so sibling branches share their
//     common path prefix (the O(n^2) -> O~(n) space/work reduction of
//     Sec. 5.3.2).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/dp_stats.hpp"
#include "src/glws/glws.hpp"  // CostFn, EFn
#include "src/structures/tree_utils.hpp"

namespace cordon::treeglws {

struct TreeGlwsResult {
  std::vector<double> d;             // D[v]
  std::vector<std::uint32_t> best;   // best ancestor of v (node id)
  core::DpStats stats;
  core::SolvePath path = core::SolvePath::kParallel;  // set by tree_glws_auto
};

/// O(sum of depths) oracle: scans all ancestors of every node.
[[nodiscard]] TreeGlwsResult tree_glws_naive(const structures::RootedTree& t,
                                             double d0, const glws::CostFn& w,
                                             const glws::EFn& e);

/// Sequential DFS with journaled decision intervals (convex costs).
[[nodiscard]] TreeGlwsResult tree_glws_sequential(
    const structures::RootedTree& t, double d0, const glws::CostFn& w,
    const glws::EFn& e);

/// Parallel Cordon rounds with persistent envelopes (convex costs).
/// stats.rounds counts phase-parallel rounds.
[[nodiscard]] TreeGlwsResult tree_glws_parallel(const structures::RootedTree& t,
                                                double d0,
                                                const glws::CostFn& w,
                                                const glws::EFn& e);

/// Production entry point: tree_glws_sequential when effective
/// parallelism is below the worker floor or the node count is under the
/// size threshold (the kTreeGlws row of core::kRoutes),
/// tree_glws_parallel otherwise.  Routing recorded in
/// TreeGlwsResult::path.
[[nodiscard]] TreeGlwsResult tree_glws_auto(const structures::RootedTree& t,
                                            double d0, const glws::CostFn& w,
                                            const glws::EFn& e);

}  // namespace cordon::treeglws
