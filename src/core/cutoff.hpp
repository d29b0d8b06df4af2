// Sequential-cutoff routing and round fusion shared by the family solvers.
//
// The parallel algorithms pay a real constant factor over their
// sequential counterparts (envelope rebuilds, atomic frontiers, fork
// overhead) that only parallel hardware can buy back.  Each routed
// family's `*_auto` entry point is one `route()` call, which runs the
// sequential algorithm when there is nothing to buy it back with: too
// few effective workers (single-worker pool, SequentialRegion, or below
// the family's floor) or an instance under the family's size threshold.
// Both thresholds live in one table, `kRoutes`, retuned by editing it
// from the bench trajectory's `parallel_s` curves (docs/SCALING.md).
// This makes the 1-thread bench series match `sequential_s` for free and
// keeps small instances out of the scheduler entirely.
//
// Round fusion handles the high-round/low-work regime (e.g. glws with
// k ~ n/4: thousands of rounds of ~150 relaxations, pure scheduling
// overhead at any pool size): a round runs inline — under
// SequentialRegion, no forks — whenever the previous round's measured
// relaxation count falls below `kFuseRelax`.  The solver stays on the
// parallel path (`SolvePath::kParallel`); fused rounds are only visible
// in the kSolverFusedRounds telemetry counter.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/core/dp_stats.hpp"
#include "src/core/telemetry.hpp"
#include "src/parallel/scheduler.hpp"

namespace cordon::core {

/// The families with a sequential/parallel routing decision; indexes
/// `kRoutes`.
enum class Routed : std::uint8_t { kGlws, kLcs, kGap, kTreeGlws };

/// One family's routing row.  `seq_below` is in the family's own work
/// unit (see each `*_auto` doc); `min_workers` is the worker count at
/// which the parallel path can beat the sequential algorithm.
struct Route {
  std::size_t seq_below;
  std::size_t min_workers;
};

/// The routing table, one row per `Routed` family.  Size thresholds are
/// chosen so that, at the measured ~2-3x 1-thread overhead of the
/// parallel paths, an instance below them cannot win even on a fully
/// parallel machine once fork/round overhead is paid.  Worker floors
/// come from the measured 1-thread overhead factor (BENCH_PR5/PR7
/// baselines): glws pays ~2.3x (envelope rebuilds) so 4 workers
/// suffice; lcs (~5.7x, tournament tree vs a threshold walk) and gap
/// (~6x, staircase probing + row/column envelope merges) need 8.  Below
/// the floor, routing sequentially IS the right production answer on
/// that machine, not a concession.
inline constexpr std::array<Route, 4> kRoutes{{
    {2048, 4},   // kGlws: n states
    {4096, 8},   // kLcs: matched pairs
    {16384, 8},  // kGap: dp cells
    {2048, 8},   // kTreeGlws: tree nodes
}};

[[nodiscard]] constexpr const Route& route_of(Routed family) noexcept {
  return kRoutes[static_cast<std::size_t>(family)];
}

/// The routing decision: runs `seq()` when fewer than the family's
/// `min_workers` workers are effectively available or `work` is under
/// its `seq_below`, stamping the result's `path` as kSequentialCutoff
/// and bumping kSolverSeqCutoffs; runs `par()` otherwise.
template <class Seq, class Par>
auto route(Routed family, std::size_t work, Seq&& seq, Par&& par) {
  const Route& r = route_of(family);
  if (parallel::effective_parallelism() < r.min_workers ||
      work < r.seq_below) {
    telemetry::count(telemetry::Counter::kSolverSeqCutoffs);
    auto res = std::forward<Seq>(seq)();
    res.path = SolvePath::kSequentialCutoff;
    return res;
  }
  return std::forward<Par>(par)();
}

/// Relaxations-per-round floor below which round fusion kicks in.  A
/// round this light is dominated by fork + frontier-rebuild overhead at
/// any worker count; running it inline costs at most this many
/// relaxations of sequential work per round.
inline constexpr std::size_t kFuseRelax = 4096;

/// Decides whether the NEXT round should run inline, given the measured
/// relaxation count of the previous round (pass ~SIZE_MAX before the
/// first round so it never fuses blind).  Bumps kSolverFusedRounds.
inline bool fuse_round(std::size_t prev_round_relaxations) noexcept {
  if (prev_round_relaxations >= kFuseRelax) return false;
  telemetry::count(telemetry::Counter::kSolverFusedRounds);
  return true;
}

}  // namespace cordon::core
