// Parallel reduce: the one sequence primitive the solvers use, after
// ParlayLib's reduce, which the paper's implementation relies on.  Its
// chunks follow parallel_for's and so depend on the pool size: it is for
// exact sums such as the solvers' work counters.
#pragma once

#include <cstddef>
#include <type_traits>

#include "src/parallel/scheduler.hpp"

namespace cordon::parallel {

namespace detail {

template <typename F>
auto reduce_rec(std::size_t lo, std::size_t hi, std::size_t gran,
                const F& f) {
  std::decay_t<decltype(f(lo))> acc{}, right{};
  if (hi - lo <= gran) {
    for (std::size_t i = lo; i < hi; ++i) acc += f(i);
    return acc;
  }
  std::size_t mid = lo + (hi - lo) / 2;
  par_do([&] { acc = reduce_rec(lo, mid, gran, f); },
         [&] { right = reduce_rec(mid, hi, gran, f); });
  acc += right;
  return acc;
}

}  // namespace detail

/// reduce(lo, hi, f): the sum under `+=` of f(i) over [lo, hi), from a
/// value-initialized T.  Splits exactly like parallel_for at its default
/// granularity (inline inside a SequentialRegion), so a loop whose body
/// returns its counts forks the same task graph.  The chunks depend on
/// the pool size: meant for exact sums such as core::DpStats.
template <typename F>
auto reduce(std::size_t lo, std::size_t hi, const F& f) {
  if (hi <= lo) return std::decay_t<decltype(f(lo))>{};
  std::size_t n = hi - lo;
  return detail::reduce_rec(
      lo, hi, detail::in_sequential_region() ? n : auto_granularity(n), f);
}

}  // namespace cordon::parallel
