// Parallel sequence primitives: map, reduce, scan, pack/filter, merge.
//
// These mirror the ParlayLib primitives the paper's implementation relies
// on.  All primitives are deterministic.  min_index and scan_exclusive
// split at the fixed kSeqThreshold, so their combine order does not
// depend on the pool size; reduce splits like parallel_for and is for
// exact sums such as the solvers' work counters.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

#include "src/parallel/scheduler.hpp"

namespace cordon::parallel {

/// Sequential leaf size of min_index and scan_exclusive.
inline constexpr std::size_t kSeqThreshold = 2048;

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

template <typename T>
T reduce_add(const std::vector<T>& v) {
  return reduce(0, v.size(), [&](std::size_t i) { return v[i]; });
}

/// Index of a minimum of f over [lo, hi) (leftmost minimum; hi if empty).
template <typename F>
std::size_t min_index(std::size_t lo, std::size_t hi, const F& f) {
  if (hi <= lo) return hi;
  if (hi - lo <= kSeqThreshold) {
    std::size_t best = lo;
    for (std::size_t i = lo + 1; i < hi; ++i)
      if (f(i) < f(best)) best = i;
    return best;
  }
  std::size_t mid = lo + (hi - lo) / 2;
  std::size_t l = 0, r = 0;
  par_do([&] { l = min_index(lo, mid, f); },
         [&] { r = min_index(mid, hi, f); });
  return f(r) < f(l) ? r : l;
}

/// Exclusive scan (prefix sums) of v under op in place; returns the total.
/// Blocked two-pass algorithm: per-block sums, scan of sums, local scans.
template <typename T, typename Op>
T scan_exclusive(std::vector<T>& v, T identity, const Op& op) {
  std::size_t n = v.size();
  if (n == 0) return identity;
  if (n <= kSeqThreshold) {
    T acc = identity;
    for (std::size_t i = 0; i < n; ++i) {
      T next = op(acc, v[i]);
      v[i] = acc;
      acc = next;
    }
    return acc;
  }
  std::size_t nblocks = (n + kSeqThreshold - 1) / kSeqThreshold;
  std::vector<T> sums(nblocks, identity);
  parallel_for(0, nblocks, [&](std::size_t b) {
    std::size_t lo = b * kSeqThreshold, hi = std::min(n, lo + kSeqThreshold);
    T acc = identity;
    for (std::size_t i = lo; i < hi; ++i) acc = op(acc, v[i]);
    sums[b] = acc;
  });
  T total = identity;
  for (std::size_t b = 0; b < nblocks; ++b) {
    T next = op(total, sums[b]);
    sums[b] = total;
    total = next;
  }
  parallel_for(0, nblocks, [&](std::size_t b) {
    std::size_t lo = b * kSeqThreshold, hi = std::min(n, lo + kSeqThreshold);
    T acc = sums[b];
    for (std::size_t i = lo; i < hi; ++i) {
      T next = op(acc, v[i]);
      v[i] = acc;
      acc = next;
    }
  });
  return total;
}

template <typename T>
T scan_add(std::vector<T>& v) {
  return scan_exclusive(v, T{}, std::plus<T>{});
}

/// pack: keep v[i] where flag(i) is true, preserving order.
template <typename T, typename Flag>
std::vector<T> pack(const std::vector<T>& v, const Flag& flag) {
  std::size_t n = v.size();
  std::vector<std::size_t> offsets(n);
  parallel_for(0, n,
               [&](std::size_t i) { offsets[i] = flag(i) ? 1u : 0u; });
  std::size_t total = scan_add(offsets);
  std::vector<T> out(total);
  parallel_for(0, n, [&](std::size_t i) {
    if (flag(i)) out[offsets[i]] = v[i];
  });
  return out;
}

/// filter by predicate on values.
template <typename T, typename Pred>
std::vector<T> filter(const std::vector<T>& v, const Pred& pred) {
  return pack(v, [&](std::size_t i) { return pred(v[i]); });
}

/// tabulate: out[i] = f(i) for i in [0, n).
template <typename F>
auto tabulate(std::size_t n, const F& f) {
  using T = decltype(f(std::size_t{0}));
  std::vector<T> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

}  // namespace cordon::parallel
