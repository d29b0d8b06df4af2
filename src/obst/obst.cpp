#include "src/obst/obst.hpp"

#include <limits>
#include <span>

#include "src/core/arena.hpp"
#include "src/core/kernels.hpp"
#include "src/core/trace.hpp"
#include "src/parallel/primitives.hpp"

namespace cordon::obst {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Tables {
  std::size_t n;
  std::span<double> d;             // (n+1)^2, row-major; arena scratch
  std::vector<std::uint32_t> root; // result: moved into ObstResult
  std::span<double> prefix;        // prefix[i] = w[0] + ... + w[i-1]

  // The cost table and prefix sums are pure scratch (only `root` leaves
  // this translation unit), so they bump the caller's arena epoch
  // instead of the heap — O(n^2) doubles reused across solves.
  Tables(const std::vector<double>& w, core::Arena& arena)
      : n(w.size()),
        d(arena.make_span<double>((n + 1) * (n + 1), kInf)),
        root((n + 1) * (n + 1), 0),
        prefix(arena.make_span<double>(n + 1, 0.0)) {
    for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + w[i];
    for (std::size_t i = 0; i <= n; ++i) at(i, i) = 0.0;
  }

  double& at(std::size_t i, std::size_t j) { return d[i * (n + 1) + j]; }
  [[nodiscard]] double get(std::size_t i, std::size_t j) const {
    return d[i * (n + 1) + j];
  }
  std::uint32_t& rt(std::size_t i, std::size_t j) {
    return root[i * (n + 1) + j];
  }
  [[nodiscard]] double weight(std::size_t i, std::size_t j) const {
    return prefix[j] - prefix[i];
  }
};

// Fills one cell scanning decisions in [klo, khi] and returns what that
// cost: one state, one relaxation per decision.  The scan is the strided
// min-plus kernel: t.get(i, k) walks row i contiguously while
// t.get(k + 1, j) walks column j with stride n+1.
core::DpStats fill_cell(Tables& t, std::size_t i, std::size_t j,
                        std::size_t klo, std::size_t khi) {
  const std::size_t stride = t.n + 1;
  core::kernels::ArgMin best = core::kernels::argmin_add_strided(
      t.d.data() + i * stride + klo, t.d.data() + (klo + 1) * stride + j,
      stride, khi - klo + 1);
  t.at(i, j) = best.value + t.weight(i, j);
  t.rt(i, j) = static_cast<std::uint32_t>(klo + best.index);
  return {1, khi - klo + 1, 0};
}

ObstResult finish(Tables& t, const core::DpStats& stats) {
  ObstResult res;
  res.n = t.n;
  res.cost = t.get(0, t.n);
  res.root = std::move(t.root);
  res.stats = stats;
  return res;
}

}  // namespace

ObstResult obst_naive(const std::vector<double>& w) {
  core::Arena& arena = core::worker_arena();
  core::ArenaScope scratch(arena);
  Tables t(w, arena);
  core::DpStats stats;
  for (std::size_t delta = 1; delta <= t.n; ++delta) {
    ++stats.rounds;
    telemetry::RoundSpan round_span("obst.round", stats);
    for (std::size_t i = 0; i + delta <= t.n; ++i)
      stats += fill_cell(t, i, i + delta, i, i + delta - 1);
  }
  return finish(t, stats);
}

ObstResult obst_knuth(const std::vector<double>& w) {
  core::Arena& arena = core::worker_arena();
  core::ArenaScope scratch(arena);
  Tables t(w, arena);
  core::DpStats stats;
  for (std::size_t delta = 1; delta <= t.n; ++delta) {
    ++stats.rounds;
    telemetry::RoundSpan round_span("obst.round", stats);
    for (std::size_t i = 0; i + delta <= t.n; ++i) {
      std::size_t j = i + delta;
      // Knuth's ranges: best split is monotone in both endpoints.
      std::size_t klo = delta == 1 ? i : t.rt(i, j - 1);
      std::size_t khi = delta == 1 ? i : std::min<std::size_t>(t.rt(i + 1, j),
                                                               j - 1);
      stats += fill_cell(t, i, j, klo, khi);
    }
  }
  return finish(t, stats);
}

ObstResult obst_parallel(const std::vector<double>& w) {
  core::Arena& arena = core::worker_arena();
  core::ArenaScope scratch(arena);
  Tables t(w, arena);
  core::DpStats stats;
  // Diagonal wavefront: the delta-th cordon frontier is exactly the
  // diagonal j - i == delta (Sec. 5.5); cells of one diagonal are
  // independent given the previous diagonals and can use the same Knuth
  // ranges because rt(i, j-1) and rt(i+1, j) live on earlier diagonals.
  for (std::size_t delta = 1; delta <= t.n; ++delta) {
    ++stats.rounds;
    telemetry::RoundSpan round_span("obst.round", stats);
    std::size_t cells = t.n - delta + 1;
    stats += parallel::reduce(0, cells, [&](std::size_t i) {
      std::size_t j = i + delta;
      std::size_t klo = delta == 1 ? i : t.rt(i, j - 1);
      std::size_t khi =
          delta == 1 ? i : std::min<std::size_t>(t.rt(i + 1, j), j - 1);
      return fill_cell(t, i, j, klo, khi);
    });
  }
  return finish(t, stats);
}

}  // namespace cordon::obst
