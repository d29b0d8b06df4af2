// Microbenchmarks (google-benchmark) for the data-structure substrates:
// tournament-tree extraction and persistent-treap ops.
// These quantify the constants behind the per-round costs of the cordon
// algorithms.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/parallel/random.hpp"
#include "src/structures/persistent_treap.hpp"
#include "src/structures/tournament_tree.hpp"

namespace cp = cordon::parallel;
namespace cs = cordon::structures;

static void BM_TournamentFullDrain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = cp::hash64(1, i);
  for (auto _ : state) {
    cs::TournamentTree tree(keys);
    std::size_t total = 0;
    while (!tree.empty()) total += tree.extract_prefix_minima().size();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TournamentFullDrain)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

static void BM_TreapInsertChain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    cs::PersistentIntervalTreap pool;
    auto t = pool.build({{0, n, 0}});
    for (std::size_t k = 1; k < n; ++k) {
      auto [l, r] = pool.split(t, k);
      benchmark::DoNotOptimize(r);
      t = pool.insert(l, {k, n, k});
    }
    benchmark::DoNotOptimize(pool.arena_size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TreapInsertChain)->Arg(1 << 10)->Arg(1 << 14);

BENCHMARK_MAIN();
