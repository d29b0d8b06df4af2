// Thread-sweep suite: the multi-core claim's correctness half.
//
// The scaling harness (scripts/run_benches.sh + check_scaling.py)
// proves the parallel paths get FASTER with workers; this suite proves
// they never get WRONG: every registered family, solved at pool sizes
// {1, 2, 4, 8}, matches the naive reference oracle, and so does each
// routed family's raw parallel algorithm; repeated parallel solves are
// deterministic; and the routing table (core::kRoutes) and round fusion
// route instances between paths without changing a single answer.
//
// Ships its own main() (OWN_MAIN): it restarts the scheduler pool
// between cases (detail::shutdown_pool + set_num_workers), which is
// process-global, so this binary must own its scheduler lifecycle end
// to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string_view>
#include <vector>

#include "src/core/cutoff.hpp"
#include "src/core/telemetry.hpp"
#include "src/engine/instance.hpp"
#include "src/engine/registry.hpp"
#include "src/gap/gap.hpp"
#include "src/glws/costs.hpp"
#include "src/glws/glws.hpp"
#include "src/kglws/kglws.hpp"
#include "src/lcs/lcs.hpp"
#include "src/lis/lis.hpp"
#include "src/oat/oat.hpp"
#include "src/obst/obst.hpp"
#include "src/parallel/random.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/structures/tree_utils.hpp"
#include "src/treeglws/tree_glws.hpp"
#include "test_util.hpp"

namespace cp = cordon::parallel;
namespace core = cordon::core;
namespace engine = cordon::engine;
namespace telemetry = cordon::telemetry;
namespace glws = cordon::glws;
namespace ct = cordon::testing;

namespace {

// Tears down the live pool and brings up a fresh one with exactly
// `workers` workers.  max_workers() >= 8 by contract, so every size in
// the sweep grid is representable without clamping.
void restart_pool(std::size_t workers) {
  cp::detail::shutdown_pool();
  ASSERT_TRUE(cp::set_num_workers(workers));
  cp::ensure_started();
  ASSERT_EQ(cp::num_workers(), workers);
}

double tol(double ref) { return 1e-9 * (1.0 + std::abs(ref)); }

// One routed family as the engine sees it: the routing-table row it
// reads, its work measure on an engine payload, and its raw *_parallel
// algorithm run on that payload (no routing) reduced to the engine's
// headline objective.
struct RoutedFamily {
  const char* key;
  core::Routed family;
  std::size_t (*work)(const engine::Instance&);
  double (*parallel)(const engine::Instance&);
};

const RoutedFamily kRoutedFamilies[] = {
    {"glws", core::Routed::kGlws,
     [](const engine::Instance& inst) -> std::size_t {
       return inst.as<engine::GlwsInstance>().n;
     },
     [](const engine::Instance& inst) {
       const auto& p = inst.as<engine::GlwsInstance>();
       auto r = glws::glws_parallel(p.n, p.d0, p.cost.make(),
                                    glws::identity_e(), p.cost.shape());
       return r.d.back();
     }},
    {"lcs", core::Routed::kLcs,
     [](const engine::Instance& inst) {
       const auto& p = inst.as<engine::LcsInstance>();
       return cordon::lcs::match_pairs_soa(p.a, p.b).size();
     },
     [](const engine::Instance& inst) {
       const auto& p = inst.as<engine::LcsInstance>();
       auto r =
           cordon::lcs::lcs_parallel(cordon::lcs::match_pairs_soa(p.a, p.b));
       return static_cast<double>(r.length);
     }},
    {"lis", core::Routed::kLis,
     [](const engine::Instance& inst) {
       return inst.as<engine::LisInstance>().values.size();
     },
     [](const engine::Instance& inst) {
       return static_cast<double>(
           cordon::lis::lis_parallel(inst.as<engine::LisInstance>().values)
               .length);
     }},
    {"gap", core::Routed::kGap,
     [](const engine::Instance& inst) {
       const auto& p = inst.as<engine::GapInstance>();
       return (p.a.size() + 1) * (p.b.size() + 1);
     },
     [](const engine::Instance& inst) {
       const auto& p = inst.as<engine::GapInstance>();
       return cordon::gap::gap_parallel(p.a, p.b, p.w1.make(), p.w2.make(),
                                        p.w1.shape())
           .distance;
     }},
    {"treeglws", core::Routed::kTreeGlws,
     [](const engine::Instance& inst) {
       return inst.as<engine::TreeGlwsInstance>().parent.size();
     },
     [](const engine::Instance& inst) {
       const auto& p = inst.as<engine::TreeGlwsInstance>();
       cordon::structures::RootedTree t(p.parent);
       auto r = cordon::treeglws::tree_glws_parallel(t, p.d0, p.cost.make(),
                                                     glws::identity_e());
       double sum = 0;  // the adapter's objective: sum of finite D
       for (double v : r.d)
         if (std::isfinite(v)) sum += v;
       return sum;
     }},
};

// glws's engine generator emits single-round instances (the whole
// envelope resolves in one cordon), so multi-round glws is built
// directly: a cheap post-office opening cost over unit-ish gaps forces a
// long best-decision chain, i.e. many rounds lighter than
// core::kFuseRelax.
std::shared_ptr<std::vector<double>> chain_positions(std::size_t n) {
  auto x = std::make_shared<std::vector<double>>(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i)
    (*x)[i] = (*x)[i - 1] + 0.5 + cp::uniform_double(7, i);
  return x;
}

std::vector<std::uint32_t> random_symbols(std::size_t n, std::uint64_t seed,
                                          std::uint64_t alphabet) {
  std::vector<std::uint64_t> v = ct::random_values(n, seed, alphabet);
  return {v.begin(), v.end()};
}

const RoutedFamily* routed(std::string_view key) {
  for (const RoutedFamily& f : kRoutedFamilies)
    if (key == f.key) return &f;
  return nullptr;
}

}  // namespace

TEST(ThreadSweep, AllFamiliesMatchReferenceAtEveryPoolSize) {
  const auto& reg = engine::builtin_registry();
  ASSERT_EQ(reg.size(), 9u);
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    restart_pool(workers);
    for (const auto& solver : reg.solvers()) {
      const RoutedFamily* rf = routed(solver->key());
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        std::uint64_t n = 80 + 90 * seed + 13 * workers;
        engine::Instance inst = solver->generate({n, 5, seed * 77 + workers});
        engine::SolveResult fast = solver->solve(inst);
        engine::SolveResult ref = solver->solve_reference(inst);
        EXPECT_NEAR(fast.objective, ref.objective, tol(ref.objective))
            << solver->key() << " workers=" << workers << " seed=" << seed;
        if (rf == nullptr) {
          EXPECT_EQ(fast.path, core::SolvePath::kParallel) << solver->key();
          continue;
        }
        // The production route follows the table exactly...
        const core::Route& row = core::route_of(rf->family);
        if (workers < row.min_workers || rf->work(inst) < row.seq_below)
          EXPECT_EQ(fast.path, core::SolvePath::kSequentialCutoff)
              << solver->key() << " workers=" << workers;
        else
          EXPECT_EQ(fast.path, core::SolvePath::kParallel)
              << solver->key() << " workers=" << workers;
        // ...and the parallel algorithm it routes around is still right
        // on this pool.
        EXPECT_NEAR(rf->parallel(inst), ref.objective, tol(ref.objective))
            << solver->key() << " parallel, workers=" << workers
            << " seed=" << seed;
      }
    }
  }
}

TEST(ThreadSweep, RepeatedParallelSolvesAreDeterministic) {
  restart_pool(8);
  const auto& reg = engine::builtin_registry();
  for (const auto& solver : reg.solvers()) {
    engine::Instance inst = solver->generate({257, 6, 99});
    // Routed families would take the sequential route at this size;
    // call their parallel algorithm directly.
    const RoutedFamily* rf = routed(solver->key());
    auto solve = [&] {
      return rf != nullptr ? rf->parallel(inst) : solver->solve(inst).objective;
    };
    double first = solve();
    for (int rep = 0; rep < 3; ++rep) {
      // Exact equality: scheduling order must not leak into answers
      // (atomic min-CAS relaxation is order-independent by design).
      EXPECT_EQ(first, solve()) << solver->key() << " rep=" << rep;
    }
  }
}

TEST(ThreadSweep, CutoffRoutesBothSidesOfTheTableThreshold) {
  restart_pool(8);
  const auto& reg = engine::builtin_registry();
  for (const RoutedFamily& rf : kRoutedFamilies) {
    const engine::Solver& solver = reg.at(rf.key);
    const core::Route& row = core::route_of(rf.family);
    ASSERT_GE(cp::num_workers(), row.min_workers) << rf.key;
    // One instance under the family's size threshold, and the smallest
    // generator size (growing by 5/4) whose work measure reaches it.
    engine::Instance below = solver.generate({64, 5, 23});
    ASSERT_LT(rf.work(below), row.seq_below) << rf.key;
    std::uint64_t n = 64;
    engine::Instance above = below;
    while (rf.work(above) < row.seq_below) {
      n += n / 4;
      above = solver.generate({n, 5, 23});
    }
    struct Case {
      const engine::Instance& inst;
      core::SolvePath want;
      std::uint64_t seq_cutoffs;
    } cases[] = {{below, core::SolvePath::kSequentialCutoff, 1},
                 {above, core::SolvePath::kParallel, 0}};
    for (const Case& c : cases) {
      auto base = telemetry::snapshot();
      engine::SolveResult fast = solver.solve(c.inst);
      auto delta = telemetry::snapshot().delta_since(base);
      EXPECT_EQ(fast.path, c.want) << rf.key << " work=" << rf.work(c.inst);
      // The routing decision is visible in telemetry, not just the
      // result struct.
      EXPECT_EQ(delta.counter(telemetry::Counter::kSolverSeqCutoffs),
                c.seq_cutoffs)
          << rf.key << " work=" << rf.work(c.inst);
      if (c.want == core::SolvePath::kParallel)
        EXPECT_GE(delta.counter(telemetry::Counter::kSolverRounds), 1u)
            << rf.key;
      engine::SolveResult ref = solver.solve_reference(c.inst);
      EXPECT_NEAR(fast.objective, ref.objective, tol(ref.objective))
          << rf.key << " work=" << rf.work(c.inst);
    }
  }
}

TEST(ThreadSweep, RoundFusionDoesNotChangeAnswers) {
  restart_pool(8);

  // glws in the high-round/low-work regime fusion targets (see
  // chain_positions).
  {
    const std::size_t n = 3000;
    glws::CostFn w = glws::post_office_cost(chain_positions(n), 20.0);
    glws::EFn e = glws::identity_e();
    auto base = telemetry::snapshot();
    glws::GlwsResult fused =
        glws::glws_parallel(n, 0.0, w, e, glws::Shape::kConvex);
    EXPECT_GE(telemetry::snapshot().delta_since(base).counter(
                  telemetry::Counter::kSolverFusedRounds),
              1u);
    ASSERT_GT(fused.stats.rounds, 1u) << "need a multi-round instance";
    glws::GlwsResult seq =
        glws::glws_sequential(n, 0.0, w, e, glws::Shape::kConvex);
    EXPECT_NEAR(fused.d[n], seq.d[n], tol(seq.d[n]));
  }

  // lcs and gap at sizes whose later rounds fall under the floor.
  const auto& reg = engine::builtin_registry();
  for (const char* key : {"lcs", "gap"}) {
    const engine::Solver& solver = reg.at(key);
    engine::Instance inst = solver.generate({200, 7, 31});
    auto base = telemetry::snapshot();
    double fused = routed(key)->parallel(inst);
    EXPECT_GE(telemetry::snapshot().delta_since(base).counter(
                  telemetry::Counter::kSolverFusedRounds),
              1u)
        << key;
    engine::SolveResult ref = solver.solve_reference(inst);
    EXPECT_NEAR(fused, ref.objective, tol(ref.objective)) << key;
  }
}

// Every solver's DpStats is part of its contract (the paper's work and
// span bounds are stated in relaxations and rounds), and each parallel
// body counts its own share and hands it back through the fork-join.
// Pin the exact counts of every parallel path on fixed instances: they
// must not depend on the pool size, and a dropped or double-counted
// evaluation anywhere in a parallel body (envelope merge, argmin leaf,
// probe loop) changes a number here.  The goldens were recorded from the
// shared-atomic-counter implementation these bodies replaced.
TEST(ThreadSweep, ParallelPathStatsArePinnedAtEveryPoolSize) {
  struct Pinned {
    const char* name;
    core::DpStats (*run)();
    core::DpStats want;
  };
  using cordon::structures::RootedTree;
  static const Pinned kPinned[] = {
      {"glws_parallel convex",
       [] {
         const std::size_t n = 3000;
         return glws::glws_parallel(
                    n, 0.0, glws::post_office_cost(chain_positions(n), 20.0),
                    glws::identity_e(), glws::Shape::kConvex)
             .stats;
       },
       {3008, 106022, 631}},
      // A huge opening cost makes the first frontier ~10^3 states wide,
      // so FindIntervals' argmin splits above its sequential leaf.
      {"glws_parallel convex wide",
       [] {
         const std::size_t n = 3000;
         return glws::glws_parallel(
                    n, 0.0, glws::post_office_cost(chain_positions(n), 1e6),
                    glws::identity_e(), glws::Shape::kConvex)
             .stats;
       },
       {3000, 87191, 3}},
      {"glws_parallel concave wide",
       [] {
         const std::size_t n = 3000;
         return glws::glws_parallel(
                    n, 0.0, glws::sqrt_span_cost(chain_positions(n), 0.5),
                    glws::identity_e(), glws::Shape::kConcave)
             .stats;
       },
       {3000, 9076, 4}},
      // A small per-index discount on E turns concave economies of scale
      // into a long chain: ~2000 rounds, each with an Alg. 2 merge.
      {"glws_parallel concave",
       [] {
         const std::size_t n = 3000;
         glws::EFn e = [](double d, std::size_t j) {
           return d - 0.002 * static_cast<double>(j);
         };
         return glws::glws_parallel(
                    n, 0.0, glws::sqrt_span_cost(chain_positions(n), 2.0), e,
                    glws::Shape::kConcave)
             .stats;
       },
       {3033, 31267, 2011}},
      {"gap_parallel convex",
       [] {
         return cordon::gap::gap_parallel(
                    random_symbols(150, 3, 4), random_symbols(140, 4, 4),
                    cordon::gap::quadratic_gap_cost(2.0, 0.25),
                    cordon::gap::quadratic_gap_cost(3.0, 0.20),
                    glws::Shape::kConvex)
             .stats;
       },
       {28983, 891891, 198}},
      {"gap_parallel concave",
       [] {
         return cordon::gap::gap_parallel(
                    random_symbols(150, 5, 4), random_symbols(140, 6, 4),
                    cordon::gap::log_gap_cost(1.0, 2.0),
                    cordon::gap::log_gap_cost(1.5, 2.0), glws::Shape::kConcave)
             .stats;
       },
       {35369, 406166, 96}},
      {"tree_glws_parallel",
       [] {
         RootedTree t(ct::random_tree_parents(3000, 17));
         auto x = ct::random_positions(3000, 18);
         glws::CostFn w = [x](std::size_t du, std::size_t dv) {
           double s = (*x)[dv] - (*x)[du];
           return 20.0 + 0.1 * s * s;
         };
         return cordon::treeglws::tree_glws_parallel(t, 0.0, w,
                                                     glws::identity_e())
             .stats;
       },
       {3844, 57544, 7}},
      {"obst_parallel",
       [] {
         auto v = ct::random_values(300, 21, 1000);
         std::vector<double> w(v.begin(), v.end());
         return cordon::obst::obst_parallel(w).stats;
       },
       {45150, 89574, 300}},
      {"kglws_dc",
       [] {
         const std::size_t n = 5000;
         return cordon::kglws::kglws_dc(n, 4, ct::random_convex_cost(n, 23))
             .stats;
       },
       {20000, 251770, 4}},
      {"lis_parallel",
       [] {
         return cordon::lis::lis_parallel(ct::random_values(5000, 25, 1u << 20))
             .stats;
       },
       {5000, 5000, 135}},
      {"lcs_parallel",
       [] {
         return cordon::lcs::lcs_parallel(
                    cordon::lcs::match_pairs_soa(random_symbols(2000, 27, 16),
                                                 random_symbols(2000, 28, 16)))
             .stats;
       },
       {250483, 250483, 779}},
      {"oat_parallel",
       [] {
         auto v = ct::random_values(3000, 29, 1000);
         std::vector<double> w;
         for (std::uint64_t x : v) w.push_back(static_cast<double>(x + 1));
         return cordon::oat::oat_parallel(w).stats;
       },
       {22617, 809331, 26}},
  };
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    restart_pool(workers);
    for (const Pinned& p : kPinned) {
      core::DpStats got = p.run();
      EXPECT_EQ(got.states, p.want.states) << p.name << " workers=" << workers;
      EXPECT_EQ(got.relaxations, p.want.relaxations)
          << p.name << " workers=" << workers;
      EXPECT_EQ(got.rounds, p.want.rounds) << p.name << " workers=" << workers;
    }
  }
}

// oat_parallel's marking pass forks only in rounds of more than
// kOatMarkGrain pairs.  Just below the grain (no fork), just above it
// (one split), well above it, and on the two monotone shapes, it must
// build exactly the l-tree sequential Garsia-Wachs builds.  Weights come
// from a 2^20 range: with many equal 2-sums the two may pick different
// (equally optimal) trees.
TEST(ThreadSweep, OatMarkingPassMatchesGarsiaWachsAcrossItsGrain) {
  const std::size_t g = cordon::oat::kOatMarkGrain;
  auto weights = [](std::size_t n, std::uint64_t seed) {
    std::vector<double> w;
    for (std::uint64_t x : ct::random_values(n, seed, 1u << 20))
      w.push_back(static_cast<double>(x + 1));
    return w;
  };
  struct Input {
    const char* name;
    std::vector<double> w;
  };
  std::vector<Input> inputs = {{"below (n = grain)", weights(g, 41)},
                               {"above (n = grain + 2)", weights(g + 2, 42)},
                               {"n = 4 * grain", weights(4 * g, 43)}};
  std::vector<double> sorted = weights(g + 2, 44);
  std::sort(sorted.begin(), sorted.end());
  inputs.push_back({"sorted", sorted});
  std::reverse(sorted.begin(), sorted.end());
  inputs.push_back({"reverse-sorted", sorted});
  for (std::size_t workers : {1u, 4u}) {
    restart_pool(workers);
    for (const Input& in : inputs)
      EXPECT_EQ(cordon::oat::oat_parallel(in.w).levels,
                cordon::oat::oat_garsia_wachs(in.w).levels)
          << in.name << " workers=" << workers;
  }
}

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  int rc = RUN_ALL_TESTS();
  // Leave no pool behind: workers joined before static teardown.
  cordon::parallel::detail::shutdown_pool();
  return rc;
}
