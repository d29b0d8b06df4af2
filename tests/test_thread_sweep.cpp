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
#include "src/lcs/lcs.hpp"
#include "src/parallel/random.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/treeglws/tree_glws.hpp"

namespace cp = cordon::parallel;
namespace core = cordon::core;
namespace engine = cordon::engine;
namespace telemetry = cordon::telemetry;
namespace glws = cordon::glws;

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

  // glws's engine generator emits single-round instances (the whole
  // envelope resolves in one cordon), so drive the high-round/low-work
  // regime fusion targets directly: a cheap post-office opening cost
  // forces a long best-decision chain, i.e. many rounds lighter than
  // core::kFuseRelax.
  {
    const std::size_t n = 3000;
    auto x = std::make_shared<std::vector<double>>(n + 1, 0.0);
    for (std::size_t i = 1; i <= n; ++i)
      (*x)[i] = (*x)[i - 1] + 0.5 + cp::uniform_double(7, i);
    glws::CostFn w = glws::post_office_cost(x, 20.0);
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

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  int rc = RUN_ALL_TESTS();
  // Leave no pool behind: workers joined before static teardown.
  cordon::parallel::detail::shutdown_pool();
  return rc;
}
