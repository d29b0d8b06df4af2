// Unified engine: registry completeness, randomized cross-validation of
// every registered solver against its naive oracle (DpDag::evaluate /
// ExplicitCordon semantics), instance serialization round-trips, and the
// batch executor.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/cordon.hpp"
#include "src/engine/batch_executor.hpp"
#include "src/engine/instance.hpp"
#include "src/engine/registry.hpp"
#include "src/parallel/scheduler.hpp"
#include "test_util.hpp"

namespace ce = cordon::engine;
using cordon::testing::expect_objective_near;

namespace {

const std::vector<std::string> kAllKinds = {"glws", "kglws", "lis",
                                            "lcs",  "gap",   "oat",
                                            "obst", "treeglws", "dag"};

}  // namespace

// --- registry ---------------------------------------------------------------

TEST(Registry, AllNineFamiliesRegistered) {
  const auto& reg = ce::builtin_registry();
  EXPECT_EQ(reg.size(), kAllKinds.size());
  for (const std::string& kind : kAllKinds) {
    const ce::Solver* s = reg.find(kind);
    ASSERT_NE(s, nullptr) << kind;
    EXPECT_EQ(s->key(), kind);
    EXPECT_FALSE(s->description().empty());
  }
}

TEST(Registry, UnknownKeyThrows) {
  const auto& reg = ce::builtin_registry();
  EXPECT_EQ(reg.find("no-such-problem"), nullptr);
  EXPECT_THROW((void)reg.at("no-such-problem"), std::out_of_range);
}

TEST(Registry, DuplicateKeyRejected) {
  // Re-registering a family into a registry that already has it throws.
  ce::ProblemRegistry reg;
  ce::register_lis(reg);
  EXPECT_THROW(ce::register_lis(reg), std::invalid_argument);
}

// --- cross-validation against the oracles -----------------------------------

struct EngineCase {
  std::string kind;
  std::uint64_t n;
  std::uint64_t seed;
};

class SolverSweep : public ::testing::TestWithParam<EngineCase> {};

TEST_P(SolverSweep, OptimizedMatchesOracle) {
  auto [kind, n, seed] = GetParam();
  const ce::Solver& solver = ce::builtin_registry().at(kind);
  ce::Instance inst = solver.generate({n, /*k=*/4, seed});
  EXPECT_EQ(inst.kind, kind);

  ce::SolveResult fast = solver.solve(inst);
  ce::SolveResult ref = solver.solve_reference(inst);
  expect_objective_near(fast.objective, ref.objective,
                        kind + " n=" + std::to_string(n) +
                            " seed=" + std::to_string(seed));
  EXPECT_FALSE(fast.detail.empty());
}

TEST_P(SolverSweep, SerializationRoundTripsExactly) {
  auto [kind, n, seed] = GetParam();
  const ce::Solver& solver = ce::builtin_registry().at(kind);
  ce::Instance inst = solver.generate({n, /*k=*/4, seed});

  std::string text = ce::to_string(inst);
  ce::Instance back = ce::from_string(text);
  EXPECT_EQ(back.kind, inst.kind);
  // Byte-identical re-serialization: parse loses nothing.
  EXPECT_EQ(ce::to_string(back), text);
  // And the parsed instance solves to the same objective.
  expect_objective_near(solver.solve(back).objective,
                        solver.solve(inst).objective, kind + " round-trip");
}

TEST_P(SolverSweep, CanonicalHashStableAcrossRoundTrip) {
  auto [kind, n, seed] = GetParam();
  const ce::Solver& solver = ce::builtin_registry().at(kind);
  ce::Instance inst = solver.generate({n, /*k=*/4, seed});

  ce::InstanceKey key = ce::canonical_key(inst);
  EXPECT_EQ(key.hash, ce::instance_hash(inst));

  // Parse -> re-canonicalize is the identity: the binary key survives a
  // trip through the text format, so equal instances hash equal.
  EXPECT_EQ(ce::canonical_key(ce::from_string(ce::to_string(inst))), key)
      << kind << " round-trip";
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SolverSweep, ::testing::ValuesIn([] {
      std::vector<EngineCase> cases;
      for (const std::string& kind : kAllKinds)
        for (std::uint64_t seed : {1ull, 2ull, 3ull})
          cases.push_back({kind, 40 + 13 * seed, seed});
      return cases;
    }()),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.kind + "_s" + std::to_string(info.param.seed);
    });

// --- per-family semantics through the uniform interface ---------------------

TEST(Engine, DepthReportersAreConsistent) {
  // Families with perfect parallelizations certify effective depth ==
  // rounds; the dag solver computes d^(G) exactly and rounds can only be
  // bounded by it from below... (rounds <= depth for successful-relaxation
  // sentinels, and >= 1).  lis and lcs report their depth, the sequence
  // length (Thms 3.1/3.2), on both routes; only the parallel route runs
  // rounds, and then exactly that many.
  const auto& reg = ce::builtin_registry();
  for (const std::string& kind : {"lis", "lcs", "kglws"}) {
    ce::Instance inst = reg.at(kind).generate({120, 6, 9});
    ce::SolveResult r = reg.at(kind).solve(inst);
    if (kind != "kglws")
      EXPECT_EQ(r.effective_depth, static_cast<std::uint64_t>(r.objective))
          << kind;
    if (r.path == cordon::core::SolvePath::kParallel)
      EXPECT_EQ(r.effective_depth, r.stats.rounds) << kind;
    else
      EXPECT_EQ(r.stats.rounds, 0u) << kind;
  }
  ce::Instance dag = reg.at("dag").generate({120, 6, 9});
  ce::SolveResult r = reg.at("dag").solve(dag);
  EXPECT_GE(r.effective_depth, 1u);
  EXPECT_LE(r.stats.rounds, r.effective_depth);
}

TEST(Engine, KglwsRejectsConcaveCost) {
  ce::KglwsInstance p;
  p.n = 10;
  p.k = 2;
  p.cost.family = ce::CostSpec::Family::kLogarithmic;
  ce::Instance inst{"kglws", p};
  EXPECT_THROW((void)ce::builtin_registry().at("kglws").solve(inst),
               std::invalid_argument);
}

TEST(Engine, PayloadKindMismatchThrows) {
  ce::Instance inst{"lis", ce::ObstInstance{{1.0, 2.0}}};
  EXPECT_THROW((void)ce::builtin_registry().at("lis").solve(inst),
               std::invalid_argument);
}

TEST(Engine, DagBoundaryOnInnerStateMatchesOracle) {
  // A boundary value on a state that also has in-edges must enter the
  // cordon's initial tentative values exactly as evaluate() sees it
  // (regression: ExplicitCordon used to recover boundaries only for
  // in-degree-0 states, yielding 10 instead of min(5, 0+10) = 5 here).
  ce::Instance inst = ce::from_string(
      "cordon-instance v1 dag\n"
      "states 2\n"
      "boundary 0 0\n"
      "boundary 1 5\n"
      "edge 0 1 10\n"
      "end\n");
  const ce::Solver& dag = ce::builtin_registry().at("dag");
  ce::SolveResult fast = dag.solve(inst);
  ce::SolveResult ref = dag.solve_reference(inst);
  EXPECT_DOUBLE_EQ(ref.objective, 5.0);
  EXPECT_DOUBLE_EQ(fast.objective, ref.objective);
}

TEST(Engine, DagInstanceValidation) {
  ce::DagInstance p;
  p.n = 3;
  p.boundary.emplace_back(0, 0.0);
  p.edges.push_back({2, 1, 1.0, true});  // src >= dst
  EXPECT_THROW((void)ce::builtin_registry().at("dag").solve({"dag", p}),
               std::invalid_argument);
}

// --- parse errors -----------------------------------------------------------

TEST(InstanceFormat, RejectsGarbage) {
  EXPECT_THROW((void)ce::from_string("not an instance\n"), std::runtime_error);
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 martian\nend\n"),
               std::runtime_error);
  EXPECT_THROW((void)ce::from_string("cordon-instance v2 lis\nend\n"),
               std::runtime_error);
  // Missing "end".
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 lis\nvalues 1 2\n"),
               std::runtime_error);
  // Unknown key for the kind.
  EXPECT_THROW(
      (void)ce::from_string("cordon-instance v1 lis\nweights 1\nend\n"),
      std::runtime_error);
  // Unknown cost family.
  EXPECT_THROW((void)ce::from_string(
                   "cordon-instance v1 glws\nn 5\ncost cubic 1 1\nend\n"),
               std::invalid_argument);
  // Malformed optional effective flag must error, not silently default.
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 dag\nstates 2\n"
                                     "edge 0 1 2.0 false\nend\n"),
               std::runtime_error);
}

TEST(InstanceFormat, DeclaredSizeCapsRejectHostilePayloads) {
  // A few bytes of text must not be able to request petabytes: declared
  // sizes are capped at parse time (kMaxDeclaredSize)...
  const std::string huge = std::to_string(ce::kMaxDeclaredSize + 1);
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 glws\nn " + huge +
                                     "\ncost affine 1 1\nend\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 kglws\nn " + huge +
                                     "\nk 2\ncost affine 1 1\nend\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 kglws\nn 10\nk " +
                                     huge + "\ncost affine 1 1\nend\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ce::from_string("cordon-instance v1 dag\nstates " + huge +
                                     "\nend\n"),
               std::invalid_argument);
  // ...values at the cap parse fine (the cap is a ceiling, not a shrink).
  ce::Instance ok = ce::from_string("cordon-instance v1 glws\nn 64\n"
                                    "cost affine 1 1\nend\n");
  EXPECT_EQ(ok.as<ce::GlwsInstance>().n, 64u);
}

TEST(Engine, HostileInMemoryInstancesFailTheSolveNotTheProcess) {
  // Payloads built directly (never parsed) are validated at solve time,
  // so through the service they surface as a failed future, not an OOM.
  const auto& reg = ce::builtin_registry();
  ce::GlwsInstance glws;
  glws.n = ce::kMaxDeclaredSize + 1;
  EXPECT_THROW((void)reg.at("glws").solve({"glws", glws}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.at("glws").solve_reference({"glws", glws}),
               std::invalid_argument);

  ce::KglwsInstance kglws;
  kglws.n = ce::kMaxDeclaredSize + 1;
  kglws.k = 2;
  EXPECT_THROW((void)reg.at("kglws").solve({"kglws", kglws}),
               std::invalid_argument);

  ce::DagInstance dag;
  dag.n = ce::kMaxDeclaredSize + 1;
  EXPECT_THROW((void)reg.at("dag").solve({"dag", dag}), std::invalid_argument);

  // Out-of-range boundary states are caught before DpDag sees them.
  ce::DagInstance bad_boundary;
  bad_boundary.n = 3;
  bad_boundary.boundary.emplace_back(7, 0.0);
  EXPECT_THROW((void)reg.at("dag").solve({"dag", bad_boundary}),
               std::invalid_argument);
}

TEST(InstanceFormat, CommentsBlankLinesAndWrappedVectorsParse) {
  ce::Instance inst = ce::from_string(
      "# a hand-written workload\n"
      "cordon-instance v1 lis\n"
      "\n"
      "values 3 1 4   # first chunk\n"
      "values 1 5\n"
      "end\n");
  const auto& p = inst.as<ce::LisInstance>();
  EXPECT_EQ(p.values, (std::vector<std::uint64_t>{3, 1, 4, 1, 5}));
}

// --- batch executor ---------------------------------------------------------

TEST(BatchExecutor, ParallelMatchesSequentialOnMixedQueue) {
  const auto& reg = ce::builtin_registry();
  std::vector<ce::Instance> queue;
  for (const std::string& kind : kAllKinds)
    for (std::uint64_t seed : {10ull, 20ull})
      queue.push_back(reg.at(kind).generate({50, 3, seed}));

  ce::BatchExecutor exec(reg);
  ce::BatchReport par = exec.run(queue, {.parallel = true});
  ce::BatchReport seq = exec.run(queue, {.parallel = false});

  ASSERT_EQ(par.items.size(), queue.size());
  ASSERT_EQ(seq.items.size(), queue.size());
  EXPECT_EQ(par.failed, 0u);
  EXPECT_EQ(seq.failed, 0u);
  for (std::size_t i = 0; i < queue.size(); ++i) {
    ASSERT_TRUE(par.items[i].ok) << i << ": " << par.items[i].error;
    EXPECT_EQ(par.items[i].kind, queue[i].kind);
    expect_objective_near(par.items[i].result.objective,
                          seq.items[i].result.objective,
                          "batch item " + std::to_string(i));
    EXPECT_GE(par.items[i].latency_s, 0.0);
  }
  EXPECT_EQ(par.stats.requests, queue.size());
  EXPECT_GT(par.stats.total.rounds, 0u);
  EXPECT_GE(par.stats.max_latency_s, par.stats.mean_latency_s());
  EXPECT_GT(par.stats.max_effective_depth, 0u);
}

TEST(BatchExecutor, ReferenceModeUsesOracles) {
  const auto& reg = ce::builtin_registry();
  std::vector<ce::Instance> queue = {reg.at("lis").generate({60, 1, 4}),
                                     reg.at("glws").generate({60, 1, 4})};
  ce::BatchExecutor exec(reg);
  ce::BatchReport fast = exec.run(queue, {.use_reference = false});
  ce::BatchReport ref = exec.run(queue, {.use_reference = true});
  for (std::size_t i = 0; i < queue.size(); ++i)
    expect_objective_near(fast.items[i].result.objective,
                          ref.items[i].result.objective,
                          "reference batch item " + std::to_string(i));
}

TEST(BatchExecutor, UnknownKindFailsTheItemNotTheBatch) {
  const auto& reg = ce::builtin_registry();
  std::vector<ce::Instance> queue = {reg.at("lis").generate({30, 1, 1}),
                                     {"martian", ce::LisInstance{{1, 2}}}};
  ce::BatchReport rep = ce::BatchExecutor(reg).run(queue);
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_TRUE(rep.items[0].ok);
  EXPECT_FALSE(rep.items[1].ok);
  EXPECT_NE(rep.items[1].error.find("martian"), std::string::npos);
  EXPECT_EQ(rep.stats.requests, 1u);  // failures excluded from aggregates
}

// --- satellites exercised through the engine --------------------------------

TEST(ParallelFor, GranularityFloorParameterCoversAllIndices) {
  // A 3-iteration loop with the default floor runs inline; with floor 1
  // it forks.  Either way every index must run exactly once.
  for (std::size_t floor : {1ul, 64ul}) {
    std::vector<int> hits(3, 0);
    cordon::parallel::parallel_for(
        0, hits.size(), [&](std::size_t i) { ++hits[i]; },
        /*granularity=*/1, /*granularity_floor=*/floor);
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 1})) << "floor=" << floor;
  }
}

TEST(ExplicitCordon, WellFormedGeneratedDagsNeverReportStuckStates) {
  // The empty-frontier throw guards an internal invariant; every DAG
  // constructible through the public API must finalize all states.
  const ce::Solver& dag = ce::builtin_registry().at("dag");
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    ce::Instance inst = dag.generate({80, 1, seed});
    EXPECT_NO_THROW((void)dag.solve(inst)) << "seed=" << seed;
  }
}

// --- canonicalization & hashing ---------------------------------------------

TEST(InstanceHash, DistinctInstancesRarelyCollide) {
  // Spot check per family: different seeds (and different kinds) give
  // different hashes.  Collisions are possible only by (2^-64) chance.
  std::set<std::uint64_t> seen;
  std::size_t generated = 0;
  for (const std::string& kind : kAllKinds) {
    const ce::Solver& solver = ce::builtin_registry().at(kind);
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
      seen.insert(ce::instance_hash(solver.generate({50, 4, seed})));
      ++generated;
    }
  }
  EXPECT_EQ(seen.size(), generated);
}

TEST(InstanceHash, SensitiveToEveryField) {
  ce::GlwsInstance base{100, 0.5, {ce::CostSpec::Family::kAffine, 1.0, 2.0}};
  auto hash_of = [](const ce::GlwsInstance& p) {
    return ce::instance_hash(ce::Instance{"glws", p});
  };
  std::uint64_t h0 = hash_of(base);

  ce::GlwsInstance m = base;
  m.n = 101;
  EXPECT_NE(hash_of(m), h0);
  m = base;
  m.d0 = 0.25;
  EXPECT_NE(hash_of(m), h0);
  m = base;
  m.cost.open = 1.5;
  EXPECT_NE(hash_of(m), h0);
  m = base;
  m.cost.scale = 2.5;
  EXPECT_NE(hash_of(m), h0);
  m = base;
  m.cost.family = ce::CostSpec::Family::kQuadratic;
  EXPECT_NE(hash_of(m), h0);

  // The kind participates too: identical payload, different solver.
  EXPECT_NE(ce::instance_hash(ce::Instance{"oat", ce::OatInstance{{1, 2}}}),
            ce::instance_hash(ce::Instance{"obst", ce::ObstInstance{{1, 2}}}));
}

TEST(InstanceHash, EqualPayloadsHashEqual) {
  // Two independently constructed but identical payloads canonicalize
  // identically (no address/ordering leakage).
  ce::Instance a{"lis", ce::LisInstance{{5, 3, 9, 1}}};
  ce::Instance b{"lis", ce::LisInstance{{5, 3, 9, 1}}};
  EXPECT_EQ(ce::canonical_key(a), ce::canonical_key(b));
}

TEST(InstanceKey, SignedZeroWeightsStayDistinct) {
  // "-0" and "0" are different texts, so they must be different keys.
  ce::Instance neg{"oat", ce::OatInstance{{1.0, -0.0, 2.0}}};
  ce::Instance pos{"oat", ce::OatInstance{{1.0, 0.0, 2.0}}};
  EXPECT_NE(ce::canonical_key(neg), ce::canonical_key(pos));
}

TEST(InstanceKey, LastElementOfEveryVectorFieldCounts) {
  // Bumping the final element of each vector field changes the key: the
  // whole vector is covered, not a prefix.
  auto add = [&](const std::string& kind, const ce::Payload& base,
                 auto&& mutate) {
    ce::Instance a{kind, base};
    ce::Instance b{kind, base};
    mutate(b.payload);
    EXPECT_NE(ce::canonical_key(a), ce::canonical_key(b)) << kind;
  };
  add("lis", ce::LisInstance{{5, 3, 9}},
      [](ce::Payload& p) { std::get<ce::LisInstance>(p).values.back() += 1; });
  ce::LcsInstance lcs{{1, 2, 3}, {3, 2, 1}};
  add("lcs", lcs,
      [](ce::Payload& p) { std::get<ce::LcsInstance>(p).a.back() += 1; });
  add("lcs", lcs,
      [](ce::Payload& p) { std::get<ce::LcsInstance>(p).b.back() += 1; });
  ce::GapInstance gap{{1, 2, 3}, {3, 2, 1}, {}, {}};
  add("gap", gap,
      [](ce::Payload& p) { std::get<ce::GapInstance>(p).a.back() += 1; });
  add("gap", gap,
      [](ce::Payload& p) { std::get<ce::GapInstance>(p).b.back() += 1; });
  add("oat", ce::OatInstance{{1.0, 2.0, 3.0}}, [](ce::Payload& p) {
    std::get<ce::OatInstance>(p).weights.back() += 0.5;
  });
  add("obst", ce::ObstInstance{{1.0, 2.0, 3.0}}, [](ce::Payload& p) {
    std::get<ce::ObstInstance>(p).weights.back() += 0.5;
  });
  add("treeglws", ce::TreeGlwsInstance{{0xffffffffu, 0, 0}, 0.0, {}},
      [](ce::Payload& p) {
        std::get<ce::TreeGlwsInstance>(p).parent.back() = 1;
      });
  ce::DagInstance dag;
  dag.n = 3;
  dag.boundary = {{0, 0.0}, {1, 2.0}};
  dag.edges = {{0, 1, 1.0, true}, {1, 2, 2.0, true}};
  add("dag", dag, [](ce::Payload& p) {
    std::get<ce::DagInstance>(p).boundary.back().second += 1.0;
  });
  add("dag", dag, [](ce::Payload& p) {
    std::get<ce::DagInstance>(p).edges.back().weight += 1.0;
  });
}

TEST(InstanceKey, DagEdgeEffectiveFlagCounts) {
  ce::DagInstance a;
  a.n = 2;
  a.boundary = {{0, 0.0}};
  a.edges = {{0, 1, 1.5, true}};
  ce::DagInstance b = a;
  b.edges[0].effective = false;
  EXPECT_NE(ce::canonical_key(ce::Instance{"dag", a}),
            ce::canonical_key(ce::Instance{"dag", b}));
}

TEST(InstanceKey, NeverCollidesWithSessionVersionKeys) {
  // The service stores "cordon-session ..." version keys in the same
  // cache as instance keys; no instance key may start that way.
  for (const std::string& kind : kAllKinds) {
    const ce::Solver& solver = ce::builtin_registry().at(kind);
    std::string bytes = ce::canonical_key(solver.generate({30, 4, 7})).bytes;
    EXPECT_FALSE(bytes.starts_with("cordon-session")) << kind;
    EXPECT_EQ(bytes.front(), '\0') << kind;
  }
  ce::Instance named{"cordon-session", ce::LisInstance{{1}}};
  EXPECT_FALSE(ce::canonical_key(named).bytes.starts_with("cordon-session"));
}

TEST(InstanceKey, BytesIntoReusesTheBufferAndMatchesTheKey) {
  const ce::Solver& lis = ce::builtin_registry().at("lis");
  ce::Instance big = lis.generate({500, 4, 3});
  ce::Instance small = lis.generate({20, 4, 3});
  std::string buf;
  EXPECT_EQ(ce::canonical_bytes_into(big, buf), ce::instance_hash(big));
  EXPECT_EQ(buf, ce::canonical_key(big).bytes);
  // A second call overwrites rather than appends.
  EXPECT_EQ(ce::canonical_bytes_into(small, buf), ce::instance_hash(small));
  EXPECT_EQ(buf, ce::canonical_key(small).bytes);
}
