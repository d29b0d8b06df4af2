// Tests for the compiled-in invariant layer (src/core/audit.hpp) and
// the repo lint (scripts/cordon_lint.py).
//
// The audit layer's contract is configuration-dependent by design, so
// the same binary asserts different things depending on how it was
// built: in a checked build (CORDON_CHECKED_BUILD) the checks evaluate
// (exactly once) and a violation aborts; otherwise the macros are true
// no-ops whose condition expressions are never evaluated.  Both halves
// are covered because CI builds this suite Debug+sanitized (checked)
// and RelWithDebInfo (not checked).
#include "src/core/audit.hpp"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "src/core/arena.hpp"
#include "src/core/fault.hpp"
#include "src/structures/monotonic_queue.hpp"

namespace audit = cordon::core::audit;
namespace fault = cordon::core::fault;

TEST(Audit, KEnabledMatchesTheBuildConfiguration) {
#if CORDON_CHECKED_BUILD
  EXPECT_TRUE(audit::kEnabled);
#else
  EXPECT_FALSE(audit::kEnabled);
#endif
}

// One instrumentation profile: the invariant checks and the fault hooks
// are compiled in together or not at all, in every build configuration.
TEST(Audit, AuditAndFaultLayersShareOneProfile) {
  EXPECT_EQ(audit::kEnabled, fault::kEnabled);
}

TEST(Audit, ConditionEvaluatesExactlyOnceWhenEnabledNeverWhenDisabled) {
  int evals = 0;
  CORDON_DCHECK(++evals > 0, "side-effect probe");
  EXPECT_EQ(evals, audit::kEnabled ? 1 : 0);
}

TEST(Audit, ChecksRunCounterAdvancesOnlyInAuditBuilds) {
  const std::uint64_t before = audit::checks_run();
  CORDON_DCHECK(true);
  CORDON_DCHECK(2 + 2 == 4, "arithmetic still works");
  const std::uint64_t after = audit::checks_run();
  if (audit::kEnabled)
    EXPECT_GE(after - before, 2u);
  else
    EXPECT_EQ(after, 0u);
}

TEST(Audit, AuditScopeRunsItsStatementsAtScopeExit) {
  int runs = 0;
  {
    CORDON_AUDIT_SCOPE(++runs);
    EXPECT_EQ(runs, 0) << "scope body must not run before scope exit";
  }
  EXPECT_EQ(runs, audit::kEnabled ? 1 : 0);
}

TEST(Audit, InstrumentedHotPathsExecuteChecksInAuditBuilds) {
  // Drive two instrumented structures and require the check counter to
  // have moved — a refactor that compiled the invariants out of the
  // real code paths (not just this file) would fail here.
  const std::uint64_t before = audit::checks_run();

  cordon::core::Arena arena;
  {
    cordon::core::ArenaScope outer(arena);
    (void)arena.make_span<int>(16, 0);
    cordon::core::ArenaScope inner(arena);
    (void)arena.make_span<double>(8, 0.0);
  }

  auto eval = [](std::size_t j, std::size_t i) {
    double len = static_cast<double>(i - j);
    return static_cast<double>(j) * 0.25 + len * len;
  };
  cordon::structures::MonotonicQueue<decltype(eval)> q(32, eval);
  for (std::size_t j = 0; j < 32; ++j) {
    if (j > 0) (void)q.best(j);
    q.insert_convex(j);
  }

  if (audit::kEnabled)
    EXPECT_GT(audit::checks_run(), before);
  else
    EXPECT_EQ(audit::checks_run(), 0u);
}

#if CORDON_CHECKED_BUILD && defined(GTEST_HAS_DEATH_TEST)

TEST(AuditDeathTest, FailingCheckAbortsWithTheInvariantMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(CORDON_DCHECK(1 == 2, "one is not two"),
               "CORDON_DCHECK failed.*one is not two");
}

TEST(AuditDeathTest, ScopeCheckFiresOnBrokenExitInvariant) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        int version = 0;
        {
          CORDON_AUDIT_SCOPE(
              CORDON_DCHECK(version == 1, "version linearity broken"));
          // Forgot to advance `version`: the exit check must abort.
        }
      },
      "version linearity broken");
}

#endif  // CORDON_CHECKED_BUILD && GTEST_HAS_DEATH_TEST

// --- repo lint --------------------------------------------------------------
//
// scripts/cordon_lint.py must (a) run clean on the tree and (b) fail on
// every fixture under tests/lint_fixtures/ — each fixture violates
// exactly one rule, and --fixtures asserts the expected rule fires.

namespace {

int run_cmd(const std::string& cmd) {
  int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
#if defined(WEXITSTATUS)
  return WEXITSTATUS(rc);
#else
  return rc;
#endif
}

bool has_python() { return run_cmd("python3 --version >/dev/null 2>&1") == 0; }

}  // namespace

TEST(Lint, RepoTreeIsLintClean) {
  if (!has_python()) GTEST_SKIP() << "python3 not available";
  const std::string root = CORDON_REPO_ROOT;
  EXPECT_EQ(run_cmd("python3 '" + root + "/scripts/cordon_lint.py' --root '" +
                    root + "'"),
            0)
      << "cordon_lint.py found violations (run it for details)";
}

TEST(Lint, EveryFixtureTripsItsRule) {
  if (!has_python()) GTEST_SKIP() << "python3 not available";
  const std::string root = CORDON_REPO_ROOT;
  EXPECT_EQ(run_cmd("python3 '" + root + "/scripts/cordon_lint.py' --root '" +
                    root + "' --fixtures"),
            0)
      << "a lint fixture no longer trips its rule";
}
