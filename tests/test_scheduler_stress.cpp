// Scheduler stress suite for the park/wake protocol: idle-CPU gate,
// burst arrival after parking, park/wake churn, adopt-while-parked,
// deque-overflow fallback, and shutdown ordering (CordonService and
// Pool::~Pool with workers parked).
//
// Custom main: forces CORDON_NUM_THREADS=4 when unset, so park/wake
// contention is exercised even on single-core CI runners (the pool is
// created lazily, after the setenv).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <thread>
#include <vector>

#include "bench/common.hpp"  // measure_idle_cpu_fraction, the shared gate
#include "src/engine/registry.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/parallel/work_deque.hpp"
#include "src/service/service.hpp"
#include "test_util.hpp"

namespace cp = cordon::parallel;
namespace ce = cordon::engine;
namespace cs = cordon::service;

namespace {

void settle(std::chrono::milliseconds ms = std::chrono::milliseconds(300)) {
  std::this_thread::sleep_for(ms);  // outlives every spin phase: all park
}

}  // namespace

// --- the idle-CPU gate ------------------------------------------------------

TEST(SchedulerStress, IdleCpuStaysNearZero) {
  cp::ensure_started();
  // Prime every worker once so thread creation cost is behind us.
  std::atomic<int> warm{0};
  cp::parallel_for(0, 10000, [&](std::size_t) {
    warm.fetch_add(1, std::memory_order_relaxed);
  }, /*granularity=*/64, /*granularity_floor=*/1);
  ASSERT_EQ(warm.load(), 10000);

  // With no submitted work every worker must park: process CPU over a
  // 1-second window stays under the shared gate (5% of one core).  The
  // pre-fix scheduler burned ~100% * num_workers here.
  double best = cordon::bench::measure_idle_cpu_fraction();
  EXPECT_LT(best, cordon::bench::kIdleCpuGateFraction)
      << "idle CPU fraction of one core: " << best
      << " — workers are not parking";
}

// --- park/wake correctness under churn --------------------------------------

TEST(SchedulerStress, BurstArrivalAfterPark) {
  // Repeatedly let the pool go fully idle (parked), then slam it with a
  // burst; a lost wakeup would hang the join, a missed steal would be
  // caught by the exact-coverage check.
  const std::size_t n = 20000;
  for (int cycle = 0; cycle < 8; ++cycle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    std::vector<std::atomic<int>> hits(n);
    cp::parallel_for(0, n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }, /*granularity=*/32, /*granularity_floor=*/1);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "cycle " << cycle << " index " << i;
  }
}

TEST(SchedulerStress, ParkWakeChurnTinyJobs) {
  // Tiny forks with micro-sleeps in between: maximizes the rate of
  // park -> wake -> park transitions racing against push_job.
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 400; ++round) {
    cp::par_do([&] { sum.fetch_add(1, std::memory_order_relaxed); },
               [&] { sum.fetch_add(1, std::memory_order_relaxed); });
    if (round % 16 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(sum.load(), 800u);
}

TEST(SchedulerStress, DeepNestingWithJoinParking) {
  // Deep recursion: join-waiters outnumber workers, so some must take
  // the backoff/park path in wait_for and be woken by job completion.
  std::atomic<std::uint64_t> leaves{0};
  struct Rec {
    static void go(std::atomic<std::uint64_t>& s, int depth) {
      if (depth == 0) {
        s.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      cp::par_do([&] { go(s, depth - 1); }, [&] { go(s, depth - 1); });
    }
  };
  for (int round = 0; round < 4; ++round) {
    leaves.store(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));  // park first
    Rec::go(leaves, 13);
    EXPECT_EQ(leaves.load(), 1u << 13);
  }
}

TEST(SchedulerStress, AdoptWhileParked) {
  // External threads adopting a slot while every pool worker is parked:
  // adoption itself wakes nobody, so the adopter's first push_job must
  // wake a sleeper for its forks, and results must be exact.
  for (int round = 0; round < 6; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::thread outsider([] {
      cp::ExternalWorkerScope scope;
      EXPECT_TRUE(scope.adopted());
      const std::size_t n = 30000;
      std::vector<std::atomic<int>> hits(n);
      cp::parallel_for(0, n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }, /*granularity=*/32, /*granularity_floor=*/1);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
    });
    outsider.join();
  }
}

TEST(SchedulerStress, ConcurrentAdoptersUnderChurn) {
  // Several adopted threads forking at once while the pool's own
  // workers park and wake: stresses steal/park races across the
  // external slot range.
  constexpr int kThreads = 3;
  std::vector<std::thread> adopters;
  std::atomic<std::uint64_t> total{0};
  for (int t = 0; t < kThreads; ++t) {
    adopters.emplace_back([&] {
      cp::ExternalWorkerScope scope;
      for (int round = 0; round < 40; ++round) {
        std::atomic<std::uint64_t> local{0};
        cp::parallel_for(0, 2000, [&](std::size_t) {
          local.fetch_add(1, std::memory_order_relaxed);
        }, /*granularity=*/16, /*granularity_floor=*/1);
        ASSERT_EQ(local.load(), 2000u);
        total.fetch_add(local.load(), std::memory_order_relaxed);
        if (round % 8 == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  }
  for (auto& t : adopters) t.join();
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(kThreads) * 40u * 2000u);
}

// --- deque-overflow fallback (unit level) -----------------------------------

TEST(SchedulerStress, TinyDequeOverflowReportsFullAndLosesNothing) {
  struct Item { int v; };
  cp::WorkDeque<Item> dq(4);
  EXPECT_EQ(dq.capacity(), 4u);

  Item items[6] = {{0}, {1}, {2}, {3}, {4}, {5}};
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(dq.push(&items[i])) << i;
  // Full: push must refuse (caller would run inline), not overwrite.
  EXPECT_FALSE(dq.push(&items[4]));
  EXPECT_FALSE(dq.push(&items[5]));

  // Everything pushed is still there, LIFO from the owner's side.
  for (int i = 3; i >= 0; --i) {
    Item* it = dq.pop();
    ASSERT_NE(it, nullptr);
    EXPECT_EQ(it->v, i);
  }
  EXPECT_EQ(dq.pop(), nullptr);

  // Space reclaimed: push works again and a thief can take it.
  EXPECT_TRUE(dq.push(&items[4]));
  Item* stolen = dq.steal();
  ASSERT_NE(stolen, nullptr);
  EXPECT_EQ(stolen->v, 4);
}

TEST(SchedulerStress, WorkDequeCapacityRoundsUpToPowerOfTwo) {
  cp::WorkDeque<int> a(1);
  EXPECT_EQ(a.capacity(), 2u);
  cp::WorkDeque<int> b(5);
  EXPECT_EQ(b.capacity(), 8u);
  cp::WorkDeque<int> c;
  EXPECT_EQ(c.capacity(), cp::WorkDeque<int>::kDefaultCapacity);
}

// --- shutdown ordering ------------------------------------------------------

TEST(SchedulerStress, ServiceShutdownWhileWorkersParked) {
  const ce::Solver& solver = ce::builtin_registry().at("lis");
  {
    cs::CordonService svc;
    // Solve something, then let the whole system go idle: pool workers
    // park on the eventcount, the dispatcher sleeps on its condvar.
    (void)svc.submit(solver.generate({500, 4, 21})).get();
    settle();
    // Submissions against a fully parked system still complete...
    std::vector<std::future<ce::SolveResult>> futs;
    for (std::uint64_t seed = 31; seed < 35; ++seed)
      futs.push_back(svc.submit(solver.generate({400, 4, seed})));
    // ...and shutdown wakes/drains everything, completing every future.
    svc.shutdown();
    for (auto& f : futs) (void)f.get();  // throws (test fails) if dropped
  }
  {
    // Destructor path, with everything parked and nothing in flight.
    cs::CordonService svc;
    (void)svc.submit(solver.generate({300, 4, 77})).get();
    settle();
  }  // ~CordonService must return with workers parked
  SUCCEED();
}

// NOTE: keep this test LAST in the file.  It destroys and restarts the
// process-wide pool; tests registered after it would exercise the
// restarted pool instead of the one the earlier tests stressed.
TEST(SchedulerStress, PoolShutdownWhileParkedThenRestart) {
  cp::ensure_started();
  settle();  // every worker parked on the eventcount

  // ~Pool must wake every parked worker and join it.  A lost shutdown
  // wakeup hangs here (and the suite times out).
  auto t0 = std::chrono::steady_clock::now();
  cp::detail::shutdown_pool();
  double join_s = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(join_s, 5.0) << "shutdown took " << join_s
                         << "s — parked workers did not wake promptly";

  // The next fork transparently restarts the pool.
  std::atomic<int> count{0};
  cp::parallel_for(0, 5000, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  }, /*granularity=*/16, /*granularity_floor=*/1);
  EXPECT_EQ(count.load(), 5000);

  // And a second shutdown with the restarted pool parked works too.
  settle();
  cp::detail::shutdown_pool();
  cp::detail::shutdown_pool();  // idempotent: no pool -> no-op

  // Restart raced from a DIFFERENT thread: an adopting outsider
  // re-creates the pool (spawning a dedicated worker 0), so this
  // thread's old worker-0 identity is stale.  Its forks must degrade
  // to inline execution — never touch the fresh pool's worker-0 deque,
  // which now has a real owner — while the adopter's forks run on the
  // pool.  Both must stay exact while running concurrently.
  std::atomic<std::uint64_t> outsider_sum{0}, stale_sum{0};
  std::atomic<bool> pool_recreated{false};
  std::thread adopter([&] {
    cp::ExternalWorkerScope scope;  // starts the fresh pool (worker 0 spawned)
    EXPECT_TRUE(scope.adopted());
    pool_recreated.store(true, std::memory_order_release);
    for (int round = 0; round < 20; ++round) {
      cp::parallel_for(0, 2000, [&](std::size_t) {
        outsider_sum.fetch_add(1, std::memory_order_relaxed);
      }, /*granularity=*/16, /*granularity_floor=*/1);
    }
  });
  // Fork only once the adopter owns the new pool, so this thread's
  // identity is guaranteed stale rather than re-minted by the fork.
  while (!pool_recreated.load(std::memory_order_acquire))
    std::this_thread::yield();
  for (int round = 0; round < 20; ++round) {
    cp::parallel_for(0, 2000, [&](std::size_t) {
      stale_sum.fetch_add(1, std::memory_order_relaxed);
    }, /*granularity=*/16, /*granularity_floor=*/1);
  }
  adopter.join();
  EXPECT_EQ(outsider_sum.load(), 20u * 2000u);
  EXPECT_EQ(stale_sum.load(), 20u * 2000u);

  // Forks after shutdown restart the pool again and stay correct.
  std::atomic<int> after{0};
  cp::par_do([&] { after.fetch_add(1); }, [&] { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 2);
}

int main(int argc, char** argv) {
  // The pool is created lazily, so this runs before any worker exists.
  // Single-core CI still gets real park/wake contention this way.
  setenv("CORDON_NUM_THREADS", "4", /*overwrite=*/0);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
