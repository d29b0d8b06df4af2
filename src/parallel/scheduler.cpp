#include "src/parallel/scheduler.hpp"

#include <array>
#include <cassert>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/checked_build.hpp"
#include "src/core/fault.hpp"
#include "src/core/trace.hpp"
#include "src/parallel/event_count.hpp"
#include "src/parallel/work_deque.hpp"

// ThreadSanitizer runs link the prebuilt system libstdc++, which is not
// TSAN-instrumented.  The exception_ptr refcount (eh_ptr.cc, compiled
// into libstdc++.so) is one of the few cross-thread handoffs living
// there: the atomic decrement that orders the final free of a thrown
// exception after every catch-handler's reads is invisible to the
// runtime, so any promise::set_exception consumed by future::get on
// another thread — the service's entire typed-failure surface — reports
// a false race between the catch-block reads and the refcount-zero
// free.  Suppress exactly that one runtime function via the default
// suppressions hook (picked up without TSAN_OPTIONS plumbing); races in
// instrumented code still fire.
#if CORDON_TSAN_BUILD
extern "C" const char* __tsan_default_suppressions();
extern "C" const char* __tsan_default_suppressions() {
  return "race:std::__exception_ptr::exception_ptr::_M_release\n";
}
#endif

namespace cordon::parallel {
namespace {

using Deque = WorkDeque<detail::Job>;

// Pause instruction for spin phases: cheaper than yield(), tells the
// core (and SMT sibling) the thread is busy-waiting.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Exponential spin backoff: ~2^min(step,6) pauses, then a yield per
// round once the budget is mostly burnt.
inline void spin_backoff(int step) noexcept {
  if (step > 16) {
    std::this_thread::yield();
    return;
  }
  int pauses = 1 << (step < 6 ? step : 6);
  for (int i = 0; i < pauses; ++i) cpu_relax();
}

// Failed steal sweeps an idle worker performs before parking, and a
// join-waiter performs before parking on its job's completion.  Big
// enough that a wake->more-work burst never pays the park/unpark cost,
// small enough that a quiet pool reaches zero CPU within ~100us.
constexpr int kIdleSpinSweeps = 48;
constexpr int kJoinSpinSweeps = 48;

struct Pool {
  // Reserved deque slots for adopted external threads (ExternalWorkerScope):
  // slots [n, n + kMaxExternal) are allocated up front so thieves can scan
  // a fixed range without synchronizing on slot churn.
  static constexpr std::size_t kMaxExternal = kMaxExternalWorkers;

  std::vector<std::unique_ptr<Deque>> deques;
  std::vector<std::thread> threads;
  std::array<std::atomic<bool>, kMaxExternal> external_claimed{};
  std::atomic<bool> shutting_down{false};
  std::size_t n = 1;
  std::uint64_t generation = 0;  // stamp for worker identities

  // Park/wake protocol state.  Idle workers and join-waiters both park
  // on `sleepers`; `join_parked` counts the join-waiters among them so
  // job completion can skip the wake when nobody waits on a join.
  EventCount sleepers;
  std::atomic<std::uint64_t> join_parked{0};

  Pool(std::size_t workers, bool adopt_caller);
  ~Pool();

  void stop();

  [[nodiscard]] std::size_t slots() const { return n + kMaxExternal; }

  detail::Job* try_steal(std::size_t self, std::uint64_t& rng);
  [[nodiscard]] bool any_work(std::size_t self) const;
  void run_job(detail::Job* job);
  void worker_loop(std::size_t id);
};

thread_local std::size_t t_worker_id = 0;
thread_local bool t_is_worker = false;
thread_local bool t_sequential = false;
// Which pool incarnation the thread-local worker identity belongs to.
// After detail::shutdown_pool a surviving thread's (id, is_worker) pair
// would otherwise alias a deque owned by a thread of the NEXT pool —
// two "owners" on one Chase-Lev deque is undefined — so every identity
// is stamped with the generation that issued it, and push_job/adoption
// compare the stamp against the generation of the pool they actually
// obtained.  A thread with a stale stamp is an outsider again: its
// forks run inline until it re-registers (creates the next pool
// itself, or adopts an external slot).
thread_local std::uint64_t t_worker_generation = 0;

std::atomic<std::uint64_t> g_pool_counter{0};  // generation allocator

// Current worker count for the next/current pool incarnation.  0 means
// "not yet initialized": num_workers() lazily seeds it from the
// environment, set_num_workers() overwrites it between incarnations.
std::atomic<std::size_t> g_num_workers{0};

std::size_t configured_workers() {
  if (const char* env = std::getenv("CORDON_NUM_THREADS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

std::size_t configured_deque_capacity() {
  // Test/tuning hook: tiny capacities force the push-overflow fallback
  // (par_do runs the right branch inline), which test_deque_overflow
  // uses to prove overflow degrades to sequential execution instead of
  // losing work.
  if (const char* env = std::getenv("CORDON_DEQUE_CAPACITY")) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  return Deque::kDefaultCapacity;
}

// The pool is created lazily by the first fork (or ensure_started) and
// lives until process exit — except under detail::shutdown_pool(),
// which destroys it (joining every worker, parked or not) and lets the
// next fork start a fresh one.  A mutex instead of call_once makes that
// restart possible.
std::mutex g_pool_mu;
std::atomic<Pool*> g_pool{nullptr};

Pool& pool(bool adopt_caller = true) {
  // order: acquire — pairs with the release publish below so a caller
  // sees the fully constructed Pool behind the pointer.
  Pool* p = g_pool.load(std::memory_order_acquire);
  if (p != nullptr) return *p;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  // order: relaxed — re-check under the mutex that guards all writes.
  p = g_pool.load(std::memory_order_relaxed);
  if (p == nullptr) {
    // num_workers(), not configured_workers(): the public worker count
    // is sticky once read (changeable only through set_num_workers
    // between incarnations), and per-slot state (worker arenas,
    // telemetry slots) is sized from the fixed max_workers() cap, so
    // every incarnation's slot ids stay in bounds.
    p = new Pool(num_workers(), adopt_caller);
    // order: release — publishes the constructed Pool to lock-free
    // readers taking the acquire fast path above.
    g_pool.store(p, std::memory_order_release);
  }
  return *p;
}

std::uint64_t next_rand(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

Pool::Pool(std::size_t workers, bool adopt_caller) : n(workers) {
  // order: relaxed — a unique stamp is all that is needed; pool
  // visibility is ordered by g_pool's release publish.
  generation = g_pool_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t deque_capacity = configured_deque_capacity();
  deques.reserve(slots());
  for (std::size_t i = 0; i < slots(); ++i)
    deques.push_back(std::make_unique<Deque>(deque_capacity));
  std::size_t first_spawned = 1;
  if (adopt_caller) {
    // Worker 0 is the thread that created the pool (typically main);
    // spawn the remaining n-1 threads.
    t_worker_id = 0;
    t_is_worker = true;
    t_worker_generation = generation;
  } else {
    // Bootstrapped from a transient external thread (e.g. a service
    // dispatcher adopting a slot): conscripting it as worker 0 would
    // permanently shrink the pool when it exits, so spawn a dedicated
    // worker 0 and let the caller claim an external slot like any
    // other thread.
    first_spawned = 0;
  }
  for (std::size_t i = first_spawned; i < n; ++i) {
    threads.emplace_back([this, i] { worker_loop(i); });
  }
}

Pool::~Pool() { stop(); }

void Pool::stop() {
  // Publish the flag, then wake every parked worker so it can observe
  // it.  A worker racing toward commit_wait is safe too: its pre-sleep
  // re-check loads shutting_down after registering as a waiter, so
  // either it sees the flag (and exits) or notify_all sees the waiter
  // (and wakes it) — the same Dekker argument the work path uses.
  // order: seq_cst — must totally order against the workers' pre-park
  // re-check (the same Dekker argument as the work path).
  shutting_down.store(true, std::memory_order_seq_cst);
  sleepers.notify_all();
  for (auto& t : threads) t.join();
  threads.clear();
}

detail::Job* Pool::try_steal(std::size_t self, std::uint64_t& rng) {
  // Victims include the external slots: work forked by adopted threads is
  // stealable by everyone, and vice versa.
  for (std::size_t attempt = 0; attempt < 2 * slots(); ++attempt) {
    std::size_t victim = next_rand(rng) % slots();
    if (victim == self) continue;
    if (detail::Job* job = deques[victim]->steal()) {
      // Flush the probe count once per sweep, not per probe.
      telemetry::count(telemetry::Counter::kSchedStealAttempts, attempt + 1);
      telemetry::count(telemetry::Counter::kSchedSteals);
      telemetry::gauge_add(telemetry::Gauge::kSchedDequeJobs, -1);
      return job;
    }
  }
  telemetry::count(telemetry::Counter::kSchedStealAttempts, 2 * slots());
  return nullptr;
}

bool Pool::any_work(std::size_t self) const {
  for (std::size_t i = 0; i < slots(); ++i) {
    if (i == self) continue;
    if (deques[i]->maybe_nonempty()) return true;
  }
  return false;
}

void Pool::run_job(detail::Job* job) {
  telemetry::count(telemetry::Counter::kSchedJobsRun);
  {
    // One span per job taken off a deque — the stolen/helped half of a
    // par_do.  The inline fast path (pop_job succeeding in par_do) is
    // deliberately not traced: it dominates event volume and carries no
    // scheduling information.
    telemetry::TraceSpan span("steal_run", "sched");
    // A stolen/helped job has no exception rail above this frame:
    // anything unwinding out of run() would tear down the worker (or
    // strand the owner's join).  Mark the whole execution throw-unsafe
    // so cancellation polls and throwing fault injections inside the
    // job body stand down (see core/cancel.hpp).
    core::ThrowGate no_throw(false);
    job->run();
  }
  // A join-waiter may be parked on this job's completion flag.  The
  // fence orders run()'s done-store before the counter read (producer
  // half of the store-buffer argument against wait_for's park path);
  // when nobody is join-parked — the overwhelmingly common case — the
  // cost is this fence plus one load.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // order: seq_cst — producer half of the join-park Dekker handshake;
  // pairs with wait_for's registration.
  if (join_parked.load(std::memory_order_seq_cst) > 0) {
    // Chaos: delay (never drop) the wake to widen the park/wake race.
    CORDON_FAULT_DELAY(core::fault::Site::kWorkerWake);
    if (sleepers.notify_all())
      telemetry::count(telemetry::Counter::kSchedWakes);
  }
}

void Pool::worker_loop(std::size_t id) {
  t_worker_id = id;
  t_is_worker = true;
  t_worker_generation = generation;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull * (id + 1) + 1;
  // order: acquire — see the stop()-side state (joinable threads) that
  // precedes the flag; the park path re-checks with seq_cst.
  while (!shutting_down.load(std::memory_order_acquire)) {
    detail::Job* job = deques[id]->pop();
    if (job != nullptr)
      telemetry::gauge_add(telemetry::Gauge::kSchedDequeJobs, -1);
    else
      job = try_steal(id, rng);
    if (job != nullptr) {
      run_job(job);
      continue;
    }
    // Bounded spin phase: a burst that re-arrives right after the queue
    // drained is picked up without a park/unpark round-trip.
    for (int spin = 0; spin < kIdleSpinSweeps && job == nullptr; ++spin) {
      // order: acquire — cheap exit probe; the authoritative check is
      // the seq_cst one after prepare_wait.
      if (shutting_down.load(std::memory_order_acquire)) return;
      spin_backoff(spin);
      job = try_steal(id, rng);
    }
    if (job != nullptr) {
      run_job(job);
      continue;
    }
    // Park.  prepare / re-check / commit: after registering as a waiter
    // we re-scan every deque (and the shutdown flag); any push we miss
    // here must itself see our registration and wake us (EventCount's
    // Dekker guarantee), so no wakeup can be lost and an idle pool
    // burns no CPU at all.
    std::uint64_t key = sleepers.prepare_wait();
    // order: seq_cst — the pre-sleep re-check must order after the
    // waiter registration or stop()'s store could be missed.
    if (shutting_down.load(std::memory_order_seq_cst) || any_work(id)) {
      sleepers.cancel_wait();
      continue;
    }
    telemetry::count(telemetry::Counter::kSchedParks);
    telemetry::gauge_add(telemetry::Gauge::kSchedParkedWorkers, 1);
    {
      telemetry::TraceSpan span("park", "sched");
      sleepers.commit_wait(key);
    }
    telemetry::gauge_add(telemetry::Gauge::kSchedParkedWorkers, -1);
  }
}

}  // namespace

namespace detail {

bool push_job(Job* job) {
  if (!t_is_worker) return false;
  Pool& p = pool();
  // A stale identity (this pool incarnation did not issue it) must not
  // touch a deque some current thread owns: run inline instead.  The
  // check is against the pool we actually obtained, so a concurrent
  // restart by another thread cannot slip a fresh pool under a stale
  // id between check and push.
  if (t_worker_generation != p.generation) return false;
  // order: acquire — don't publish onto a deque stop() is tearing down;
  // a stale false is safe (the job just runs inline).
  if (p.shutting_down.load(std::memory_order_acquire)) return false;
  if (!p.deques[t_worker_id]->push(job)) {
    // Full deque: the caller runs the branch inline.
    telemetry::count(telemetry::Counter::kSchedPushOverflows);
    return false;
  }
  telemetry::gauge_add(telemetry::Gauge::kSchedDequeJobs, 1);
  // Publish-then-wake: the push above is the publication, so a parked
  // worker (or join-waiter) can now take the job.  No-op in one fence +
  // one load when nobody is parked.
  // Chaos: delay (never drop) the wake to widen the park/wake race.
  CORDON_FAULT_DELAY(core::fault::Site::kWorkerWake);
  if (p.sleepers.notify_one())
    telemetry::count(telemetry::Counter::kSchedWakes);
  return true;
}

Job* pop_job() {
  Job* job = pool().deques[t_worker_id]->pop();
  if (job != nullptr)
    telemetry::gauge_add(telemetry::Gauge::kSchedDequeJobs, -1);
  return job;
}

void wait_for(Job* job) {
  Pool& p = pool();
  std::uint64_t rng = 0xdeadbeefcafef00dull + t_worker_id;
  int idle_sweeps = 0;
  // order: acquire — pairs with run()'s release store; seeing done also
  // makes the job's side effects visible to the joiner.
  while (!job->done.load(std::memory_order_acquire)) {
    // Helping: run other jobs so nested joins cannot deadlock.
    Job* other = p.deques[t_worker_id]->pop();
    if (other != nullptr)
      telemetry::gauge_add(telemetry::Gauge::kSchedDequeJobs, -1);
    else
      other = p.try_steal(t_worker_id, rng);
    if (other != nullptr) {
      p.run_job(other);
      idle_sweeps = 0;
      continue;
    }
    if (idle_sweeps < kJoinSpinSweeps) {
      // Exponential backoff before parking: joins usually resolve in
      // microseconds (the thief finishes the stolen branch).
      spin_backoff(idle_sweeps++);
      continue;
    }
    // Park on the job's completion flag.  Progress does not depend on
    // this thread: whoever stole the job can finish the whole subtree
    // alone (its own pops always succeed), so sleeping here is safe.
    // The waiter registers in join_parked AFTER prepare_wait: run_job's
    // completion path reads join_parked behind a seq_cst fence, so if
    // it misses our registration we must see the done flag in the
    // re-check below, and if it sees us it must also see our sleepers
    // registration and bump the epoch (see EventCount).  New pushes
    // wake us too (notify_one), so a parked join-waiter resumes
    // helping when work appears.
    std::uint64_t key = p.sleepers.prepare_wait();
    // order: seq_cst — waiter half of the join-park Dekker handshake
    // against run_job's fence + join_parked read.
    p.join_parked.fetch_add(1, std::memory_order_seq_cst);
    // order: seq_cst — the re-check must order after the registration
    // above, or run_job's done-store could be missed.
    if (job->done.load(std::memory_order_seq_cst) ||
        p.any_work(t_worker_id)) {
      // order: seq_cst — keep deregistration in the same total order as
      // the completion path's read (simple and cold).
      p.join_parked.fetch_sub(1, std::memory_order_seq_cst);
      p.sleepers.cancel_wait();
    } else {
      telemetry::count(telemetry::Counter::kSchedParks);
      telemetry::gauge_add(telemetry::Gauge::kSchedParkedWorkers, 1);
      {
        telemetry::TraceSpan span("join_park", "sched");
        p.sleepers.commit_wait(key);
      }
      telemetry::gauge_add(telemetry::Gauge::kSchedParkedWorkers, -1);
      // order: seq_cst — same contract as the cancel path above.
      p.join_parked.fetch_sub(1, std::memory_order_seq_cst);
    }
    idle_sweeps = 0;
  }
}

bool in_sequential_region() noexcept { return t_sequential; }
void set_sequential_region(bool on) noexcept { t_sequential = on; }

bool adopt_external_worker() {
  // If the pool does not exist yet, start it WITHOUT becoming worker 0
  // (this thread may be transient); fall through to claim a slot.
  Pool& p = pool(/*adopt_caller=*/false);
  // Already a worker (pool or adopted) of THIS pool incarnation; a
  // stale identity from a pre-shutdown_pool incarnation is void and the
  // thread may re-adopt.
  if (t_is_worker && t_worker_generation == p.generation) return false;
  // order: acquire — don't adopt a slot in a pool that is tearing down.
  if (p.shutting_down.load(std::memory_order_acquire)) return false;
  for (std::size_t i = 0; i < Pool::kMaxExternal; ++i) {
    bool expected = false;
    // order: acq_rel — acquire the previous owner's release of the slot
    // (its deque residue), release our claim to the next contender.
    if (p.external_claimed[i].compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      t_worker_id = p.n + i;
      t_is_worker = true;
      t_worker_generation = p.generation;
      telemetry::count(telemetry::Counter::kSchedAdoptions);
      telemetry::trace_instant("adopt", "sched");
      // No wake: adoption publishes nothing (the slot's deque is empty),
      // and most adopters never fork.  The adopter's first push_job
      // wakes a sleeper through the usual publish-then-wake path.
      return true;
    }
  }
  return false;  // all slots taken: caller runs inline
}

void release_external_worker() {
  Pool& p = pool();
  assert(t_is_worker && t_worker_id >= p.n);
  std::size_t slot = t_worker_id - p.n;
  t_is_worker = false;
  t_worker_id = 0;
  // order: release — hands the slot (and its deque state) to the next
  // adopter's acquire CAS.
  p.external_claimed[slot].store(false, std::memory_order_release);
}

void shutdown_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  // order: acq_rel — acquire the pool we are about to delete, release
  // the null so lock-free readers stop handing it out.
  Pool* p = g_pool.exchange(nullptr, std::memory_order_acq_rel);
  if (p == nullptr) return;
  delete p;  // ~Pool: set shutting_down, wake every parked worker, join
  // Thread-local worker ids on surviving threads (e.g. the thread that
  // was worker 0) become void: they carry the dead pool's generation
  // stamp, so push_job treats their owners as outsiders (forks run
  // inline) unless the thread itself creates the next pool — which
  // re-registers it as worker 0 — or adopts an external slot.
}

}  // namespace detail

std::size_t num_workers() noexcept {
  // order: acquire — pairs with set_num_workers' release store.
  std::size_t n = g_num_workers.load(std::memory_order_acquire);
  if (n == 0) {
    n = configured_workers();
    if (n > max_workers()) n = max_workers();
    std::size_t expected = 0;
    // Lost race: another thread (or set_num_workers) seeded it first.
    // order: acq_rel — seed exactly once; the loser adopts the winner's
    // value through the acquire side.
    if (!g_num_workers.compare_exchange_strong(expected, n,
                                               std::memory_order_acq_rel))
      n = expected;
  }
  return n;
}

std::size_t max_workers() noexcept {
  // max() of every source a pool size can come from, so set_num_workers
  // can never be asked to exceed it except by explicit clamp: the env
  // configuration, the machine, and the fixed sweep grid {1, 2, 4, 8}
  // the scaling tests restart through on any hardware.
  static const std::size_t cap = [] {
    std::size_t m = configured_workers();
    unsigned hc = std::thread::hardware_concurrency();
    if (hc > m) m = hc;
    if (m < 8) m = 8;
    return m;
  }();
  return cap;
}

bool set_num_workers(std::size_t n) noexcept {
  if (n == 0) return false;
  if (n > max_workers()) n = max_workers();
  std::lock_guard<std::mutex> lock(g_pool_mu);
  // A live pool's deques/threads are sized to its creation-time count;
  // the new size takes effect at the next incarnation only, so refuse
  // while one exists (callers shutdown_pool() first).
  // order: acquire — under g_pool_mu, so relaxed would do; acquire keeps
  // the probe identical to the lock-free readers.
  if (g_pool.load(std::memory_order_acquire) != nullptr) return false;
  // order: release — pairs with num_workers' acquire load.
  g_num_workers.store(n, std::memory_order_release);
  return true;
}

std::size_t worker_id() noexcept { return t_worker_id; }

bool is_worker_thread() noexcept {
  if (!t_is_worker) return false;
  // A stale identity (issued by a pool that shutdown_pool destroyed) must
  // not claim slot ownership: the same slot id may belong to a live
  // thread of the next incarnation.
  // order: acquire — the generation read below must see the incarnation
  // the pointer was published with.
  Pool* p = g_pool.load(std::memory_order_acquire);
  return p != nullptr && p->generation == t_worker_generation;
}

void ensure_started() { (void)pool(); }

}  // namespace cordon::parallel
