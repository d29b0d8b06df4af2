// Fork-join work-stealing scheduler.
//
// This is the runtime substrate for the whole library.  The paper's
// implementation uses ParlayLib's scheduler; we implement the same design
// from scratch: one Chase-Lev deque per worker, binary forking via
// `par_do`, and helping (a thread blocked on a join steals other jobs)
// so that nested parallelism cannot deadlock.
//
// The model matches the binary-forking work-span model of the paper
// (Sec. 2): `par_do(f, g)` runs f inline and exposes g for stealing;
// `parallel_for` is a logarithmic-depth binary split over the range.
//
// Thread count is taken from the environment variable CORDON_NUM_THREADS
// (default: std::thread::hardware_concurrency()).  A `SequentialRegion`
// RAII guard forces inline execution, which is how benchmarks produce the
// "ours (1 thread)" series without restarting the pool.
//
// The thread that first starts the pool via par_do/ensure_started
// becomes worker 0 (when an adopting external thread bootstraps the
// pool instead, a dedicated worker-0 thread is spawned so a transient
// thread is never conscripted); every other thread is an outsider whose
// forks would run inline.  Threads the
// library does not own (service dispatchers, user threads calling into
// solvers) adopt a reserved worker slot with an `ExternalWorkerScope`,
// which gives them a deque of their own so their forks are stealable and
// they help steal while joining — this is what lets an asynchronous
// front-end drive the same nested fork-join substrate as main().
//
// Threading contract (park/wake protocol).  Workers never busy-wait
// indefinitely: a worker that finds no work runs a bounded spin+steal
// phase, then parks on a shared eventcount; a join-waiter in wait_for
// helps (steals and runs other jobs), backs off exponentially, and
// finally parks on the target job's completion flag.  Every site that
// publishes work — detail::push_job on the fork path and (transitively)
// the service dispatcher's batch dispatch — wakes a sleeper after
// publishing, using the eventcount's prepare/re-check/commit sequence so
// no wakeup can be lost between a failed steal sweep and parking (see
// event_count.hpp for the store-buffer argument).  External-slot
// adoption publishes nothing and wakes nobody; the adopter's first
// push_job wakes a sleeper.  Consequences callers may rely on:
//   * An idle pool consumes no CPU: with no outstanding work every
//     worker is parked in the OS (asserted by test_scheduler_stress and
//     measured by bench_sched_wake).
//   * Wake latency is bounded by one condvar round-trip; work bursts
//     arriving within the spin window skip the park entirely.
//   * Destroying the pool (or detail::shutdown_pool) wakes every
//     parked worker and joins it; parked workers never block shutdown.
// Per-worker deques have a fixed capacity (CORDON_DEQUE_CAPACITY,
// default 2^16); a full deque makes push_job return false and par_do
// run the right branch inline, so overflow degrades to sequential
// execution instead of losing work.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "src/core/cancel.hpp"

namespace cordon::parallel {

namespace detail {

// A unit of stealable work.  Lives on the forking thread's stack for the
// duration of the join, so no heap allocation is needed.
struct Job {
  void (*execute)(Job*) = nullptr;
  std::atomic<bool> done{false};

  void run() {
    execute(this);
    // order: release — publishes the job's side effects to the joiner's
    // acquire load of `done` in wait_until_done.
    done.store(true, std::memory_order_release);
  }
};

// Pushes `job` onto the calling worker's deque; returns false if the
// calling thread is not a pool worker (caller must run the job inline).
bool push_job(Job* job);
// Pops the most recently pushed job from the calling worker's own deque
// if it has not been stolen.  Returns nullptr if it was stolen.
Job* pop_job();
// Executes other jobs while waiting for `job->done` (helping).
void wait_for(Job* job);

bool in_sequential_region() noexcept;
void set_sequential_region(bool on) noexcept;

// Claims / releases one of the reserved external worker slots for the
// calling thread (see ExternalWorkerScope).  adopt returns false when the
// thread is already a worker or every slot is taken.
bool adopt_external_worker();
void release_external_worker();

// Stops the pool: wakes every parked worker, joins all pool threads,
// and destroys the pool object.  The pool must be quiescent (no forks
// in flight, no live ExternalWorkerScope).  The next fork lazily
// creates a fresh pool.  Exists for embedders that must reclaim the
// worker threads and for shutdown-ordering tests; a no-op when the
// pool was never started.
void shutdown_pool();

}  // namespace detail

/// Number of reserved deque slots for adopted external threads
/// (ExternalWorkerScope).  Fixed at pool construction so per-slot state
/// (deques, scratch arenas) can be allocated up front.
inline constexpr std::size_t kMaxExternalWorkers = 8;

/// Number of worker threads in the pool (>= 1), excluding adopted
/// external slots.  Initialized from CORDON_NUM_THREADS (default:
/// hardware_concurrency) on first use; changeable between pool
/// incarnations with set_num_workers().
std::size_t num_workers() noexcept;

/// Upper bound on num_workers() for the lifetime of the process:
/// max(CORDON_NUM_THREADS at first use, hardware_concurrency, 8).
/// Per-worker-slot registries (scratch arenas, telemetry slots, trace
/// rings) are sized from this fixed cap so they stay in bounds across
/// pool restarts at different thread counts.
std::size_t max_workers() noexcept;

/// Sets the pool size used by the NEXT pool incarnation.  Fails (returns
/// false) when a pool is currently live — call detail::shutdown_pool()
/// first — or when n is 0.  Values above max_workers() are clamped.
/// This is how the thread-sweep tests and benches restart the pool at
/// {1, 2, 4, 8} workers inside one process.
bool set_num_workers(std::size_t n) noexcept;

/// Id of the calling worker; pool workers get [0, num_workers()), adopted
/// external threads get [num_workers(), num_workers() + slots), and
/// non-worker threads get 0.
std::size_t worker_id() noexcept;

/// Total number of worker slots: the worker-count cap plus reserved
/// external slots.  worker_id() of any thread for which
/// is_worker_thread() holds is always < worker_slots(), for every pool
/// incarnation regardless of its num_workers().
inline std::size_t worker_slots() noexcept {
  return max_workers() + kMaxExternalWorkers;
}

/// True when the calling thread currently holds a live worker identity of
/// the CURRENT pool incarnation — a pool worker or an adopted external
/// thread.  False for outsiders and for threads whose identity went stale
/// through detail::shutdown_pool.  Per-worker-slot state (e.g. the
/// scratch arenas of core/arena.hpp) keys off this: a slot id is owned by
/// exactly one live thread at a time, and the ownership handoff across a
/// pool restart is synchronized by the pool join / slot CAS.
bool is_worker_thread() noexcept;

/// Starts the pool if not yet running.  Called lazily by par_do; exposed so
/// benchmarks can exclude startup cost from timed sections.
void ensure_started();

/// Runs `left()` and `right()` potentially in parallel; returns when both
/// are complete.  This is the binary "fork" of the work-span model.
template <typename Left, typename Right>
void par_do(Left&& left, Right&& right) {
  if (detail::in_sequential_region()) {
    left();
    right();
    return;
  }
  ensure_started();

  using RightFn = std::remove_reference_t<Right>;
  struct RightJob : detail::Job {
    RightFn* fn;
    static void invoke(detail::Job* j) { (*static_cast<RightJob*>(j)->fn)(); }
  };
  RightJob job;
  job.fn = &right;
  job.execute = &RightJob::invoke;

  if (!detail::push_job(&job)) {
    // Called from a non-pool thread (e.g., main before the pool spun up a
    // worker context): run sequentially inline.
    left();
    right();
    return;
  }
  {
    // While the right branch sits published on the deque, an exception
    // unwinding past this frame would leave a thief pointing at a
    // destroyed stack job: the left branch runs throw-unsafe (see
    // core/cancel.hpp — cancellation polls and throwing fault
    // injections become no-ops).  Restored before the join; once the
    // job is popped or joined nothing dangles.
    core::ThrowGate no_throw(false);
    left();
  }
  if (detail::Job* mine = detail::pop_job(); mine != nullptr) {
    // Not stolen: run inline (the common, allocation-free fast path).
    static_cast<RightJob*>(mine)->run();
  } else {
    detail::wait_for(&job);
  }
}

namespace detail {

template <typename F>
void parallel_for_rec(std::size_t lo, std::size_t hi, std::size_t gran,
                      const F& f) {
  if (hi - lo <= gran) {
    for (std::size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  std::size_t mid = lo + (hi - lo) / 2;
  par_do([&] { parallel_for_rec(lo, mid, gran, f); },
         [&] { parallel_for_rec(mid, hi, gran, f); });
}

}  // namespace detail

/// Default floor applied by the auto-granularity heuristic: chunks never
/// shrink below this many iterations, which amortizes fork overhead when
/// loop bodies are cheap (the common case for data-parallel inner loops).
inline constexpr std::size_t kDefaultGranularityFloor = 64;

/// The auto-granularity heuristic parallel_for applies when granularity
/// is 0: aim for ~8 chunks per worker (slack for stealing without
/// drowning in fork overhead), clamped up to `floor`.  Exposed so tests
/// can pin the boundary behavior and cutoff tuning can reason about it.
/// Consequences: n <= floor yields granularity >= n (the loop runs
/// sequentially on the caller); the result is always >= 1.
inline std::size_t auto_granularity(
    std::size_t n, std::size_t floor = kDefaultGranularityFloor) noexcept {
  std::size_t chunks = 8 * num_workers();
  std::size_t granularity = n / chunks + 1;
  // Clamp unconditionally: chunks below the floor never amortize their
  // fork, no matter how small the loop.  (An `n > floor` guard here
  // would silently shatter sub-floor loops into per-worker slivers.)
  if (granularity < floor) granularity = floor;
  return granularity;
}

/// Parallelism actually available to the calling thread right now: 1
/// inside a SequentialRegion (forks run inline) or when the pool has a
/// single worker, num_workers() otherwise.  The adaptive sequential
/// cutoffs in the family solvers key off this.
inline std::size_t effective_parallelism() noexcept {
  return detail::in_sequential_region() ? 1 : num_workers();
}

/// Applies f(i) for i in [lo, hi) in parallel.  `granularity` is the
/// largest chunk executed sequentially; 0 applies auto_granularity()
/// with `granularity_floor`.  Loops with few
/// iterations but *expensive* bodies (e.g. dispatching whole DP
/// instances) must lower the floor — with the default, any n <= 64 runs
/// entirely sequentially.
template <typename F>
void parallel_for(std::size_t lo, std::size_t hi, const F& f,
                  std::size_t granularity = 0,
                  std::size_t granularity_floor = kDefaultGranularityFloor) {
  if (hi <= lo) return;
  std::size_t n = hi - lo;
  if (granularity == 0) granularity = auto_granularity(n, granularity_floor);
  if (n <= granularity || detail::in_sequential_region()) {
    for (std::size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  detail::parallel_for_rec(lo, hi, granularity, f);
}

/// RAII guard: while alive, all par_do/parallel_for on this thread run
/// inline.  Used for the "1 thread" benchmark series and as a fallback in
/// recursive helpers once subproblems are tiny.
class SequentialRegion {
 public:
  SequentialRegion() : prev_(detail::in_sequential_region()) {
    detail::set_sequential_region(true);
  }
  ~SequentialRegion() { detail::set_sequential_region(prev_); }
  SequentialRegion(const SequentialRegion&) = delete;
  SequentialRegion& operator=(const SequentialRegion&) = delete;

 private:
  bool prev_;
};

/// RAII guard: while alive, the calling thread — which must NOT be a pool
/// worker — occupies one of a small number of reserved worker slots, so
/// its par_do/parallel_for calls fork onto the shared pool (stealable by
/// every worker) instead of degrading to inline execution, and the thread
/// itself helps execute jobs while it waits on joins.
///
/// Used by threads the scheduler does not own: the service dispatcher,
/// client threads calling BatchExecutor::run directly, tests.  If the
/// calling thread already is a worker, or all slots are taken, the guard
/// is a no-op and forks simply run inline — so nesting scopes on one
/// thread is safe (the inner scope adopts nothing and releases nothing;
/// BatchExecutor::run relies on this when called from the service's
/// already-adopted dispatcher).  The scope must outlive every fork the
/// thread issues while holding it.
class ExternalWorkerScope {
 public:
  ExternalWorkerScope() : adopted_(detail::adopt_external_worker()) {}
  ~ExternalWorkerScope() {
    if (adopted_) detail::release_external_worker();
  }
  ExternalWorkerScope(const ExternalWorkerScope&) = delete;
  ExternalWorkerScope& operator=(const ExternalWorkerScope&) = delete;

  /// True when a slot was claimed (forks from this thread are stealable).
  [[nodiscard]] bool adopted() const noexcept { return adopted_; }

 private:
  bool adopted_;
};

}  // namespace cordon::parallel
