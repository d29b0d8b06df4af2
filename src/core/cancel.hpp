// cordon::core — the typed failure surface: SolveError, deadlines, and
// cooperative cancellation.
//
// Every way a solve can fail is one of six SolveErrorCode values, and a
// failed future out of CordonService (or a failed BatchItem out of
// BatchExecutor) always carries a SolveError — never a bare
// std::runtime_error whose meaning the caller must parse out of what().
// SolveError still derives from std::runtime_error so pre-taxonomy
// callers keep working.
//
// Cancellation is cooperative: a CancelToken holds an explicit cancel
// flag plus an optional steady-clock deadline, and solvers poll it at
// round boundaries via poll_cancel() (hooked into telemetry::RoundSpan,
// which every family solver and ExplicitCordon constructs once per
// round).  The hot loop pays one thread-local pointer load per round
// when no token is installed, and one extra relaxed load when one is —
// the deadline clock is only read when a deadline was actually set.
//
// Throw-safety.  The scheduler's Job::run has no exception rail: an
// exception that unwinds past a stolen job's frame (or past a par_do
// that still has its right branch published on a deque) terminates the
// process or strands the joiner.  ThrowGate is a thread-local stack of
// "may I throw here?" frames: the scheduler marks job execution and
// in-flight forks unsafe, and BatchExecutor::solve_one — whose try/
// catch is the containment boundary every solve runs under — marks its
// scope safe again.  poll_cancel() and the fault layer's throwing
// injections both refuse to throw unless the innermost frame says it is
// safe, so a RoundSpan accidentally constructed inside a parallel body
// degrades to a no-op instead of a crash.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <new>
#include <stdexcept>
#include <string>

namespace cordon::core {

/// The complete failure taxonomy for a solve request.
enum class SolveErrorCode : std::uint8_t {
  kInvalidArgument = 0,  // hostile/oversized instance, bad delta, bad kind
  kDeadlineExceeded = 1, // per-request deadline passed (before or mid-solve)
  kCancelled = 2,        // caller cancelled the token
  kShed = 3,             // admission control rejected under overload
  kShutdown = 4,         // service stopping; request not attempted
  kInternal = 5,         // solver invariant failure, resource exhaustion
};

constexpr const char* solve_error_name(SolveErrorCode c) noexcept {
  switch (c) {
    case SolveErrorCode::kInvalidArgument: return "invalid_argument";
    case SolveErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case SolveErrorCode::kCancelled: return "cancelled";
    case SolveErrorCode::kShed: return "shed";
    case SolveErrorCode::kShutdown: return "shutdown";
    case SolveErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

/// The one exception type a cordon solve is allowed to fail with.
/// `retry_after()` is a backpressure hint (zero = none): for kShed it
/// estimates when the queue will have drained enough to admit again.
class SolveError : public std::runtime_error {
 public:
  SolveError(SolveErrorCode code, const std::string& what,
             std::chrono::nanoseconds retry_after = std::chrono::nanoseconds{0})
      : std::runtime_error(std::string(solve_error_name(code)) + ": " + what),
        code_(code),
        retry_after_(retry_after) {}

  [[nodiscard]] SolveErrorCode code() const noexcept { return code_; }
  /// what() without the leading "<code name>: ".
  [[nodiscard]] const char* message() const noexcept {
    return what() + std::char_traits<char>::length(solve_error_name(code_)) + 2;
  }
  [[nodiscard]] std::chrono::nanoseconds retry_after() const noexcept {
    return retry_after_;
  }

 private:
  SolveErrorCode code_;
  std::chrono::nanoseconds retry_after_;
};

/// The one exception -> SolveError conversion, for every boundary that
/// must hand callers a typed failure (BatchExecutor::solve_one, the
/// service dispatcher, session appends): a SolveError passes through;
/// invalid_argument and out_of_range (a hostile instance or delta, an
/// unknown kind) become kInvalidArgument; bad_alloc and anything else
/// become kInternal.
[[nodiscard]] inline SolveError to_solve_error(std::exception_ptr e) {
  try {
    std::rethrow_exception(e);
  } catch (const SolveError& s) {
    return s;
  } catch (const std::invalid_argument& x) {
    return SolveError(SolveErrorCode::kInvalidArgument, x.what());
  } catch (const std::out_of_range& x) {
    return SolveError(SolveErrorCode::kInvalidArgument, x.what());
  } catch (const std::bad_alloc&) {
    return SolveError(SolveErrorCode::kInternal, "allocation failed");
  } catch (const std::exception& x) {
    return SolveError(SolveErrorCode::kInternal, x.what());
  } catch (...) {  // lint: allow-catch (converted to SolveError here)
    return SolveError(SolveErrorCode::kInternal, "unknown exception");
  }
}

/// Cancellation + deadline state shared between a submitter and the
/// solve running on its behalf.  All operations are lock-free; cancel()
/// may race the solve arbitrarily (that is the point).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Absolute steady-clock deadline; a zero time_point clears it.
  void set_deadline(std::chrono::steady_clock::time_point tp) noexcept {
    deadline_ns_.store(
        static_cast<std::uint64_t>(tp.time_since_epoch().count()),
        std::memory_order_relaxed);
  }

  void set_timeout(std::chrono::nanoseconds d) noexcept {
    set_deadline(std::chrono::steady_clock::now() + d);
  }

  /// Steady-clock deadline in ns since epoch; 0 = no deadline set.
  [[nodiscard]] std::uint64_t deadline_ns() const noexcept {
    return deadline_ns_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool has_deadline() const noexcept {
    return deadline_ns() != 0;
  }

  [[nodiscard]] bool expired() const noexcept {
    std::uint64_t d = deadline_ns();
    if (d == 0) return false;
    return static_cast<std::uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count()) >=
           d;
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> deadline_ns_{0};
};

namespace detail {

inline CancelToken*& tl_cancel_token() noexcept {
  thread_local CancelToken* token = nullptr;
  return token;
}

inline bool& tl_throw_safe() noexcept {
  // A thread starts throw-safe: a top-level caller of solve() owns its
  // own stack and may catch whatever propagates.
  thread_local bool safe = true;
  return safe;
}

}  // namespace detail

/// True when an exception thrown here propagates to a frame that can
/// contain it (see the header comment).  Consulted by poll_cancel() and
/// by every throwing fault injection.
[[nodiscard]] inline bool throw_safe() noexcept {
  return detail::tl_throw_safe();
}

/// Thread-local throw-safety frame (save/set/restore).  The scheduler
/// opens ThrowGate(false) around job execution and in-flight forks;
/// BatchExecutor::solve_one opens ThrowGate(true) inside its try block.
class ThrowGate {
 public:
  explicit ThrowGate(bool safe) noexcept : prev_(detail::tl_throw_safe()) {
    detail::tl_throw_safe() = safe;
  }
  ~ThrowGate() { detail::tl_throw_safe() = prev_; }
  ThrowGate(const ThrowGate&) = delete;
  ThrowGate& operator=(const ThrowGate&) = delete;

 private:
  bool prev_;
};

/// The token the current thread's solve is answering to (nullptr when
/// none).  Installed by CancelScope; stolen sub-jobs on other threads
/// see their own thread's value, so a poll never aborts a bystander.
[[nodiscard]] inline CancelToken* current_cancel_token() noexcept {
  return detail::tl_cancel_token();
}

/// Installs `t` as the calling thread's active token for the scope's
/// lifetime (save/restore, so nested solves — a worker helping another
/// batch item mid-join — compose correctly).
class CancelScope {
 public:
  explicit CancelScope(CancelToken* t) noexcept
      : prev_(detail::tl_cancel_token()) {
    detail::tl_cancel_token() = t;
  }
  ~CancelScope() { detail::tl_cancel_token() = prev_; }
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  CancelToken* prev_;
};

/// The per-round cancellation check.  No token installed: one
/// thread-local load.  Token installed: one relaxed load (plus a clock
/// read only when a deadline was set).  Throws SolveError from a
/// throw-safe frame; degrades to a no-op inside parallel regions (the
/// next safe round boundary picks the cancellation up).
inline void poll_cancel() {
  CancelToken* t = detail::tl_cancel_token();
  if (t == nullptr) return;
  if (!t->cancelled() && !t->expired()) return;
  if (!throw_safe()) return;
  if (t->cancelled())
    throw SolveError(SolveErrorCode::kCancelled, "solve cancelled mid-round");
  throw SolveError(SolveErrorCode::kDeadlineExceeded,
                   "deadline exceeded mid-round");
}

/// Amortized poll for the sequential fallback paths.  The `*_sequential`
/// algorithms have no round boundaries — on machines below a family's
/// min-worker floor they are the production path for arbitrarily large
/// instances, so without this they would be uncancellable.  tick() is an
/// increment and a predictable branch; one poll (a thread-local load,
/// usually nothing more) every `kStride` states bounds cancellation
/// latency to a few thousand relaxations' worth of work.
class PollTicker {
 public:
  void tick() {
    if (++n_ % kStride == 0) poll_cancel();
  }

 private:
  static constexpr std::uint32_t kStride = 4096;
  std::uint32_t n_ = 0;
};

}  // namespace cordon::core
