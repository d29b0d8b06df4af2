// Shared plumbing of the perfbench binary: clocks, sample summaries,
// the metric sheet, the span log behind the traced run, and process
// resource readings.  Everything here belongs to the benchmark; the
// program under test is reached only through its public headers.
#pragma once

#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace cordon {}

namespace perfbench {

using namespace cordon;

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// A correctness failure: wrong objective, untyped exception, broken
/// session lineage.  Ends the run with a nonzero exit and no result.
struct BenchFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// True when `got` equals `want` up to floating-point reassociation
/// (parallel and sequential solvers sum the same terms in other orders).
inline bool objective_matches(double got, double want) {
  double scale = std::max({1.0, want < 0 ? -want : want});
  double diff = got - want;
  return (diff < 0 ? -diff : diff) <= 1e-9 * scale;
}

/// Allocator of the benchmark's own sample buffers: pages straight from
/// mmap, so the samples a run piles up stay out of the heap the program
/// is measured by (live_heap_mb).
template <typename T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}
  T* allocate(std::size_t n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) { munmap(p, n * sizeof(T)); }
  friend bool operator==(const PageAllocator&, const PageAllocator&) { return true; }
  friend bool operator!=(const PageAllocator&, const PageAllocator&) { return false; }
};

/// Order statistics over a sample vector (sorted lazily, in place).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void scale(double f) {
    for (double& x : v_) x *= f;
  }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] double at(std::size_t i) const { return v_[i]; }
  [[nodiscard]] bool empty() const { return v_.empty(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
  [[nodiscard]] double quantile(double q) {
    if (v_.empty()) return 0;
    std::sort(v_.begin(), v_.end());
    auto rank = static_cast<std::size_t>(q * static_cast<double>(v_.size()));
    return v_[std::min(rank, v_.size() - 1)];
  }
  [[nodiscard]] double median() { return quantile(0.5); }
  [[nodiscard]] double mean() const {
    if (v_.empty()) return 0;
    double s = 0;
    for (double x : v_) s += x;
    return s / static_cast<double>(v_.size());
  }
  /// The highest percentile that still has at least ten samples beyond
  /// it: p99 from 1000 samples up, lower for smaller samples.
  [[nodiscard]] double tail_quantile() const {
    if (v_.size() <= 10) return 1.0;
    return std::min(0.99, 1.0 - 10.0 / static_cast<double>(v_.size()));
  }
  [[nodiscard]] double tail() { return quantile(tail_quantile()); }

 private:
  std::vector<double, PageAllocator<double>> v_;
};

/// The named metric sheet one run prints, in insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricSheet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : m_)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    m_.push_back({name, value, unit});
  }
  [[nodiscard]] const std::vector<Metric>& all() const { return m_; }

 private:
  std::vector<Metric> m_;
};

/// One benchmark-owned span: a call into a layer of the program, timed
/// by the benchmark around the public function it calls.  Spans of one
/// request share `id`; `layer` names the module the call enters.
struct SpanRec {
  const char* name;
  const char* layer;
  std::uint32_t tid;
  std::uint64_t id;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// Spans of the layer replay are numbered from here, apart from the
/// timed phase's operation indices.
inline constexpr std::uint64_t kReplayIdBase = std::uint64_t{1} << 40;

/// In-memory span store for the traced run.  Each recording thread owns
/// a Lane (no locking on the hot path); lanes are merged at the end.
class SpanLog {
 public:
  class Lane {
   public:
    void add(const char* name, const char* layer, std::uint64_t id,
             std::uint64_t start_ns, std::uint64_t end_ns) {
      spans_.push_back({name, layer, tid_, id, start_ns, end_ns});
    }

   private:
    friend class SpanLog;
    explicit Lane(std::uint32_t tid) : tid_(tid) {}
    std::uint32_t tid_;
    std::vector<SpanRec> spans_;
  };

  /// A lane for the calling thread; the pointer stays valid for the
  /// log's lifetime.
  Lane* lane() {
    std::lock_guard lock(mu_);
    lanes_.push_back(std::unique_ptr<Lane>(
        new Lane(static_cast<std::uint32_t>(lanes_.size() + 1))));
    return lanes_.back().get();
  }

  [[nodiscard]] std::vector<SpanRec> merged() const {
    std::lock_guard lock(mu_);
    std::vector<SpanRec> out;
    for (const auto& l : lanes_)
      out.insert(out.end(), l->spans_.begin(), l->spans_.end());
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// Times `f` into `lane` as span `name` when tracing (lane != nullptr);
/// untraced calls pay one branch.
template <typename F>
decltype(auto) span(SpanLog::Lane* lane, const char* name, const char* layer,
                    std::uint64_t id, F&& f) {
  if (lane == nullptr) return f();
  struct Closer {
    SpanLog::Lane* lane;
    const char* name;
    const char* layer;
    std::uint64_t id;
    std::uint64_t t0;
    ~Closer() { lane->add(name, layer, id, t0, now_ns()); }
  } closer{lane, name, layer, id, now_ns()};
  return f();
}

/// Process CPU (user + system) seconds so far.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// CPU seconds the calling thread has run so far.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Doubles the host probe formats.
inline constexpr std::size_t kProbeValues = 128;

/// The host-speed probe: a fixed piece of work on the library path the
/// service's request path spends its time in (format doubles through an
/// ostringstream at precision 17, as instances are serialized, then hash
/// the text), run once to warm the caches and once timed in the calling
/// thread's CPU time, so preemption does not count.  On a shared host a
/// thread's speed drifts by tens of percent within a minute; reading
/// this probe beside the program's work, in the same thread and slice,
/// measures that drift so the timings can be scaled out of it.
inline double host_probe_us() {
  static const std::vector<double> values = [] {
    std::vector<double> v(kProbeValues);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (double& d : v) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      d = static_cast<double>(x >> 11) * 0x1p-40;
    }
    return v;
  }();
  static volatile std::uint64_t sink = 0;
  double t0 = 0;
  for (int pass = 0; pass < 2; ++pass) {
    t0 = thread_cpu_s();
    std::ostringstream out;
    out.precision(17);
    for (double v : values) out << v << ' ';
    const std::string text = out.str();
    std::uint64_t h = 1469598103934665603ull;
    for (char c : text) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    sink = sink + h;
  }
  return (thread_cpu_s() - t0) * 1e6;
}

/// Median of `n` host_probe_us() readings taken back to back.
inline double probe_median(int n) {
  Samples s;
  for (int i = 0; i < n; ++i) s.add(host_probe_us());
  return s.median();
}

/// The reference host: timings are reported as they would read on a
/// host where host_probe_us() reads this many microseconds (a shared
/// 4-vCPU x86-64 VM read 45-62 us in its fast spells).  A timing t
/// measured beside a probe reading p is reported as t * kRefProbeUs / p.
inline constexpr double kRefProbeUs = 80.0;

/// Heap bytes the program holds live now (allocated and not yet freed,
/// mmapped blocks included), in MiB: unlike resident memory, this does
/// not depend on how much freed memory the allocator keeps cached.
inline double live_heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// Peak resident set size of the process, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
