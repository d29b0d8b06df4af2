#include "perfbench/src/workloads.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>

#include "perfbench/src/families.hpp"
#include "src/core/cancel.hpp"
#include "src/engine/registry.hpp"
#include "src/parallel/random.hpp"

namespace perfbench {
namespace {

double us_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-3;
}

void check(double got, double want, const std::string& what) {
  if (!objective_matches(got, want))
    throw BenchFailure(what + ": objective " + std::to_string(got) +
                       " != expected " + std::to_string(want));
}

/// Records, per slice of the phase, what each operation added to `st`.
/// One recorder per thread; merged into the phase's slices at the end.
class SliceRecorder {
 public:
  SliceRecorder(std::uint64_t start_ns, double slice_s)
      : start_ns_(start_ns), slice_ns_(slice_s * 1e9), slices_(kSlices) {}

  /// Call before an operation records into `st`.
  void begin(const RunStats& st) {
    done0_ = st.completed();
    lat0_ = st.latency_us.size();
  }
  /// Call after; `at_ns` places the operation in its slice.
  void end(const RunStats& st, std::uint64_t at_ns) {
    Slice& s = slices_[index(at_ns)];
    s.completed += st.completed() - done0_;
    for (std::size_t j = lat0_; j < st.latency_us.size(); ++j)
      s.latency_us.add(st.latency_us.at(j));
  }
  void probe(std::uint64_t at_ns) {
    slices_[index(at_ns)].probe_us.add(host_probe_us());
  }
  [[nodiscard]] std::size_t index(std::uint64_t at_ns) const {
    double k = static_cast<double>(at_ns - std::min(at_ns, start_ns_)) / slice_ns_;
    return std::min<std::size_t>(kSlices - 1, static_cast<std::size_t>(k));
  }
  void merge_into(std::vector<Slice>& out) const {
    out.resize(kSlices);
    for (std::size_t k = 0; k < kSlices; ++k) {
      out[k].completed += slices_[k].completed;
      out[k].latency_us.append(slices_[k].latency_us);
      out[k].probe_us.append(slices_[k].probe_us);
    }
  }

 private:
  std::uint64_t start_ns_;
  double slice_ns_;
  std::vector<Slice> slices_;
  std::uint64_t done0_ = 0;
  std::size_t lat0_ = 0;
};

/// How often a closed loop's sampling thread reads the live heap.
constexpr int kHeapEveryMs = 50;

/// Process CPU spent in each slice, sampled at the slice boundaries, and
/// the mean live heap over it, sampled every kHeapEveryMs, by the
/// calling thread until `done` is set.
std::vector<Slice> sample_slices(std::uint64_t start_ns, double slice_s,
                                 const std::atomic<bool>& done) {
  std::vector<Slice> out;
  double prev = process_cpu_s();
  for (std::size_t k = 1; k <= kSlices && !done.load(); ++k) {
    const auto boundary = start_ns + static_cast<std::uint64_t>(k * slice_s * 1e9);
    Samples heap;
    for (int ms = 0; !done.load() && now_ns() < boundary; ++ms) {
      if (ms % kHeapEveryMs == 0) heap.add(live_heap_mb());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const double c = process_cpu_s();
    Slice& s = out.emplace_back();
    s.heap_mb = heap.mean();
    s.cpu_s = c - prev;
    prev = c;
  }
  return out;
}

/// How often each closed-loop client reads the host-speed probe.
constexpr std::uint64_t kProbeEveryNs = 10'000'000;

/// Runs `clients` closed-loop threads.  `op(client, op_index, lane, stats)`
/// performs one operation and records into the thread's own stats.  The
/// loop stops at the deadline, or after `max_ops` when nonzero.
template <typename Op>
RunStats closed_loop(unsigned clients, double seconds, std::uint64_t max_ops,
                     SpanLog* log, const Op& op) {
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> finished{false};
  std::atomic<unsigned> running{clients};
  std::vector<RunStats> per(clients);
  const double slice_s = seconds / kSlices;
  std::vector<SpanLog::Lane*> lanes(clients, nullptr);
  if (log != nullptr)
    for (auto& l : lanes) l = log->lane();
  std::exception_ptr error;
  std::mutex error_mu;

  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const std::uint64_t start_ns = now_ns();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<SliceRecorder> rec(clients, SliceRecorder(start_ns, slice_s));
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        std::uint64_t next_probe = 0;
        while (!stop.load(std::memory_order_relaxed) &&
               Clock::now() < deadline) {
          if (const std::uint64_t t = now_ns(); t >= next_probe) {
            rec[c].probe(t);
            next_probe = t + kProbeEveryNs;
          }
          std::uint64_t i = next.fetch_add(1);
          if (max_ops != 0 && i >= max_ops) break;
          rec[c].begin(per[c]);
          op(c, i, lanes[c], per[c]);
          rec[c].end(per[c], now_ns());
        }
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!error) error = std::current_exception();
        stop = true;
      }
      if (running.fetch_sub(1) == 1) finished = true;
    });
  }
  const std::vector<Slice> sampled = sample_slices(start_ns, slice_s, finished);
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);

  RunStats out;
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.cpu_s = process_cpu_s() - cpu0;
  for (RunStats& s : per) {
    out.attempted += s.attempted;
    out.failed += s.failed;
    out.latency_us.append(s.latency_us);
    out.submit_us.append(s.submit_us);
    out.future_wait_us.append(s.future_wait_us);
    out.append_us.append(s.append_us);
    out.create_session_ms.append(s.create_session_ms);
  }
  // Slices are reported only for a phase that ran its full length.
  if (sampled.size() == kSlices) {
    for (const SliceRecorder& r : rec) r.merge_into(out.slices);
    for (std::size_t k = 0; k < kSlices; ++k) {
      out.slices[k].cpu_s = sampled[k].cpu_s;
      out.slices[k].heap_mb = sampled[k].heap_mb;
      out.slices[k].wall_s = slice_s;
    }
  }
  return out;
}

/// submit() then get(), timed and checked.  A typed SolveError counts as
/// failed, and in the latency percentiles at the time it arrived; any
/// other exception propagates and fails the run.
void submit_and_check(service::CordonService& svc, engine::Instance inst,
                      double expected, std::uint64_t id, SpanLog::Lane* lane,
                      RunStats& st) {
  ++st.attempted;
  const std::uint64_t t0 = now_ns();
  std::future<engine::SolveResult> fut;
  std::uint64_t t1 = 0, t2 = 0;
  try {
    engine::SolveResult r = span(lane, "request", "harness", id, [&] {
      fut = span(lane, "service.submit", "service", id,
                 [&] { return svc.submit(std::move(inst)); });
      t1 = now_ns();
      auto res = span(lane, "service.future_wait", "service", id,
                      [&] { return fut.get(); });
      t2 = now_ns();
      return res;
    });
    check(r.objective, expected, "request " + std::to_string(id));
  } catch (const core::SolveError&) {
    ++st.failed;
    st.latency_us.add(us_between(t0, now_ns()));
    return;
  }
  st.latency_us.add(us_between(t0, t2));
  if (lane != nullptr) {
    st.submit_us.add(us_between(t0, t1));
    st.future_wait_us.add(us_between(t1, t2));
  }
}

// --- hot_cache --------------------------------------------------------------

/// Closed loop, nproc clients, over a small pool of all nine families at
/// bench_service sizes that setup already put in the cache: every timed
/// request is a hit.
class HotCache final : public Workload {
 public:
  void setup(const Context& ctx) override {
    pool_.clear();
    for (const std::string& k : family_keys())
      for (std::uint64_t j = 0; j < 4; ++j)
        pool_.push_back(make_instance(k, SizeClass::kService,
                                      ctx.seed * 1000 + pool_.size()));
    expected_ = expected_objectives(pool_, ctx.nproc);
    offset_ = parallel::uniform(ctx.seed, 0, pool_.size());
    reset_service(ctx);
  }
  void teardown() override { svc_.reset(); }
  void reset_service(const Context&) override {
    svc_.reset();
    svc_ = std::make_unique<service::CordonService>();
    RunStats warm;
    for (std::size_t i = 0; i < pool_.size(); ++i)
      submit_and_check(*svc_, pool_[i], expected_[i], i, nullptr, warm);
    if (warm.failed != 0) throw BenchFailure("hot_cache warm-up failed");
  }
  RunStats run(const Context& ctx, std::uint64_t max_ops,
               SpanLog* log) override {
    return closed_loop(ctx.nproc, ctx.seconds, max_ops, log,
                       [&](unsigned, std::uint64_t i, SpanLog::Lane* lane,
                           RunStats& st) {
                         std::size_t k = (offset_ + i) % pool_.size();
                         submit_and_check(*svc_, pool_[k], expected_[k], i,
                                          lane, st);
                       });
  }
  service::CordonService& service() override { return *svc_; }
  LayerInputs layer_inputs() const override {
    return {pool_, expected_, {}};
  }

 private:
  std::vector<engine::Instance> pool_;
  std::vector<double> expected_;
  std::uint64_t offset_ = 0;
  std::unique_ptr<service::CordonService> svc_;
};

// --- cold_mix ---------------------------------------------------------------

/// Open loop: Poisson arrivals at a fixed rate, every instance unique,
/// every request carrying a deadline equal to the latency limit.
class ColdMix final : public Workload {
 public:
  /// The latency limit, and each request's deadline.
  static constexpr double kLimitMs = 25.0;
  /// Arrivals per second: about half of the miss capacity under that
  /// limit at these sizes on a 4-core x86-64 box (~1200 req/s kept p99
  /// near 25 ms; at 1500 req/s latency flips run to run between a
  /// small-batch and a large-batch regime).  Fixed, so runs stay
  /// comparable across commits.
  static constexpr double kRate = 600.0;

  void setup(const Context& ctx) override {
    schedule_s_ = ctx.seconds;
    due_s_.clear();
    insts_.clear();
    const auto& keys = family_keys();
    double t = 0;
    for (std::uint64_t i = 0;; ++i) {
      // Exponential gaps (inverse transform of a uniform in (0, 1]).
      double u = 1.0 - parallel::uniform_double(ctx.seed ^ 0xa11ce, i);
      t += -std::log(u) / kRate;
      if (t >= ctx.seconds) break;
      due_s_.push_back(t);
      const std::string& k = keys[parallel::uniform(ctx.seed, i, keys.size())];
      insts_.push_back(
          make_instance(k, SizeClass::kModerate, ctx.seed * 1000003 + i));
    }
    expected_ = expected_objectives(insts_, ctx.nproc);
    reset_service(ctx);
  }
  void teardown() override { svc_.reset(); }
  void reset_service(const Context&) override {
    svc_.reset();
    svc_ = std::make_unique<service::CordonService>();
  }

  RunStats run(const Context&, std::uint64_t max_ops, SpanLog* log) override {
    struct InFlight {
      std::uint64_t id;
      std::uint64_t due_ns;
      std::uint64_t submitted_ns;
      std::future<engine::SolveResult> fut;
    };
    std::deque<InFlight> queue;
    std::mutex mu;
    std::condition_variable cv;
    bool sent_all = false;
    SpanLog::Lane* send_lane = log ? log->lane() : nullptr;
    SpanLog::Lane* wait_lane = log ? log->lane() : nullptr;
    RunStats st;
    st.open_loop = true;
    std::exception_ptr error;
    const std::size_t n =
        max_ops != 0 ? std::min<std::size_t>(max_ops, insts_.size())
                     : insts_.size();

    const double cpu0 = process_cpu_s();
    const std::uint64_t start = now_ns() + 1'000'000;  // first send +1 ms
    // Requests fall into slices by their scheduled send time.
    const double slice_s = schedule_s_ / kSlices;
    SliceRecorder rec(start, slice_s);
    std::vector<Slice> sampled;  // CPU and live heap per slice
    double cpu_mark = cpu0;
    auto mark_slices = [&](std::uint64_t now) {
      while (sampled.size() < kSlices &&
             now >= start + static_cast<std::uint64_t>(
                                (sampled.size() + 1) * slice_s * 1e9)) {
        const double c = process_cpu_s();
        Slice& s = sampled.emplace_back();
        s.cpu_s = c - cpu_mark;
        s.heap_mb = live_heap_mb();
        cpu_mark = c;
      }
    };
    std::thread collector([&] {
      try {
        for (;;) {
          InFlight f;
          {
            std::unique_lock lock(mu);
            cv.wait(lock, [&] { return sent_all || !queue.empty(); });
            if (queue.empty()) return;
            f = std::move(queue.front());
            queue.pop_front();
          }
          rec.begin(st);
          ++st.attempted;
          try {
            auto r = span(wait_lane, "service.future_wait", "service", f.id,
                          [&] { return f.fut.get(); });
            check(r.objective, expected_[f.id],
                  "cold_mix request " + std::to_string(f.id));
          } catch (const core::SolveError&) {
            // A failed request missed the limit: it counts in the latency
            // percentiles at the time the client learned of the failure.
            ++st.failed;
            st.latency_us.add(us_between(f.due_ns, now_ns()));
            rec.end(st, f.due_ns);
            continue;
          }
          const std::uint64_t ready = now_ns();
          st.latency_us.add(us_between(f.due_ns, ready));
          rec.end(st, f.due_ns);
          if (log != nullptr)
            st.future_wait_us.add(us_between(f.submitted_ns, ready));
        }
      } catch (...) {
        // The sender checks `error` under the lock and stops sending.
        std::lock_guard lock(mu);
        error = std::current_exception();
        queue.clear();
      }
    });

    const std::chrono::nanoseconds limit{
        static_cast<std::int64_t>(kLimitMs * 1e6)};
    for (std::size_t i = 0; i < n; ++i) {
      const auto due = start + static_cast<std::uint64_t>(due_s_[i] * 1e9);
      wait_until_ns(due);
      const std::uint64_t sent = now_ns();
      mark_slices(sent);
      st.lag_us.add(us_between(due, sent));
      engine::Instance inst = insts_[i];
      service::SubmitOptions opt;
      // The deadline runs from the scheduled send time, so generator lag
      // eats into it exactly as a stall would for an independent user.
      opt.timeout = std::max(std::chrono::nanoseconds{1},
                             limit - std::chrono::nanoseconds(sent - due));
      InFlight f{i, due, 0, {}};
      f.fut = span(send_lane, "loadgen.send", "harness", i, [&] {
        return span(send_lane, "service.submit", "service", i, [&] {
          return svc_->submit(std::move(inst), opt);
        });
      });
      f.submitted_ns = now_ns();
      if (log != nullptr) st.submit_us.add(us_between(sent, f.submitted_ns));
      {
        std::lock_guard lock(mu);
        if (error) break;
        queue.push_back(std::move(f));
      }
      cv.notify_one();
    }
    {
      std::lock_guard lock(mu);
      sent_all = true;
    }
    cv.notify_one();
    if (n == insts_.size()) {
      // Close the CPU slices the schedule spans.
      auto collector_failed = [&] {
        std::lock_guard lock(mu);
        return error != nullptr;
      };
      while (sampled.size() < kSlices && !collector_failed()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        mark_slices(now_ns());
      }
    }
    collector.join();
    if (error) std::rethrow_exception(error);
    st.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
    st.cpu_s = process_cpu_s() - cpu0;
    if (sampled.size() == kSlices) {
      rec.merge_into(st.slices);
      for (std::size_t k = 0; k < kSlices; ++k) {
        st.slices[k].cpu_s = sampled[k].cpu_s;
        st.slices[k].heap_mb = sampled[k].heap_mb;
        st.slices[k].wall_s = slice_s;
      }
    }
    return st;
  }
  service::CordonService& service() override { return *svc_; }
  LayerInputs layer_inputs() const override {
    return {insts_, expected_, {}};
  }

 private:
  /// Sleeps until ~100 us before `due`, then spins: plain sleep_until
  /// overshoots by tens of microseconds.
  static void wait_until_ns(std::uint64_t due) {
    std::uint64_t now = now_ns();
    if (due > now + 200'000)
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due - now - 100'000));
    while (now_ns() < due) {
    }
  }

  double schedule_s_ = 0;  // the arrival schedule's length
  std::vector<double> due_s_;
  std::vector<engine::Instance> insts_;
  std::vector<double> expected_;
  std::unique_ptr<service::CordonService> svc_;
};

// --- large_solve ------------------------------------------------------------

/// Closed loop, one client, cache off: one large instance per family,
/// sent in whole rounds of nine so every run measures the same mix.
class LargeSolve final : public Workload {
 public:
  void setup(const Context& ctx) override {
    insts_.clear();
    for (const std::string& k : family_keys())
      insts_.push_back(make_instance(k, SizeClass::kLarge, ctx.seed * 31 + 1));
    expected_ = expected_objectives(insts_, ctx.nproc);
    reset_service(ctx);
  }
  void teardown() override { svc_.reset(); }
  void reset_service(const Context&) override {
    svc_.reset();
    service::ServiceOptions opt;
    opt.cache_capacity = 0;
    svc_ = std::make_unique<service::CordonService>(opt);
  }
  RunStats run(const Context& ctx, std::uint64_t max_ops,
               SpanLog* log) override {
    SpanLog::Lane* lane = log ? log->lane() : nullptr;
    RunStats st;
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    const std::size_t m = insts_.size();
    for (std::uint64_t i = 0;; i += m) {
      const std::uint64_t round_t0 = now_ns();
      if (i != 0 && (static_cast<double>(round_t0 - t0) * 1e-9 >= ctx.seconds ||
                     (max_ops != 0 && i >= max_ops)))
        break;
      // Each round of nine is one slice.
      const double round_cpu0 = process_cpu_s();
      const std::size_t lat0 = st.latency_us.size();
      const std::uint64_t done0 = st.completed();
      Samples probes;
      for (std::size_t j = 0; j < m; ++j) {
        probes.add(host_probe_us());
        submit_and_check(*svc_, insts_[j], expected_[j], i + j, lane, st);
      }
      Slice& s = st.slices.emplace_back();
      s.probe_us = probes;
      s.completed = st.completed() - done0;
      s.wall_s = static_cast<double>(now_ns() - round_t0) * 1e-9;
      s.cpu_s = process_cpu_s() - round_cpu0;
      s.heap_mb = live_heap_mb();
      for (std::size_t j = lat0; j < st.latency_us.size(); ++j)
        s.latency_us.add(st.latency_us.at(j));
    }
    st.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    st.cpu_s = process_cpu_s() - cpu0;
    if (max_ops != 0) st.slices.clear();
    return st;
  }
  service::CordonService& service() override { return *svc_; }
  LayerInputs layer_inputs() const override {
    return {insts_, expected_, {}};
  }

 private:
  std::vector<engine::Instance> insts_;
  std::vector<double> expected_;
  std::unique_ptr<service::CordonService> svc_;
};

// --- session_append ---------------------------------------------------------

/// Closed loop, nproc / 2 clients, each keeping two journaled sessions
/// open and appending small deltas to them; a session that reaches the
/// end of its planned lineage is closed and replaced by the next plan.
class SessionAppend final : public Workload {
 public:
  static constexpr std::size_t kAppends = 256;  // deltas per lineage
  static constexpr std::size_t kPlans = 32;      // distinct lineages

  void setup(const Context& ctx) override {
    plans_.clear();
    // lis, lcs and convex glws resume from saved state; oat has no
    // incremental path, so its appends fall back to cold solves.
    static const char* const kFamilies[] = {"lis", "lcs", "glws", "oat"};
    struct Lineage {
      engine::Instance full;
      std::uint64_t base, step;
    };
    std::vector<Lineage> lineages;
    for (std::size_t p = 0; p < kPlans; ++p) {
      const std::string k = kFamilies[p % 4];
      const std::uint64_t seed = ctx.seed * 7919 + p;
      Lineage l{{}, 2000, 8};
      if (k == "oat") l.base = 256, l.step = 1;
      if (k == "lcs") l.base = 1000;  // grows `a` against the full-length `b`
      const std::uint64_t n = l.base + kAppends * l.step;
      if (k == "glws") {
        engine::GlwsInstance g;
        g.n = n;
        g.cost.family = engine::CostSpec::Family::kQuadratic;
        g.cost.open = 1.0 + parallel::uniform_double(seed, 1) * 24.0;
        g.cost.scale = 0.05 + parallel::uniform_double(seed, 2);
        l.full = {"glws", g};
      } else {
        l.full = engine::builtin_registry().at(k).generate({n, 8, seed});
      }
      SessionPlan plan;
      plan.base = engine::prefix_instance(l.full, l.base);
      for (std::size_t v = 0; v < kAppends; ++v)
        plan.deltas.push_back(engine::slice_delta(
            l.full, l.base + v * l.step, l.base + (v + 1) * l.step, v));
      plans_.push_back(std::move(plan));
      lineages.push_back(std::move(l));
    }
    // Version v of plan p is the prefix of base + v * step elements.
    const std::size_t versions = kAppends + 1;
    std::vector<double> exp = expected_objectives(
        kPlans * versions,
        [&](std::size_t i) {
          const Lineage& l = lineages[i / versions];
          return engine::prefix_instance(l.full,
                                         l.base + (i % versions) * l.step);
        },
        ctx.nproc);
    for (std::size_t p = 0; p < kPlans; ++p)
      plans_[p].expected.assign(exp.begin() + p * versions,
                                exp.begin() + (p + 1) * versions);
    reset_service(ctx);
  }

  void teardown() override {
    svc_.reset();
    if (!journal_dir_.empty()) std::filesystem::remove_all(journal_dir_);
    journal_dir_.clear();
  }

  void reset_service(const Context& ctx) override {
    teardown();
    journal_dir_ = ctx.work_dir + "/journal-" + std::to_string(ctx.seed) + "-" +
                   std::to_string(++generation_);
    std::filesystem::remove_all(journal_dir_);
    std::filesystem::create_directories(journal_dir_);
    service::ServiceOptions opt;
    opt.journal_dir = journal_dir_;
    svc_ = std::make_unique<service::CordonService>(opt);
  }

  RunStats run(const Context& ctx, std::uint64_t max_ops,
               SpanLog* log) override {
    struct Open {
      std::uint64_t id = 0;
      std::size_t plan = 0;
      std::size_t version = 0;
      bool live = false;
    };
    // Half the cores: an append that creates a session or falls back to
    // a cold solve forks onto the nproc-worker pool, and nproc clients
    // beside it oversubscribe the cores, so the run would measure the
    // OS scheduler more than the program.
    const unsigned clients = std::max(1u, ctx.nproc / 2);
    std::vector<std::array<Open, 2>> open(clients);
    std::atomic<std::size_t> next_plan{0};
    auto open_next = [&](Open& o, std::uint64_t op, SpanLog::Lane* lane,
                         RunStats& st) {
      if (o.live) {
        span(lane, "service.close_session", "service", op,
             [&] { svc_->close_session(o.id); });
      }
      o.plan = next_plan.fetch_add(1) % plans_.size();
      o.version = 0;
      const std::uint64_t t0 = now_ns();
      o.id = span(lane, "service.create_session", "service", op, [&] {
        return svc_->create_session(plans_[o.plan].base);
      });
      if (lane != nullptr)
        st.create_session_ms.add(us_between(t0, now_ns()) * 1e-3);
      o.live = true;
    };

    RunStats st = closed_loop(
        clients, ctx.seconds, max_ops, log,
        [&](unsigned c, std::uint64_t i, SpanLog::Lane* lane, RunStats& s) {
          Open& o = open[c][i % 2];
          if (!o.live || o.version == kAppends) open_next(o, i, lane, s);
          const SessionPlan& plan = plans_[o.plan];
          ++s.attempted;
          const std::uint64_t t0 = now_ns();
          std::uint64_t t1 = 0;
          try {
            auto r = span(lane, "request", "harness", i, [&] {
              auto fut = span(lane, "service.append", "service", i, [&] {
                return svc_->append(o.id, plan.deltas[o.version]);
              });
              t1 = now_ns();
              return span(lane, "service.future_wait", "service", i,
                          [&] { return fut.get(); });
            });
            check(r.objective, plan.expected[o.version + 1],
                  "session plan " + std::to_string(o.plan) + " version " +
                      std::to_string(o.version + 1));
          } catch (const core::SolveError&) {
            ++s.failed;
            s.latency_us.add(us_between(t0, now_ns()));
            // A failed append leaves the lineage where it was; the next
            // append on this session would mismatch, so start over.
            o.version = kAppends;
            return;
          }
          ++o.version;
          s.latency_us.add(us_between(t0, now_ns()));
          if (lane != nullptr) s.append_us.add(us_between(t0, t1));
        });
    for (auto& pair : open)
      for (Open& o : pair)
        if (o.live) svc_->close_session(o.id);
    return st;
  }
  service::CordonService& service() override { return *svc_; }
  LayerInputs layer_inputs() const override {
    LayerInputs in;
    for (std::size_t p = 0; p < 4 && p < plans_.size(); ++p) {
      in.instances.push_back(plans_[p].base);
      in.expected.push_back(plans_[p].expected.front());
      in.plans.push_back(plans_[p]);
    }
    return in;
  }

 private:
  std::vector<SessionPlan> plans_;
  std::string journal_dir_;
  std::uint64_t generation_ = 0;
  std::unique_ptr<service::CordonService> svc_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "hot_cache") return std::make_unique<HotCache>();
  if (name == "cold_mix") return std::make_unique<ColdMix>();
  if (name == "large_solve") return std::make_unique<LargeSolve>();
  if (name == "session_append") return std::make_unique<SessionAppend>();
  return nullptr;
}

}  // namespace perfbench
