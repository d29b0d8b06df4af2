#include "perfbench/src/layers.hpp"

#include <atomic>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "perfbench/src/families.hpp"
#include "src/core/kernels.hpp"
#include "src/engine/batch_executor.hpp"
#include "src/engine/delta.hpp"
#include "src/engine/registry.hpp"
#include "src/parallel/random.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/service/journal.hpp"

namespace perfbench {
namespace {

/// Span names must outlive the log; family-specific ones are built once.
const char* intern(const std::string& s) {
  static std::mutex mu;
  static std::deque<std::string> names;
  std::lock_guard lock(mu);
  for (const std::string& n : names)
    if (n == s) return n.c_str();
  return names.emplace_back(s).c_str();
}

/// Keeps a computed value alive so the optimizer cannot drop the work.
std::atomic<double> g_sink{0};
void keep(double v) { g_sink.store(v, std::memory_order_relaxed); }

class Replay {
 public:
  Replay(SpanLog& log, MetricSheet& out) : lane_(log.lane()), out_(out) {}

  /// Runs `f` as span `name` in `layer`; returns its wall time in us.
  template <typename F>
  double timed(const char* name, const char* layer, F&& f) {
    const std::uint64_t t0 = now_ns();
    span(lane_, name, layer, next_id_++, f);
    return static_cast<double>(now_ns() - t0) * 1e-3;
  }

  void check(double got, double want, const std::string& what) {
    if (!objective_matches(got, want))
      throw BenchFailure("replay " + what + ": objective " +
                         std::to_string(got) + " != expected " +
                         std::to_string(want));
  }

  void set(const std::string& name, double v, const char* unit) {
    out_.set(name, v, unit);
  }

 private:
  SpanLog::Lane* lane_;
  MetricSheet& out_;
  std::uint64_t next_id_ = kReplayIdBase;
};

/// Up to 64 of the inputs, each submitted twice back to back, into a
/// cache-off service: admission queue, batching window, dispatcher and
/// in-batch coalescing, which a cache-hit or session workload never
/// reaches in its timed phase.
service::ServiceStats replay_service(const LayerInputs& in, Replay& rp) {
  service::ServiceOptions opt;
  opt.cache_capacity = 0;
  service::CordonService svc(opt);
  const std::size_t n = std::min<std::size_t>(in.instances.size(), 64);
  std::vector<std::future<engine::SolveResult>> futs;
  rp.timed("service.burst", "service", [&] {
    for (std::size_t i = 0; i < n; ++i)
      for (int copy = 0; copy < 2; ++copy)
        futs.push_back(svc.submit(in.instances[i]));
    for (std::size_t k = 0; k < futs.size(); ++k)
      rp.check(futs[k].get().objective, in.expected[k / 2], "service burst");
  });
  svc.shutdown();
  return svc.stats();
}

void replay_canonical_keys(const LayerInputs& in, Replay& rp) {
  Samples us;
  for (std::size_t i = 0; i < in.instances.size() && i < 64; ++i)
    us.add(rp.timed("engine.canonical_key", "engine", [&] {
      keep(static_cast<double>(engine::canonical_key(in.instances[i]).hash));
    }));
  rp.set("engine.canonical_key_us.p50", us.median(), "us");
}

void replay_batches(const LayerInputs& in, std::size_t batch_size,
                    Replay& rp) {
  const engine::BatchExecutor exec;
  Samples par_ms, seq_ms;
  const std::size_t bs = std::max<std::size_t>(1, batch_size);
  const std::uint64_t t_start = now_ns();
  for (std::size_t lo = 0; lo < in.instances.size() && par_ms.size() < 8;
       lo += bs) {
    if (now_ns() - t_start > 3'000'000'000ull) break;  // replay budget
    const std::size_t hi = std::min(in.instances.size(), lo + bs);
    std::vector<engine::Instance> queue(in.instances.begin() + lo,
                                        in.instances.begin() + hi);
    for (bool parallel : {true, false}) {
      engine::BatchReport report;
      double us = rp.timed(parallel ? "engine.batch_run" : "engine.batch_run_seq",
                           "engine", [&] {
                             report = exec.run(queue, {.parallel = parallel});
                           });
      for (std::size_t i = 0; i < report.items.size(); ++i) {
        if (!report.items[i].ok)
          throw BenchFailure("replay batch item failed: " +
                             report.items[i].error);
        rp.check(report.items[i].result.objective, in.expected[lo + i],
                 "batch item " + std::to_string(lo + i));
      }
      (parallel ? par_ms : seq_ms).add(us * 1e-3);
    }
  }
  rp.set("engine.batch_run_ms.mean", par_ms.mean(), "ms");
  rp.set("engine.batch_run_seq_ms.mean", seq_ms.mean(), "ms");
}

void replay_families(const LayerInputs& in, Replay& rp) {
  const auto& reg = engine::builtin_registry();
  for (const std::string& k : family_keys()) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < in.instances.size(); ++i)
      if (in.instances[i].kind == k) idx.push_back(i);
    const engine::Solver& solver = reg.at(k);
    Samples mix_us, solve_ms, one_ms, seq_ms;
    core::DpStats stats;
    if (!idx.empty()) {
      const char* mix_name = intern("families." + k + ".mix_solve");
      for (std::size_t j = 0; j < idx.size() && j < 16; ++j) {
        double got = 0;
        mix_us.add(rp.timed(mix_name, "families", [&] {
          got = solver.solve(in.instances[idx[j]]).objective;
        }));
        rp.check(got, in.expected[idx[j]], k + " mix solve");
      }
      // The workload's first instance of the family, solved at nproc
      // workers, inline under SequentialRegion, and by the family's
      // sequential entry point.  Large solves are timed once.
      const engine::Instance& inst = in.instances[idx.front()];
      const double want = in.expected[idx.front()];
      const char* solve_name = intern("families." + k + ".solve");
      const char* one_name = intern("families." + k + ".one_thread");
      const char* seq_name = intern("families." + k + ".seq");
      for (int r = 0; r < 3; ++r) {
        engine::SolveResult res;
        solve_ms.add(rp.timed(solve_name, "families",
                              [&] { res = solver.solve(inst); }) * 1e-3);
        rp.check(res.objective, want, k + " solve");
        stats = res.stats;
        one_ms.add(rp.timed(one_name, "families", [&] {
          parallel::SequentialRegion seq;
          res = solver.solve(inst);
        }) * 1e-3);
        rp.check(res.objective, want, k + " one-thread solve");
        double seq_objective = 0;
        seq_ms.add(rp.timed(seq_name, "families",
                            [&] { seq_objective = seq_solve(inst); }) * 1e-3);
        rp.check(seq_objective, want, k + " sequential solve");
        if (solve_ms.mean() > 200) break;
      }
    }
    const double seq = seq_ms.median();
    rp.set(k + ".solve_ms", solve_ms.median(), "ms");
    rp.set(k + ".one_thread_ms", one_ms.median(), "ms");
    rp.set(k + ".seq_ms", seq, "ms");
    rp.set(k + ".par_vs_seq", seq > 0 ? solve_ms.median() / seq : 0, "ratio");
    rp.set(k + ".rounds", static_cast<double>(stats.rounds), "count");
    rp.set(k + ".relaxations", static_cast<double>(stats.relaxations),
           "count");
    rp.set(k + ".mix_solve_us.p50", mix_us.median(), "us");
  }
}

void replay_sessions(const LayerInputs& in, const std::string& work_dir,
                     Replay& rp) {
  Samples apply_us, resume_us, cold_us, journal_us;
  const std::string dir = work_dir + "/replay-journal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto& reg = engine::builtin_registry();
  std::uint64_t id = 0;
  for (const SessionPlan& plan : in.plans) {
    const engine::Solver& solver = reg.at(plan.base.kind);
    engine::Instance cur = plan.base;
    std::shared_ptr<const engine::SolverState> state;
    (void)solver.solve_checkpoint(cur, state);
    auto journal = service::SessionJournal::create(
        dir, ++id, plan.base.kind, engine::to_string(plan.base));
    std::uint64_t chain = 0;
    for (std::size_t v = 0; v < plan.deltas.size(); ++v) {
      const engine::Delta& delta = plan.deltas[v];
      const double want = plan.expected[v + 1];
      apply_us.add(rp.timed("engine.apply_delta", "engine",
                            [&] { engine::apply_delta_inplace(cur, delta); }));
      engine::ResumeResult rr;
      resume_us.add(rp.timed("engine.resume", "engine",
                             [&] { rr = solver.resume(state, cur, delta); }));
      rp.check(rr.result.objective, want, plan.base.kind + " resume");
      state = rr.state;
      double cold = 0;
      cold_us.add(rp.timed("engine.cold_solve", "engine",
                           [&] { cold = solver.solve(cur).objective; }));
      rp.check(cold, want, plan.base.kind + " cold solve");
      const std::string text = engine::to_string(delta);
      chain ^= engine::fnv1a64(text);
      journal_us.add(rp.timed("service.journal_append", "service", [&] {
        journal->append_delta(text, v + 1, chain);
      }));
    }
    journal->remove();
  }
  std::filesystem::remove_all(dir);
  rp.set("engine.delta_apply_us.p50", apply_us.median(), "us");
  rp.set("engine.resume_us.p50", resume_us.median(), "us");
  rp.set("engine.cold_solve_us.p50", cold_us.median(), "us");
  rp.set("journal.append_us.p50", journal_us.median(), "us");
}

void replay_kernels(const LayerInputs& in, Replay& rp) {
  // argmin_add at the row length of the workload's obst instance (the
  // family whose Knuth ranges it scans), min_gather_add over the
  // workload's dag edges; fixed sizes when the workload has neither.
  std::size_t row = 1024;
  const engine::DagInstance* dag = nullptr;
  for (const engine::Instance& inst : in.instances) {
    if (inst.kind == "obst")
      row = std::max<std::size_t>(2, inst.as<engine::ObstInstance>().weights.size());
    if (inst.kind == "dag" && dag == nullptr)
      dag = &inst.as<engine::DagInstance>();
  }
  std::vector<double> a(row), b(row);
  for (std::size_t i = 0; i < row; ++i) {
    a[i] = parallel::uniform_double(11, i);
    b[i] = parallel::uniform_double(13, i);
  }
  const std::size_t arg_reps = std::max<std::size_t>(1, (1u << 24) / row);
  double us = rp.timed("core.argmin_add", "core", [&] {
    double acc = 0;
    for (std::size_t r = 0; r < arg_reps; ++r)
      acc += core::kernels::argmin_add(a.data(), b.data(), row).value;
    keep(acc);
  });
  const double arg_ops = static_cast<double>(arg_reps * row);
  rp.set("kernels.argmin_add_ns_per_elem", us * 1e3 / arg_ops, "ns");
  rp.set("kernels.argmin_add_ops", arg_ops, "count");
  rp.set("kernels.argmin_add_bytes", arg_ops * 2 * sizeof(double), "B");

  std::vector<std::uint32_t> src;
  std::vector<double> w;
  std::size_t states = 1u << 16;
  if (dag != nullptr) {
    states = dag->n;
    for (const auto& e : dag->edges) {
      src.push_back(e.src);
      w.push_back(e.weight);
    }
  } else {
    for (std::size_t e = 0; e < 2 * states; ++e) {
      src.push_back(static_cast<std::uint32_t>(parallel::uniform(17, e, states)));
      w.push_back(parallel::uniform_double(19, e));
    }
  }
  std::vector<double> values(states);
  for (std::size_t i = 0; i < states; ++i)
    values[i] = parallel::uniform_double(23, i);
  const std::size_t edges = std::max<std::size_t>(1, src.size());
  const std::size_t gather_reps = std::max<std::size_t>(1, (1u << 24) / edges);
  src.resize(edges, 0);
  w.resize(edges, 0);
  us = rp.timed("core.min_gather_add", "core", [&] {
    double acc = 0;
    for (std::size_t r = 0; r < gather_reps; ++r)
      acc += core::kernels::min_gather_add(values.data(), src.data(), w.data(),
                                           nullptr, edges);
    keep(acc);
  });
  const double gather_ops = static_cast<double>(gather_reps * edges);
  rp.set("kernels.min_gather_add_ns_per_elem", us * 1e3 / gather_ops, "ns");
  rp.set("kernels.min_gather_add_ops", gather_ops, "count");
  // Per edge: a u32 source index, a double weight, a gathered double.
  rp.set("kernels.min_gather_add_bytes",
         gather_ops * (sizeof(std::uint32_t) + 2 * sizeof(double)), "B");
}

/// One fork burst wide enough that every worker has a reason to run.
void burst() {
  std::atomic<std::uint64_t> sink{0};
  parallel::parallel_for(
      0, 4 * parallel::num_workers(),
      [&](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); },
      /*granularity=*/1, /*granularity_floor=*/1);
}

void replay_scheduler(Replay& rp) {
  Samples hot_us, wake_us;
  for (int i = 0; i < 200; ++i)
    hot_us.add(rp.timed("parallel.fork_join", "parallel", burst));
  for (int i = 0; i < 60; ++i) {
    // Long enough for every worker to finish spinning and park.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    wake_us.add(rp.timed("parallel.wake", "parallel", burst));
  }
  rp.set("sched.fork_join_us", hot_us.median(), "us");
  rp.set("sched.wake_us.p50", wake_us.median(), "us");
}

}  // namespace

service::ServiceStats replay_layers(const LayerInputs& in,
                                    std::size_t batch_size,
                                    const std::string& work_dir, SpanLog& log,
                                    MetricSheet& out) {
  Replay rp(log, out);
  const service::ServiceStats burst = replay_service(in, rp);
  if (batch_size == 0 && burst.batches != 0)
    batch_size = static_cast<std::size_t>(
        0.5 + static_cast<double>(burst.solver.requests) /
                  static_cast<double>(burst.batches));
  replay_canonical_keys(in, rp);
  replay_batches(in, batch_size, rp);
  replay_families(in, rp);
  replay_sessions(in, work_dir, rp);
  replay_kernels(in, rp);
  replay_scheduler(rp);
  return burst;
}

}  // namespace perfbench
