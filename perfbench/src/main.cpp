// perfbench: one workload, one seed, one run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--trace-out FILE] [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// runs the timed phase untraced and then, on a fresh service, traced for
// the same operations (their wall time per operation gives
// trace.overhead_ratio), replays the workload's inputs layer by layer,
// writes the spans as a Chrome trace to --trace-out and reports the
// per-layer metrics.  The last stdout line is the result object.
// A wrong result exits 3 without one; a build that is not the
// production configuration is refused with exit 2.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/layers.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/core/audit.hpp"
#include "src/core/fault.hpp"
#include "src/core/telemetry.hpp"
#include "src/parallel/scheduler.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".";
  std::string trace_out;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--git-sha") a.git_sha = v;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

unsigned online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Run metadata: what produced these numbers.
std::string metadata_json(const Args& a, unsigned nproc) {
  char host[256] = {0};
  gethostname(host, sizeof host - 1);
  std::string s = "{";
  s += "\"host\":\"" + json_escape(host) + "\"";
  s += ",\"nproc\":" + std::to_string(nproc);
  s += ",\"pool_workers\":" + std::to_string(parallel::num_workers());
  s += ",\"git_sha\":\"" + json_escape(a.git_sha) + "\"";
  s += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
  s += std::string(",\"telemetry\":") + (telemetry::kEnabled ? "true" : "false");
  s += std::string(",\"fault\":") + (core::fault::kEnabled ? "true" : "false");
  s += std::string(",\"audit\":") + (core::audit::kEnabled ? "true" : "false");
  s += ",\"workload\":\"" + json_escape(a.workload) + "\"";
  s += ",\"seed\":" + std::to_string(a.seed);
  s += ",\"seconds\":" + fmt(a.seconds);
  s += ",\"trace\":" + std::to_string(a.trace);
  s += "}";
  return s;
}

/// The benchmark measures the production configuration only.
void refuse_non_production() {
  std::string why;
  auto refuse = [&](const char* reason) {
    why += (why.empty() ? "" : "; ") + std::string(reason);
  };
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
    refuse("build type is " PERFBENCH_BUILD_TYPE ", not Release");
#ifndef NDEBUG
  refuse("assertions are compiled in (NDEBUG unset)");
#endif
  if (core::fault::kEnabled) refuse("fault-injection hooks are compiled in");
  if (core::audit::kEnabled) refuse("audit checks are compiled in");
  if (!why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", why.c_str());
    std::exit(2);
  }
}

/// Self time per layer: each span minus the part of it its children
/// (nested spans on the same thread) cover.
std::map<std::string, double> self_time_s(std::vector<SpanRec> spans) {
  std::sort(spans.begin(), spans.end(), [](const SpanRec& a, const SpanRec& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<std::uint64_t> child(spans.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].tid != spans[i - 1].tid) stack.clear();
    while (!stack.empty() && spans[stack.back()].end_ns <= spans[i].start_ns)
      stack.pop_back();
    if (!stack.empty()) {
      const SpanRec& p = spans[stack.back()];
      child[stack.back()] +=
          std::min(spans[i].end_ns, p.end_ns) - spans[i].start_ns;
    }
    stack.push_back(i);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    out[spans[i].layer] +=
        static_cast<double>(dur - std::min(dur, child[i])) * 1e-9;
  }
  return out;
}

/// Chrome Trace Event Format: complete ("X") events in microseconds,
/// sorted by start so parents precede the children they enclose.  Every
/// replay span is written; timed-phase operations are sampled by id
/// (all spans of a sampled operation together) to keep the file small.
void write_chrome_trace(std::vector<SpanRec> spans, std::uint64_t t0,
                        const std::string& meta, const std::string& path) {
  std::size_t op_spans = 0;
  for (const SpanRec& s : spans) op_spans += s.id < kReplayIdBase;
  const std::uint64_t stride = 1 + op_spans / 200000;
  std::erase_if(spans, [&](const SpanRec& s) {
    return s.id < kReplayIdBase && s.id % stride != 0;
  });
  std::sort(spans.begin(), spans.end(), [](const SpanRec& a, const SpanRec& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace " + path);
  f << "{\"otherData\":" << meta << ",\"traceEvents\":[\n";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu}}\n",
                  i == 0 ? "" : ",", s.name, s.layer,
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.tid,
                  static_cast<unsigned long long>(s.id));
    f << buf;
  }
  f << "]}\n";
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The p99 of each group of consecutive slices, merging neighbours
/// pairwise until every group holds 1000 samples (so its p99 has ten
/// beyond it); empty when fewer than three such groups remain.
std::vector<double> group_p99s(const std::vector<Slice>& slices) {
  std::vector<Samples> groups;
  for (const Slice& s : slices) groups.push_back(s.latency_us);
  auto smallest = [&] {
    std::size_t n = ~std::size_t{0};
    for (const Samples& g : groups) n = std::min(n, g.size());
    return n;
  };
  while (groups.size() >= 6 && smallest() < 1000) {
    std::vector<Samples> merged;
    for (std::size_t k = 0; k < groups.size(); k += 2) {
      merged.push_back(groups[k]);
      if (k + 1 < groups.size()) merged.back().append(groups[k + 1]);
    }
    groups = std::move(merged);
  }
  std::vector<double> out;
  if (groups.size() < 3 || smallest() < 1000) return out;
  for (Samples& g : groups) out.push_back(g.quantile(0.99));
  return out;
}

/// Timings, and a closed loop's throughput, are scaled to the reference
/// host (see kRefProbeUs) by the host-probe readings taken in the same
/// slice, or, for a phase without them (cold_mix), by probes this thread
/// reads right after it.  Throughput, median latency, CPU per operation
/// and live heap are medians over the phase's slices when it has them,
/// which keeps a short stall from moving the whole run.  So is the tail
/// when the slices hold enough samples for a p99 (see group_p99s);
/// otherwise it is the highest percentile of all samples with ten beyond
/// it.  The unscaled whole-phase values are printed beside them.
void end_to_end_metrics(RunStats& st, double setup_s, MetricSheet& m) {
  const double done = static_cast<double>(st.completed());
  const double raw_rps = ratio(done, st.wall_s);
  const double raw_p50 = st.latency_us.median();
  const double raw_tail = st.latency_us.tail();
  const double raw_cpu_op = ratio(st.cpu_s * 1e6, done);
  Samples probes;
  for (const Slice& s : st.slices) probes.append(s.probe_us);
  const double probe_us =
      probes.empty() ? probe_median(64) : probes.median();
  const double f = kRefProbeUs / probe_us;
  Samples latency = st.latency_us;
  latency.scale(f);
  // An open loop's throughput is its arrival rate, which host speed
  // does not set.
  double rps = st.open_loop ? raw_rps : raw_rps / f;
  double p50 = latency.median();
  double tail = latency.tail();
  double cpu_op = raw_cpu_op * f;
  double heap = live_heap_mb();
  char tail_how[64];
  std::snprintf(tail_how, sizeof tail_how, "p%.1f of all samples",
                latency.tail_quantile() * 100);
  if (!st.slices.empty()) {
    Samples s_rps, s_p50, s_cpu, s_heap;
    for (Slice& s : st.slices) {
      s_heap.add(s.heap_mb);
      const double fs =
          s.probe_us.empty() ? f : kRefProbeUs / s.probe_us.median();
      const double n = static_cast<double>(s.completed);
      s.latency_us.scale(fs);
      s_rps.add(ratio(n, s.wall_s) / (st.open_loop ? 1.0 : fs));
      if (!s.latency_us.empty()) s_p50.add(s.latency_us.median());
      if (n > 0) s_cpu.add(s.cpu_s * 1e6 / n * fs);
    }
    rps = s_rps.median();
    p50 = s_p50.median();
    cpu_op = s_cpu.median();
    heap = s_heap.median();
    const std::vector<double> p99s = group_p99s(st.slices);
    if (!p99s.empty()) {
      Samples s_tail;
      for (double v : p99s) s_tail.add(v);
      tail = s_tail.median();
      std::snprintf(tail_how, sizeof tail_how, "median p99 of %zu slice groups",
                    p99s.size());
    }
  }
  m.set("setup_s", setup_s, "s");
  m.set("throughput_ref_rps", rps, "1/s");
  m.set("latency_p50_ref_us", p50, "us");
  m.set("latency_tail_ref_us", tail, "us");
  m.set("success_ratio", ratio(done, static_cast<double>(st.attempted)),
        "ratio");
  m.set("cpu_per_op_ref_us", cpu_op, "us");
  m.set("live_heap_mb", heap, "MB");
  std::printf("timed phase: %llu attempted, %llu failed in %.3f s, "
              "%zu latency samples; tail = %s\n",
              static_cast<unsigned long long>(st.attempted),
              static_cast<unsigned long long>(st.failed), st.wall_s,
              st.latency_us.size(), tail_how);
  std::printf("as measured: %.1f req/s, p50 %.1f us, tail %.1f us, "
              "%.1f us CPU/op, peak RSS %.1f MB; host probe median %.2f us "
              "(%zu readings), reference %.0f us\n",
              raw_rps, raw_p50, raw_tail, raw_cpu_op, peak_rss_mb(), probe_us,
              probes.size(), kRefProbeUs);
}

/// Per-layer metrics of the traced phase, from the benchmark's own
/// per-stage samples and the deltas of the program's public counters.
/// The dispatcher's numbers (queue wait, batches, coalescing) add the
/// layer replay's burst service `burst` to the phase's own.
void traced_phase_metrics(RunStats& st, const telemetry::Snapshot& tel,
                          const service::ServiceStats& s0,
                          const service::ServiceStats& s1,
                          const service::ServiceStats& burst, MetricSheet& m) {
  using C = telemetry::Counter;
  auto c = [&](C k) { return static_cast<double>(tel.counter(k)); };
  const double batches =
      static_cast<double>(s1.batches - s0.batches + burst.batches);
  const double solved = static_cast<double>(
      s1.solver.requests - s0.solver.requests + burst.solver.requests);
  const double queued = static_cast<double>(
      s1.queue.enqueued - s0.queue.enqueued + burst.queue.enqueued);
  const double waited =
      s1.queue.total_wait_s - s0.queue.total_wait_s + burst.queue.total_wait_s;
  const double hits = static_cast<double>(s1.cache.hits - s0.cache.hits);
  const double misses = static_cast<double>(s1.cache.misses - s0.cache.misses);
  const double appends =
      static_cast<double>(s1.session_appends - s0.session_appends);

  m.set("service.submit_us.p50", st.submit_us.median(), "us");
  m.set("service.future_wait_us.p50", st.future_wait_us.median(), "us");
  m.set("service.queue_wait_us.mean", ratio(waited * 1e6, queued), "us");
  m.set("service.batch_size.mean", ratio(solved, batches), "count");
  m.set("service.batches", batches, "count");
  m.set("service.coalesced",
        static_cast<double>(s1.coalesced - s0.coalesced + burst.coalesced),
        "count");
  m.set("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
  m.set("cache.evictions",
        static_cast<double>(s1.cache.evictions - s0.cache.evictions), "count");
  m.set("service.append_us.p50", st.append_us.median(), "us");
  m.set("service.create_session_ms.mean", st.create_session_ms.mean(), "ms");
  m.set("session.resume_ratio",
        ratio(static_cast<double>(s1.session_resumes - s0.session_resumes),
              appends),
        "ratio");
  m.set("journal.writes",
        static_cast<double>(s1.journal_writes - s0.journal_writes), "count");
  m.set("engine.solves", c(C::kEngineSolves), "count");
  m.set("solver.rounds", c(C::kSolverRounds), "count");
  m.set("solver.fused_rounds", c(C::kSolverFusedRounds), "count");
  m.set("solver.seq_cutoffs", c(C::kSolverSeqCutoffs), "count");
  m.set("solver.relaxations", c(C::kSolverRelaxations), "count");
  m.set("sched.jobs", c(C::kSchedJobsRun), "count");
  m.set("sched.steals", c(C::kSchedSteals), "count");
  m.set("sched.steal_attempts", c(C::kSchedStealAttempts), "count");
  m.set("sched.wakes", c(C::kSchedWakes), "count");
  m.set("sched.parks", c(C::kSchedParks), "count");
  m.set("sched.push_overflows", c(C::kSchedPushOverflows), "count");
  m.set("sched.steal_success_ratio",
        ratio(c(C::kSchedSteals), c(C::kSchedStealAttempts)), "ratio");
  m.set("sched.wakes_per_job", ratio(c(C::kSchedWakes), c(C::kSchedJobsRun)),
        "ratio");
  m.set("loadgen.lag_p99_us", st.lag_us.quantile(0.99), "us");
}

/// --trace 1: the traced phase, the layer replay, the self-time table
/// and the Chrome trace.  Returns the traced phase's statistics.
RunStats traced_run(Workload& w, const Context& ctx, const RunStats& untraced,
                    const Args& a, const std::string& meta, MetricSheet& metrics) {
  // The same operations again on a fresh service, traced; capped so the
  // in-memory span log of a fast workload stays small.
  constexpr std::uint64_t kMaxTracedOps = 300000;
  const std::uint64_t traced_ops =
      std::min(untraced.attempted, kMaxTracedOps);
  w.reset_service(ctx);
  SpanLog log;
  const auto tel0 = telemetry::snapshot();
  const auto svc0 = w.service().stats();
  Context traced_ctx = ctx;
  traced_ctx.seconds = 3 * ctx.seconds;  // the op count ends it first
  RunStats traced = w.run(traced_ctx, traced_ops, &log);
  const auto tel = telemetry::snapshot().delta_since(tel0);
  const auto svc1 = w.service().stats();
  metrics.set("trace.overhead_ratio",
              ratio(traced.wall_s / std::max<double>(1, traced.attempted),
                    untraced.wall_s / std::max<double>(1, untraced.attempted)),
              "ratio");
  // The BatchExecutor replay cuts batches of the size the service formed
  // in the phase (0: it formed none; the replay's burst decides).
  const std::uint64_t phase_batches = svc1.batches - svc0.batches;
  const std::size_t batch_size =
      phase_batches == 0
          ? 0
          : static_cast<std::size_t>(
                0.5 + ratio(static_cast<double>(svc1.solver.requests -
                                                svc0.solver.requests),
                            static_cast<double>(phase_batches)));
  const service::ServiceStats burst = replay_layers(
      w.layer_inputs(), batch_size, a.work_dir, log, metrics);
  traced_phase_metrics(traced, tel, svc0, svc1, burst, metrics);

  const std::vector<SpanRec> spans = log.merged();
  std::uint64_t t0 = ~0ull, t1 = 0;
  for (const SpanRec& s : spans) {
    t0 = std::min(t0, s.start_ns);
    t1 = std::max(t1, s.end_ns);
  }
  const double wall = spans.empty() ? 0 : static_cast<double>(t1 - t0) * 1e-9;
  const auto self = self_time_s(spans);
  std::printf("per-layer self time over %.3f s traced wall (%zu spans):\n",
              wall, spans.size());
  for (const char* layer :
       {"harness", "service", "engine", "families", "core", "parallel"}) {
    auto it = self.find(layer);
    const double s = it == self.end() ? 0 : it->second;
    std::printf("  %-9s %10.4f s  %7.2f%%\n", layer, s, 100 * ratio(s, wall));
    metrics.set(std::string("self.") + layer, ratio(s, wall), "ratio");
  }
  if (!a.trace_out.empty())
    write_chrome_trace(spans, t0 == ~0ull ? 0 : t0, meta, a.trace_out);
  return traced;
}

/// Set-ups per run: at least kMinSetups, and more while they have taken
/// less than kSetupBudgetS in all (a short set-up is the noisier one), up
/// to kMaxSetups.  setup_s is their median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 31;
constexpr double kSetupBudgetS = 3.0;

int run(const Args& a) {
  refuse_non_production();
  auto workload = make_workload(a.workload);
  if (!workload) usage(("unknown workload " + a.workload).c_str());

  const unsigned nproc = online_cpus();
  parallel::set_num_workers(nproc);
  // Holding a worker slot makes this thread's solver calls (the layer
  // replay) fork onto the pool, and makes the pool start with all nproc
  // workers of its own.
  parallel::ExternalWorkerScope main_slot;
  const std::string meta = metadata_json(a, nproc);
  std::printf("# meta %s\n", meta.c_str());

  Context ctx{a.seed, a.seconds, nproc, a.work_dir};
  // Set-up is repeated and its median reported: one sample of it is
  // too noisy for the bound the benchmark puts on it.  Each is timed as
  // the process CPU it used, scaled to the reference host by probes read
  // just before and after it.  Its wall time tracks how many cores the
  // shared host lends the process at the moment (one set of runs read
  // 0.13 s, the next 0.22 s, on the same code), which neither the CPU
  // time nor the probe sees.
  Samples setup, setup_wall;
  double setup_total_s = 0;
  for (int i = 0; i < kMaxSetups &&
                  (i < kMinSetups || setup_total_s < kSetupBudgetS);
       ++i) {
    if (i > 0) workload->teardown();
    const double p0 = probe_median(32);
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    workload->setup(ctx);
    const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
    const double cpu = process_cpu_s() - cpu0;
    const double p1 = probe_median(32);
    setup.add(cpu * kRefProbeUs / (0.5 * (p0 + p1)));
    setup_wall.add(wall);
    setup_total_s += wall;
  }
  const double setup_s = setup.median();
  std::printf("setup: peak RSS %.1f MB; median %.4f CPU-s at reference "
              "speed of %zu repetitions; wall s as measured:",
              peak_rss_mb(), setup_s, setup.size());
  for (std::size_t i = 0; i < setup_wall.size(); ++i)
    std::printf(" %.4f", setup_wall.at(i));
  std::printf("\n");

  MetricSheet metrics;
  RunStats untraced = workload->run(ctx, 0, nullptr);
  std::uint64_t attempted = untraced.attempted, failed = untraced.failed;
  if (a.trace == 0) {
    end_to_end_metrics(untraced, setup_s, metrics);
  } else {
    const RunStats traced =
        traced_run(*workload, ctx, untraced, a, meta, metrics);
    attempted += traced.attempted;
    failed += traced.failed;
  }
  workload->teardown();

  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           fmt(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const perfbench::BenchFailure& e) {
    std::fprintf(stderr, "perfbench: WRONG RESULT: %s\n", e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: untyped failure: %s\n", e.what());
  }
  std::fflush(stdout);
  return 3;
}
