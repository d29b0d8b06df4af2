#include "src/engine/batch_executor.hpp"

#include <chrono>
#include <exception>

#include "src/core/arena.hpp"
#include "src/core/trace.hpp"
#include "src/parallel/scheduler.hpp"

namespace cordon::engine {

namespace {

// Trace event names must have static storage (the ring stores the
// pointer, and the dump may happen after the Instance is gone): map the
// dynamic kind string onto the known family literals.
const char* solve_span_name(const std::string& kind) {
  static constexpr const char* kKnown[] = {"dag",  "gap", "glws",
                                           "kglws", "lcs", "lis",
                                           "oat",  "obst", "treeglws"};
  for (const char* k : kKnown)
    if (kind == k) return k;
  return "solve";
}

BatchItem solve_one(const ProblemRegistry& reg, const Instance& inst,
                    bool use_reference, core::CancelToken* token) {
  BatchItem item;
  item.kind = inst.kind;
  telemetry::TraceSpan span(solve_span_name(inst.kind), "engine");
  auto t0 = std::chrono::steady_clock::now();
  // This try block is the containment boundary every solve runs under:
  // whatever a solver, parser, or fault injection throws is folded into
  // the SolveError taxonomy here and never escapes as an exception.
  try {
    // Within the try, throwing is safe again even when this body runs
    // as a stolen job (the catch below contains the unwind), and the
    // request's token governs the round-boundary polls.
    core::ThrowGate throw_ok(true);
    core::CancelScope cancel(token);
    core::poll_cancel();  // deadline already blown / cancelled pre-solve
    const Solver& solver = reg.at(inst.kind);
    item.result = use_reference ? solver.solve_reference(inst)
                                : solver.solve(inst);
    item.ok = true;
  } catch (...) {
    const core::SolveError e = core::to_solve_error(std::current_exception());
    item.code = e.code();
    item.error = e.message();
  }
  if (!item.ok && (item.code == core::SolveErrorCode::kCancelled ||
                   item.code == core::SolveErrorCode::kDeadlineExceeded))
    telemetry::count(telemetry::Counter::kEngineSolvesCancelled);
  auto t1 = std::chrono::steady_clock::now();
  item.latency_s = std::chrono::duration<double>(t1 - t0).count();
  return item;
}

}  // namespace

BatchReport BatchExecutor::run(std::span<const Instance> queue,
                               const BatchOptions& opt) const {
  // Callers are often not pool workers (the service dispatcher, client
  // threads): adopt an external worker slot so the fan-out below forks
  // onto the shared pool instead of degrading to inline execution.
  // No-op when the calling thread already is a worker.
  parallel::ExternalWorkerScope adopt;

  telemetry::count(telemetry::Counter::kEngineBatchRuns);
  telemetry::count(telemetry::Counter::kEngineSolves, queue.size());
  telemetry::TraceSpan batch_span("batch", "engine");
  batch_span.arg("requests", queue.size());

  BatchReport report;
  report.items.resize(queue.size());

  // Per-worker stat accumulators (cache-line padded, arena-backed): each
  // body merges its request's counters into its own worker's slot as it
  // finishes, and the slots fold into the report with one operator+= per
  // worker — no per-item pass over the batch afterwards, no shared
  // counter in the loop.  Slot ownership is the scheduler's worker-id
  // contract: at most one thread per id at any moment, and the
  // parallel_for join orders every slot write before the merge below.
  struct alignas(64) StatSlot {
    core::BatchStats stats;
    std::size_t failed = 0;
  };
  core::Arena& arena = core::worker_arena();
  core::ArenaScope scratch(arena);
  std::span<StatSlot> slots = arena.make_span<StatSlot>(parallel::worker_slots());
  for (StatSlot& s : slots) s = StatSlot{};

  auto solve_into = [&](std::size_t i) {
    BatchItem& item = report.items[i];
    core::CancelToken* token =
        i < opt.tokens.size() ? opt.tokens[i] : nullptr;
    item = solve_one(*registry_, queue[i], opt.use_reference, token);
    StatSlot& s = slots[parallel::worker_id()];
    if (item.ok)
      s.stats.add(item.result.stats, item.latency_s,
                  item.result.effective_depth);
    else
      ++s.failed;
  };

  auto t0 = std::chrono::steady_clock::now();
  if (opt.parallel) {
    // Instances are expensive bodies: granularity 1, no floor, so even a
    // two-element queue forks.  Intra-instance parallelism nests below
    // this loop on the same scheduler.
    parallel::parallel_for(0, queue.size(), solve_into,
                           /*granularity=*/1, /*granularity_floor=*/1);
  } else {
    for (std::size_t i = 0; i < queue.size(); ++i) solve_into(i);
  }
  auto t1 = std::chrono::steady_clock::now();
  report.wall_s = std::chrono::duration<double>(t1 - t0).count();

  for (const StatSlot& s : slots) {
    report.stats += s.stats;
    report.failed += s.failed;
  }
  if (report.failed != 0)
    telemetry::count(telemetry::Counter::kEngineSolveErrors, report.failed);
  return report;
}

}  // namespace cordon::engine
