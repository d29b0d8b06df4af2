// The four workloads.  Each generates its inputs from the seed, checks
// every result it gets back, and drives CordonService only through its
// public front door: submit(), create_session(), append(),
// close_session().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "src/engine/delta.hpp"
#include "src/engine/instance.hpp"
#include "src/service/service.hpp"

namespace perfbench {

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10;
  unsigned nproc = 1;
  std::string work_dir;  // working directory inside the checkout
};

/// One slice of a timed phase: operations that completed in it, their
/// latencies, and the wall and process CPU time it spanned.
struct Slice {
  std::uint64_t completed = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double heap_mb = 0;  // live heap (live_heap_mb) over the slice
  Samples latency_us;
  Samples probe_us;  // host_probe_us() readings taken in the slice
};

/// Timed phases are cut into this many equal slices.
inline constexpr std::size_t kSlices = 10;

/// What one timed phase measured.  The per-stage samples are collected
/// only when the phase is traced.
struct RunStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // typed SolveError or refusal
  bool open_loop = false;    // arrivals on a schedule (cold_mix)
  double wall_s = 0;
  double cpu_s = 0;
  Samples latency_us;        // call (or scheduled send) -> result ready
  Samples lag_us;            // open loop: how late each send went out
  Samples submit_us;         // submit() call
  Samples future_wait_us;    // submit() return -> result ready
  Samples append_us;         // append() call
  Samples create_session_ms; // create_session() call
  /// kSlices equal slices, or one per round of nine solves on
  /// large_solve; empty when the phase ended early (a traced phase).
  std::vector<Slice> slices;

  [[nodiscard]] std::uint64_t completed() const { return attempted - failed; }
};

/// One planned session lineage: a base, `deltas.size()` appends, and the
/// expected objective of every version (index 0 = base), each a cold
/// sequential solve of that prefix.
struct SessionPlan {
  engine::Instance base;
  std::vector<engine::Delta> deltas;
  std::vector<double> expected;
};

/// The workload's inputs, handed to the layer-by-layer replay.
struct LayerInputs {
  std::vector<engine::Instance> instances;  // in submission order
  std::vector<double> expected;             // aligned with instances
  std::vector<SessionPlan> plans;           // session_append only
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs, precomputes expected objectives, builds the
  /// service and warms it.
  virtual void setup(const Context& ctx) = 0;
  /// Destroys the service (and its journal directory).
  virtual void teardown() = 0;
  /// Rebuilds a fresh, warmed service over the same inputs.
  virtual void reset_service(const Context& ctx) = 0;
  /// The timed phase: runs for ctx.seconds, or stops once `max_ops`
  /// operations were attempted when nonzero.  Records spans into `log`
  /// when it is not null.  Throws BenchFailure on a wrong result.
  virtual RunStats run(const Context& ctx, std::uint64_t max_ops,
                       SpanLog* log) = 0;
  [[nodiscard]] virtual service::CordonService& service() = 0;
  [[nodiscard]] virtual LayerInputs layer_inputs() const = 0;
};

/// hot_cache, cold_mix, large_solve or session_append; null otherwise.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
