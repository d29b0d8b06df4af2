// The traced run's layer-by-layer replay: the workload's own inputs,
// sent once more through each module's public functions (engine,
// families, core kernels, scheduler), timed by benchmark-owned spans.
#pragma once

#include <string>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/workloads.hpp"

namespace perfbench {

/// Replays `in` layer by layer, recording spans into `log` and the
/// per-layer metrics into `out`.  The service layer is replayed as one
/// burst of the inputs, each twice, into a fresh cache-off service,
/// whose stats are returned.  The BatchExecutor replay cuts the inputs,
/// in submission order, into batches of `batch_size` (0: the burst's
/// mean batch).  Throws BenchFailure on a wrong objective.
service::ServiceStats replay_layers(const LayerInputs& in,
                                    std::size_t batch_size,
                                    const std::string& work_dir, SpanLog& log,
                                    MetricSheet& out);

}  // namespace perfbench
