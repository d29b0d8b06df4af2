// Per-family inputs and the independent sequential solves the benchmark
// checks every result against.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "src/engine/instance.hpp"

namespace perfbench {

/// The nine registered family keys, in the order the benchmark reports
/// them.
inline const std::vector<std::string>& family_keys() {
  static const std::vector<std::string> keys{
      "glws", "kglws", "lis", "lcs", "gap", "oat", "obst", "treeglws", "dag"};
  return keys;
}

/// Solves `inst` with its family's sequential entry point (glws_sequential,
/// kglws_smawk, lis_sequential, lcs_sparse_seq, gap_seq, oat_garsia_wachs,
/// obst_knuth, tree_glws_sequential, DpDag::evaluate), never through the
/// engine adapter, and returns the objective the adapter would report.
/// Runs on the calling thread only.
double seq_solve(const engine::Instance& inst);

/// Instance sizes of one workload, per family.
enum class SizeClass {
  kService,   // bench_service sizes: 2000, quadratic families 250
  kModerate,  // cold_mix: 1000, quadratic families 120
  kLarge,     // large_solve
};

/// A deterministic instance of `family` for `seed` at `size`.  Large
/// glws is built directly: n = 2^20 with a quadratic cost and a small
/// opening charge, which gives the parallel solver thousands of rounds.
engine::Instance make_instance(const std::string& family, SizeClass size,
                               std::uint64_t seed);

/// Objectives of `count` instances by seq_solve, spread over `threads`
/// plain threads; `make(i)` builds the i-th instance on the thread that
/// solves it, so the instances never all exist at once.
std::vector<double> expected_objectives(
    std::size_t count,
    const std::function<engine::Instance(std::size_t)>& make,
    unsigned threads);

inline std::vector<double> expected_objectives(
    const std::vector<engine::Instance>& insts, unsigned threads) {
  return expected_objectives(
      insts.size(), [&](std::size_t i) { return insts[i]; }, threads);
}

}  // namespace perfbench
