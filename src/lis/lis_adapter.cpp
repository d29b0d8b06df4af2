// Engine adapter: longest increasing subsequence (Sec. 3, Thm 3.1).
#include <memory>

#include "src/engine/adapter_util.hpp"
#include "src/engine/delta.hpp"
#include "src/engine/registry.hpp"
#include "src/lis/lis.hpp"

namespace cordon::engine {
namespace {

/// Session checkpoint: the patience frontier after the instance's values.
struct LisState final : SolverState {
  lis::LisFrontier frontier;
};

class LisSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view key() const override { return "lis"; }
  [[nodiscard]] std::string_view description() const override {
    return "longest increasing subsequence (Sec. 3, Thm 3.1)";
  }

  [[nodiscard]] SolveResult solve(const Instance& inst) const override {
    const auto& p = inst.as<LisInstance>();
    auto r = lis::lis_auto(p.values);
    SolveResult out = pack(p, r);
    // Thm 3.1: the DAG's effective depth is the LIS length (on the
    // parallel path, round r finalizes exactly the states with D = r).
    out.effective_depth = r.length;
    out.path = r.path;
    return out;
  }

  [[nodiscard]] SolveResult solve_reference(
      const Instance& inst) const override {
    const auto& p = inst.as<LisInstance>();
    auto r = lis::lis_naive(p.values);
    return pack(p, r);
  }

  [[nodiscard]] Instance generate(const GenOptions& opt) const override {
    // Value range ~n/2 gives a duplicate-rich but nontrivial LIS.
    std::uint64_t bound = std::max<std::uint64_t>(2, opt.n / 2);
    return {"lis", LisInstance{detail::gen_values(opt.n, opt.seed, bound)}};
  }

  [[nodiscard]] bool incremental() const override { return true; }

  [[nodiscard]] SolveResult solve_checkpoint(
      const Instance& inst,
      std::shared_ptr<const SolverState>& state) const override {
    state = checkpoint(inst.as<LisInstance>());
    return solve(inst);
  }

  [[nodiscard]] ResumeResult resume(
      const std::shared_ptr<const SolverState>& state, const Instance& full,
      const Delta& delta) const override {
    const auto& p = full.as<LisInstance>();
    const auto* st = dynamic_cast<const LisState*>(state.get());
    const auto* ap = std::get_if<LisInstance>(&delta.append);
    if (st == nullptr || ap == nullptr ||
        st->frontier.consumed + ap->values.size() != p.values.size()) {
      // Inconsistent or missing state: cold solve, but rebuild the
      // checkpoint so the next append can resume again.
      return {solve(full), checkpoint(p), false};
    }
    auto next = std::make_shared<LisState>();
    next->frontier = st->frontier;  // O(LIS) copy; prior versions untouched
    SolveResult out;
    lis::lis_extend(next->frontier, ap->values.data(), ap->values.size(),
                    out.stats);
    out.objective = next->frontier.length();
    out.effective_depth = next->frontier.length();  // == cordon rounds (Thm 3.1)
    out.detail = detail_line(p.values.size(), next->frontier.length());
    out.path = core::SolvePath::kResumed;
    return {std::move(out), std::move(next), true};
  }

 private:
  static std::shared_ptr<const LisState> checkpoint(const LisInstance& p) {
    auto st = std::make_shared<LisState>();
    core::DpStats scratch;
    lis::lis_extend(st->frontier, p.values.data(), p.values.size(), scratch);
    return st;
  }

  static std::string detail_line(std::size_t n, std::uint32_t length) {
    return "lis n=" + std::to_string(n) + " length=" + std::to_string(length);
  }

  static SolveResult pack(const LisInstance& p, const lis::LisResult& r) {
    SolveResult out;
    out.objective = static_cast<double>(r.length);
    out.stats = r.stats;
    out.detail = detail_line(p.values.size(), r.length);
    return out;
  }
};

}  // namespace

void register_lis(ProblemRegistry& reg) {
  reg.add(std::make_unique<LisSolver>());
}

}  // namespace cordon::engine
