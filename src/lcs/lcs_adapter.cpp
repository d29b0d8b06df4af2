// Engine adapter: sparse longest common subsequence (Sec. 3, Thm 3.2).
#include <memory>

#include "src/engine/adapter_util.hpp"
#include "src/engine/delta.hpp"
#include "src/engine/registry.hpp"
#include "src/lcs/lcs.hpp"

namespace cordon::engine {
namespace {

/// Session checkpoint: the Hunt–Szymanski thresholds after consuming all
/// of `a`, plus the symbol index of the fixed `b` (shared across session
/// versions — only the O(LCS) frontier is copied per resume).
struct LcsState final : SolverState {
  std::shared_ptr<const lcs::BIndex> b_index;
  lcs::LcsFrontier frontier;
};

class LcsSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view key() const override { return "lcs"; }
  [[nodiscard]] std::string_view description() const override {
    return "sparse longest common subsequence over match pairs (Sec. 3, "
           "Thm 3.2)";
  }

  [[nodiscard]] SolveResult solve(const Instance& inst) const override {
    const auto& p = inst.as<LcsInstance>();
    // SoA pairs: the solve path only streams the j coordinates.
    auto pairs = lcs::match_pairs_soa(p.a, p.b);
    auto r = lcs::lcs_auto(pairs);
    SolveResult out = pack(p, pairs.size(), r);
    // Thm 3.2: the DAG's effective depth is the LCS length (the parallel
    // path's round count; the sequential route runs no rounds).
    out.effective_depth = r.length;
    return out;
  }

  [[nodiscard]] SolveResult solve_reference(
      const Instance& inst) const override {
    const auto& p = inst.as<LcsInstance>();
    auto r = lcs::lcs_naive(p.a, p.b);
    return pack(p, 0, r);
  }

  [[nodiscard]] Instance generate(const GenOptions& opt) const override {
    // Alphabet ~n/2 keeps the expected number of match pairs near-linear
    // (the sparse regime the algorithm targets).
    std::uint64_t alphabet = std::max<std::uint64_t>(2, opt.n / 2);
    LcsInstance p;
    p.a = detail::gen_symbols(opt.n, opt.seed, alphabet);
    p.b = detail::gen_symbols(opt.n, opt.seed ^ 0x9e3779b9u, alphabet);
    return {"lcs", p};
  }

  [[nodiscard]] bool incremental() const override { return true; }

  [[nodiscard]] SolveResult solve_checkpoint(
      const Instance& inst,
      std::shared_ptr<const SolverState>& state) const override {
    state = checkpoint(inst.as<LcsInstance>());
    return solve(inst);
  }

  [[nodiscard]] ResumeResult resume(
      const std::shared_ptr<const SolverState>& state, const Instance& full,
      const Delta& delta) const override {
    const auto& p = full.as<LcsInstance>();
    const auto* st = dynamic_cast<const LcsState*>(state.get());
    const auto* ap = std::get_if<LcsInstance>(&delta.append);
    // Incremental only when the delta grows `a` against the same fixed
    // `b`: appending to `b` reorders the whole (i asc, j desc) pair
    // stream, which invalidates the thresholds — cold fallback (and a
    // fresh checkpoint for subsequent appends).
    if (st == nullptr || ap == nullptr || !ap->b.empty() ||
        st->b_index == nullptr || st->b_index->b_size != p.b.size() ||
        st->frontier.a_consumed + ap->a.size() != p.a.size()) {
      return {solve(full), checkpoint(p), false};
    }
    auto next = std::make_shared<LcsState>();
    next->b_index = st->b_index;    // shared: b is immutable in a session
    next->frontier = st->frontier;  // O(LCS) copy
    SolveResult out;
    lcs::lcs_extend(next->frontier, *next->b_index, ap->a.data(),
                    ap->a.size(), out.stats);
    out.objective = next->frontier.length();
    out.detail = detail_line(p, next->frontier.pairs_consumed,
                             next->frontier.length());
    out.path = core::SolvePath::kResumed;
    return {std::move(out), std::move(next), true};
  }

 private:
  static std::shared_ptr<const LcsState> checkpoint(const LcsInstance& p) {
    auto st = std::make_shared<LcsState>();
    st->b_index = std::make_shared<lcs::BIndex>(lcs::build_b_index(p.b));
    core::DpStats scratch;
    lcs::lcs_extend(st->frontier, *st->b_index, p.a.data(), p.a.size(),
                    scratch);
    return st;
  }

  // frontier.pairs_consumed after a full replay equals the match-pair
  // count L of the full instance, so resumed details match cold ones.
  static std::string detail_line(const LcsInstance& p, std::uint64_t num_pairs,
                                 std::uint32_t length) {
    return "lcs |a|=" + std::to_string(p.a.size()) +
           " |b|=" + std::to_string(p.b.size()) +
           (num_pairs > 0 ? " L=" + std::to_string(num_pairs) : "") +
           " length=" + std::to_string(length);
  }

  static SolveResult pack(const LcsInstance& p, std::size_t num_pairs,
                          const lcs::LcsResult& r) {
    SolveResult out;
    out.objective = static_cast<double>(r.length);
    out.stats = r.stats;
    out.path = r.path;
    out.detail = detail_line(p, num_pairs, r.length);
    return out;
  }
};

}  // namespace

void register_lcs(ProblemRegistry& reg) {
  reg.add(std::make_unique<LcsSolver>());
}

}  // namespace cordon::engine
