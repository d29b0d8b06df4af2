// Shared envelope machinery for DM algorithms: FindIntervals (Alg. 1
// lines 23-32), triple coalescing, and the old/new envelope merge
// (Alg. 2, generalized to both shapes as the paper notes).
//
// Everything is templated on Eval: eval(j, i) -> double is the transition
// value E[j] + w(j, i).  GLWS instantiates it over its 1D E array; GAP
// instantiates one Eval per row and per column of the grid.
// Eval does not count: each tool adds its eval calls to the caller's
// `evals`, and each par_do branch counts into its own local.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/audit.hpp"
#include "src/core/kernels.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/structures/best_decision_list.hpp"

namespace cordon::glws {

using structures::BestDecisionList;
using structures::DecisionInterval;

namespace detail {

// Parallel argmin of eval(j, im) over j in [jl, jr].  Convex callers want
// the leftmost minimum, concave the rightmost (keeps the recursive
// decision ranges consistent with DM under ties).
template <typename Eval>
std::size_t argmin_decision(const Eval& eval, std::size_t jl, std::size_t jr,
                            std::size_t im, bool prefer_larger_j,
                            std::uint64_t& evals) {
  struct Cand {
    double v;
    std::size_t j;
  };
  auto pick = [&](const Cand& a, const Cand& b) {
    if (a.v < b.v) return a;
    if (b.v < a.v) return b;
    return prefer_larger_j ? (a.j > b.j ? a : b) : (a.j < b.j ? a : b);
  };
  constexpr std::size_t kSeq = 1024;
  if (jr - jl <= kSeq) {
    // Branchless single-pass kernels; tie direction picks the variant.
    auto value = [&](std::size_t j) { return eval(j, im); };
    evals += jr - jl + 1;  // the kernels evaluate each j exactly once
    return prefer_larger_j
               ? core::kernels::argmin_transform_last(jl, jr + 1, value).index
               : core::kernels::argmin_transform(jl, jr + 1, value).index;
  }
  std::size_t mid = jl + (jr - jl) / 2;
  std::size_t a = 0, b = 0;
  std::uint64_t evals_a = 0, evals_b = 0;
  parallel::par_do(
      [&] { a = argmin_decision(eval, jl, mid, im, prefer_larger_j, evals_a); },
      [&] {
        b = argmin_decision(eval, mid + 1, jr, im, prefer_larger_j, evals_b);
      });
  evals += evals_a + evals_b + 2;
  return pick({eval(a, im), a}, {eval(b, im), b}).j;
}

}  // namespace detail

/// FindIntervals: best-decision triples for states [il, ir] with decisions
/// restricted to [jl, jr].  O(M log N) work, O(log^2) span.
template <typename Eval>
std::vector<DecisionInterval> find_intervals(const Eval& eval, std::size_t jl,
                                             std::size_t jr, std::size_t il,
                                             std::size_t ir, bool convex,
                                             std::uint64_t& evals) {
  if (il > ir) return {};
  if (jl == jr) return {{il, ir, jl}};
  std::size_t im = il + (ir - il) / 2;
  std::size_t jm = detail::argmin_decision(eval, jl, jr, im,
                                           /*prefer_larger_j=*/!convex, evals);

  // Convex: the left half's decisions lie in [jl, jm]; concave: [jm, jr].
  const std::size_t left_jl = convex ? jl : jm, left_jr = convex ? jm : jr;
  const std::size_t right_jl = convex ? jm : jl, right_jr = convex ? jr : jm;
  std::vector<DecisionInterval> left, right;
  std::uint64_t evals_left = 0, evals_right = 0;
  parallel::par_do(
      [&] {
        left = find_intervals(eval, left_jl, left_jr, il, im - 1, convex,
                              evals_left);
      },
      [&] {
        right = find_intervals(eval, right_jl, right_jr, im + 1, ir, convex,
                               evals_right);
      });
  evals += evals_left + evals_right;
  std::vector<DecisionInterval> out;
  out.reserve(left.size() + right.size() + 1);
  out.insert(out.end(), left.begin(), left.end());
  out.push_back({im, im, jm});
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

/// Audit-build check: a decision list must tile [lo, hi] exactly —
/// ordered, gap-free, overlap-free.  O(size) over a list that was just
/// built in O(size), so it never changes the complexity of a round.
inline void audit_covers([[maybe_unused]] const std::vector<DecisionInterval>& v,
                         [[maybe_unused]] std::size_t lo,
                         [[maybe_unused]] std::size_t hi) {
  if constexpr (core::audit::kEnabled) {
    CORDON_DCHECK(!v.empty() && v.front().l == lo && v.back().r == hi,
                  "envelope does not span its state range");
    for (std::size_t t = 0; t + 1 < v.size(); ++t)
      CORDON_DCHECK(v[t].l <= v[t].r && v[t].r + 1 == v[t + 1].l,
                    "envelope intervals overlap or leave a gap");
  }
}

/// Merges adjacent triples with the same decision (Alg. 1 line 22).
inline std::vector<DecisionInterval> coalesce(std::vector<DecisionInterval> v) {
  std::vector<DecisionInterval> out;
  out.reserve(v.size());
  for (const auto& t : v) {
    if (!out.empty() && out.back().j == t.j && out.back().r + 1 == t.l)
      out.back().r = t.r;
    else
      out.push_back(t);
  }
  return out;
}

/// Alg. 2 (generalized): splice the envelope of *newer* decisions (bnew)
/// with the envelope of older ones (bold).  Both lists must cover
/// [lo, hi].  Concave costs: new decisions win a prefix [lo, p]; convex:
/// a suffix [p, hi].  Binary search of the cutting point.
template <typename Eval>
std::vector<DecisionInterval> merge_envelopes(const BestDecisionList& bold,
                                              const BestDecisionList& bnew,
                                              const Eval& eval, std::size_t lo,
                                              std::size_t hi, bool convex,
                                              std::uint64_t& evals) {
  auto new_wins = [&](std::size_t i) {
    evals += 2;
    return eval(bnew.best_of(i), i) < eval(bold.best_of(i), i);
  };
  // Locate the boundary of the new-wins region.
  std::vector<DecisionInterval> merged;
  auto splice = [&](std::size_t new_lo, std::size_t new_hi, bool new_first) {
    // new decisions serve [new_lo, new_hi]; old ones serve the rest.
    auto append_clipped = [&](const BestDecisionList& src, std::size_t a,
                              std::size_t b) {
      if (a > b) return;
      for (std::size_t t = 0; t < src.size(); ++t) {
        if (src.triple_r(t) < a || src.triple_l(t) > b) continue;
        merged.push_back({std::max(src.triple_l(t), a),
                          std::min(src.triple_r(t), b), src.triple_j(t)});
      }
    };
    if (new_first) {
      append_clipped(bnew, new_lo, new_hi);
      if (new_hi < hi) append_clipped(bold, new_hi + 1, hi);
    } else {
      if (new_lo > lo) append_clipped(bold, lo, new_lo - 1);
      append_clipped(bnew, new_lo, new_hi);
    }
  };

  if (!convex) {
    // Concave: new wins on a prefix.
    if (!new_wins(lo)) return bold.to_triples();
    if (new_wins(hi)) return bnew.to_triples();
    std::size_t a = lo, b = hi;  // wins at a, loses at b
    while (a + 1 < b) {
      std::size_t mid = a + (b - a) / 2;
      if (new_wins(mid))
        a = mid;
      else
        b = mid;
    }
    splice(lo, a, /*new_first=*/true);
  } else {
    // Convex: new wins on a suffix.
    if (!new_wins(hi)) return bold.to_triples();
    if (new_wins(lo)) return bnew.to_triples();
    std::size_t a = lo, b = hi;  // loses at a, wins at b
    while (a + 1 < b) {
      std::size_t mid = a + (b - a) / 2;
      if (new_wins(mid))
        b = mid;
      else
        a = mid;
    }
    splice(b, hi, /*new_first=*/false);
  }
  audit_covers(merged, lo, hi);
  return merged;
}

}  // namespace cordon::glws
