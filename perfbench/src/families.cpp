#include "perfbench/src/families.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "src/engine/registry.hpp"
#include "src/gap/gap.hpp"
#include "src/glws/glws.hpp"
#include "src/kglws/kglws.hpp"
#include "src/lcs/lcs.hpp"
#include "src/lis/lis.hpp"
#include "src/oat/oat.hpp"
#include "src/obst/obst.hpp"
#include "src/parallel/random.hpp"
#include "src/parallel/scheduler.hpp"
#include "src/structures/tree_utils.hpp"
#include "src/treeglws/tree_glws.hpp"

namespace perfbench {

double seq_solve(const engine::Instance& inst) {
  // Plain-thread callers would run inline anyway; the region makes the
  // sequential intent explicit for callers that hold a worker slot.
  parallel::SequentialRegion seq;
  const std::string& k = inst.kind;
  if (k == "glws") {
    const auto& p = inst.as<engine::GlwsInstance>();
    auto r = glws::glws_sequential(p.n, p.d0, p.cost.make(),
                                   glws::identity_e(), p.cost.shape());
    return r.d.empty() ? p.d0 : r.d.back();
  }
  if (k == "kglws") {
    const auto& p = inst.as<engine::KglwsInstance>();
    auto r = kglws::kglws_smawk(p.n, p.k, p.cost.make());
    return r.total;
  }
  if (k == "lis") {
    return lis::lis_sequential(inst.as<engine::LisInstance>().values).length;
  }
  if (k == "lcs") {
    const auto& p = inst.as<engine::LcsInstance>();
    return lcs::lcs_sparse_seq(lcs::match_pairs_soa(p.a, p.b)).length;
  }
  if (k == "gap") {
    const auto& p = inst.as<engine::GapInstance>();
    return gap::gap_seq(p.a, p.b, p.w1.make(), p.w2.make(), p.w1.shape())
        .distance;
  }
  if (k == "oat") {
    return oat::oat_garsia_wachs(inst.as<engine::OatInstance>().weights).cost;
  }
  if (k == "obst") {
    return obst::obst_knuth(inst.as<engine::ObstInstance>().weights).cost;
  }
  if (k == "treeglws") {
    const auto& p = inst.as<engine::TreeGlwsInstance>();
    structures::RootedTree t(p.parent);
    auto r = treeglws::tree_glws_sequential(t, p.d0, p.cost.make(),
                                            glws::identity_e());
    double sum = 0;
    for (double v : r.d)
      if (std::isfinite(v)) sum += v;
    return sum;
  }
  if (k == "dag") {
    const auto& p = inst.as<engine::DagInstance>();
    auto values = p.build().evaluate();
    return values.empty() ? 0.0 : values.back();
  }
  throw std::invalid_argument("perfbench: no sequential solve for '" + k + "'");
}

engine::Instance make_instance(const std::string& family, SizeClass size,
                               std::uint64_t seed) {
  const engine::Solver& s = engine::builtin_registry().at(family);
  const bool quadratic = family == "obst" || family == "gap" || family == "dag";
  switch (size) {
    case SizeClass::kService:
      return s.generate({quadratic ? 250u : 2000u, 8, seed});
    case SizeClass::kModerate:
      return s.generate({quadratic ? 120u : 1000u, 8, seed});
    case SizeClass::kLarge:
      break;
  }
  if (family == "glws") {
    // Segment length ~ sqrt(open / scale) ~ 300, so ~3300 rounds.
    engine::GlwsInstance p;
    p.n = std::uint64_t{1} << 20;
    p.cost.family = engine::CostSpec::Family::kQuadratic;
    p.cost.open = 1.0;
    p.cost.scale = 1e-5 * (0.8 + 0.4 * parallel::uniform_double(seed, 7));
    return {"glws", p};
  }
  std::uint64_t n = 200000;
  if (family == "oat") n = 20000;
  if (family == "gap" || family == "obst") n = 1000;
  return s.generate({n, 8, seed});
}

std::vector<double> expected_objectives(
    std::size_t count,
    const std::function<engine::Instance(std::size_t)>& make,
    unsigned threads) {
  std::vector<double> out(count);
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  auto worker = [&] {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < count;)
        out[i] = seq_solve(make(i));
    } catch (...) {
      std::lock_guard lock(error_mu);
      error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return out;
}

}  // namespace perfbench
