#include "core/symbolic_plan.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "sparse/graph.hpp"
#include "symbolic/amalgamation.hpp"

namespace blr::core {

std::uint64_t SymbolicPlan::hash_pattern(const sparse::CscMatrix& a) {
  // FNV-1a over the raw index arrays: cheap (one pass over the pattern,
  // no values) and order-sensitive, which is exactly what "same CSC
  // structure" means.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(a.rows()));
  for (index_t p : a.colptr()) mix(static_cast<std::uint64_t>(p));
  for (index_t i : a.rowind()) mix(static_cast<std::uint64_t>(i));
  return h;
}

std::shared_ptr<const SymbolicPlan> SymbolicPlan::build(
    const sparse::CscMatrix& a, const SolverOptions& opts, ThreadPool* pool) {
  BLR_CHECK(a.rows() == a.cols(), "solver requires a square matrix");
  if (opts.check_pattern) {
    BLR_CHECK(a.pattern_symmetric(),
              "the solver requires a symmetric nonzero pattern (symmetrize the "
              "matrix, e.g. by assembling A + Aᵗ's pattern, before factorizing)");
  }
  auto plan = std::make_shared<SymbolicPlan>();
  AnalyzePhaseStats& t = plan->phases;
  const Timer total;
  Timer timer;

  const sparse::Graph g = sparse::Graph::from_matrix(a);
  t.graph_seconds = timer.elapsed();
  timer.reset();
  plan->ord = ordering::nested_dissection(g, opts.nd, pool);
  t.ordering_seconds = timer.elapsed();
  timer.reset();
  std::vector<index_t> ranges = plan->ord.ranges;
  if (opts.amalgamate) {
    ranges = symbolic::amalgamate(a, plan->ord, std::move(ranges), opts.amalgamation);
  }
  t.amalgamate_seconds = timer.elapsed();
  timer.reset();
  ranges = symbolic::split_ranges(ranges, opts.split);
  plan->sf = symbolic::SymbolicFactor::build(a, plan->ord, ranges);
  t.symbolic_seconds = timer.elapsed();

  plan->n = a.rows();
  plan->nnz = a.nnz();
  plan->pattern_hash = hash_pattern(a);
  plan->build_seconds = total.elapsed();
  return plan;
}

} // namespace blr::core
