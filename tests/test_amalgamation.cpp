// Tests of supernode amalgamation: structural validity, fill budget, the
// performance-relevant effect (fewer, larger column blocks), and exact
// agreement with a reference that rebuilds the symbolic structure every pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ordering/ordering.hpp"
#include "sparse/generators.hpp"
#include "sparse/graph.hpp"
#include "core/solver.hpp"
#include "symbolic/amalgamation.hpp"

namespace {

using namespace blr;
using namespace blr::symbolic;
using sparse::CscMatrix;

TEST(Amalgamation, RangesStayAValidPartition) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  const auto ord = ordering::nested_dissection(sparse::Graph::from_matrix(a));
  const auto merged = amalgamate(a, ord, ord.ranges);
  ASSERT_GE(merged.size(), 2u);
  EXPECT_EQ(merged.front(), 0);
  EXPECT_EQ(merged.back(), a.rows());
  for (std::size_t s = 1; s < merged.size(); ++s) EXPECT_LT(merged[s - 1], merged[s]);
  // Every merged boundary must be a subset of the original boundaries.
  for (const index_t r : merged) {
    EXPECT_NE(std::find(ord.ranges.begin(), ord.ranges.end(), r), ord.ranges.end());
  }
}

TEST(Amalgamation, ReducesSupernodeCount) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  const auto ord = ordering::nested_dissection(sparse::Graph::from_matrix(a));
  const auto merged = amalgamate(a, ord, ord.ranges);
  EXPECT_LT(merged.size(), ord.ranges.size());
}

TEST(Amalgamation, RespectsFillBudget) {
  const CscMatrix a = sparse::laplacian_3d(9, 9, 9);
  const auto ord = ordering::nested_dissection(sparse::Graph::from_matrix(a));
  const auto sf0 = SymbolicFactor::build(a, ord, ord.ranges);

  AmalgamationOptions opts;
  opts.frat = 0.08;
  const auto merged = amalgamate(a, ord, ord.ranges, opts);
  const auto sf1 = SymbolicFactor::build(a, ord, merged);
  const double growth = static_cast<double>(sf1.factor_entries_lower()) /
                        static_cast<double>(sf0.factor_entries_lower());
  EXPECT_LE(growth, 1.0 + opts.frat + 1e-9);
}

TEST(Amalgamation, ZeroBudgetIsIdentity) {
  const CscMatrix a = sparse::laplacian_3d(7, 7, 7);
  const auto ord = ordering::nested_dissection(sparse::Graph::from_matrix(a));
  AmalgamationOptions opts;
  opts.frat = 0.0;
  const auto merged = amalgamate(a, ord, ord.ranges, opts);
  // Only merges with a *negative or zero* fill delta may happen; the
  // structure size must not grow at all.
  const auto sf0 = SymbolicFactor::build(a, ord, ord.ranges);
  const auto sf1 = SymbolicFactor::build(a, ord, merged);
  EXPECT_LE(sf1.factor_entries_lower(), sf0.factor_entries_lower());
}

TEST(Amalgamation, SolverStillCorrectWithAmalgamation) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  for (const bool amal : {false, true}) {
    blr::core::SolverOptions opts;
    opts.strategy = blr::core::Strategy::JustInTime;
    opts.amalgamate = amal;
    opts.compress_min_width = 16;
    opts.compress_min_height = 8;
    blr::core::Solver solver(opts);
    solver.factorize(a);
    std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
    const auto x = solver.solve(b);
    EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-6) << amal;
  }
}

// Reference amalgamation: the same greedy passes, but every pass reads a
// freshly built SymbolicFactor instead of updating the structure in place.
// amalgamate() must return exactly its ranges.
std::vector<index_t> amalgamate_rebuilding(const CscMatrix& a, const ordering::Ordering& ord,
                                           std::vector<index_t> ranges,
                                           const AmalgamationOptions& opts) {
  if (ranges.size() <= 2) return ranges;
  const SymbolicFactor sf0 = SymbolicFactor::build(a, ord, ranges);
  const double budget = opts.frat * static_cast<double>(sf0.factor_entries_lower());
  double spent = 0;
  for (int pass = 0; pass < opts.max_passes; ++pass) {
    const SymbolicFactor sf = SymbolicFactor::build(a, ord, ranges);
    const index_t ncblk = sf.num_cblks();
    std::vector<char> merged_into_next(static_cast<std::size_t>(ncblk), 0);
    bool any = false;
    for (index_t k = 0; k + 1 < ncblk; ++k) {
      if (merged_into_next[static_cast<std::size_t>(k)]) continue;
      const Cblk& c = sf.cblk(k);
      if (c.parent != k + 1) continue;
      if (c.width() >= opts.min_width) continue;
      const Cblk& p = sf.cblk(c.parent);
      const double wc = static_cast<double>(c.width());
      const double wp = static_cast<double>(p.width());
      const double hc = static_cast<double>(c.height());
      const double hp = static_cast<double>(p.height());
      const double added = wc * (2 * wp + hp - hc);
      if (spent + added > budget) continue;
      spent += added;
      merged_into_next[static_cast<std::size_t>(k)] = 1;
      if (k + 2 < ncblk) merged_into_next[static_cast<std::size_t>(k + 1)] = 1;
      any = true;
      ranges.erase(std::find(ranges.begin(), ranges.end(), c.lcol));
    }
    if (!any) break;
  }
  return ranges;
}

TEST(Amalgamation, MatchesRebuildPerPassReference) {
  std::vector<std::pair<std::string, CscMatrix>> cases;
  cases.emplace_back("lap2d", sparse::laplacian_2d(48, 40));
  cases.emplace_back("lap3d", sparse::laplacian_3d(13, 12, 11));
  cases.emplace_back("convdiff", sparse::convection_diffusion_3d(12, 11, 13, 0.3));
  cases.emplace_back("elasticity", sparse::elasticity_3d(7, 6, 8));
  cases.emplace_back("hetpoisson", sparse::heterogeneous_poisson_3d(12, 13, 11, 4.0, 5));
  int configs = 0;
  int merged = 0;
  for (const auto& [name, a] : cases) {
    for (const index_t cmin : {4, 32}) {
      ordering::NdOptions nd;
      nd.cmin = cmin;
      const auto ord = ordering::nested_dissection(sparse::Graph::from_matrix(a), nd);
      for (const double frat : {0.0, 0.02, 0.08, 0.3, 1.0}) {
        for (const index_t min_width : {8, 64, 256}) {
          AmalgamationOptions opts;
          opts.frat = frat;
          opts.min_width = min_width;
          const auto got = amalgamate(a, ord, ord.ranges, opts);
          EXPECT_EQ(got, amalgamate_rebuilding(a, ord, ord.ranges, opts))
              << name << " cmin=" << cmin << " frat=" << frat
              << " min_width=" << min_width;
          ++configs;
          merged += got.size() < ord.ranges.size();
        }
      }
    }
  }
  EXPECT_EQ(configs, 150);
  EXPECT_GT(merged, 100);  // the comparison exercised real merging
}

} // namespace
