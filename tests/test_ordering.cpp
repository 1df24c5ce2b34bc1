// Tests of the nested-dissection ordering: permutation validity, separator
// correctness, supernode partition structure, fill reduction, and the
// pinned output that must not change with the implementation or the pool.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

#include "common/thread_pool.hpp"
#include "core/solver.hpp"
#include "core/symbolic_plan.hpp"
#include "ordering/ordering.hpp"
#include "sparse/generators.hpp"
#include "sparse/graph.hpp"
#include "symbolic/symbolic.hpp"

namespace {

using namespace blr;
using namespace blr::ordering;
using sparse::CscMatrix;
using sparse::Graph;

void expect_valid_ordering(const Ordering& ord, index_t n) {
  ASSERT_EQ(static_cast<index_t>(ord.perm.size()), n);
  ASSERT_EQ(static_cast<index_t>(ord.iperm.size()), n);
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const index_t p : ord.perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, n);
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = 1;
  }
  for (index_t i = 0; i < n; ++i)
    EXPECT_EQ(ord.iperm[static_cast<std::size_t>(ord.perm[static_cast<std::size_t>(i)])], i);
  // Ranges partition [0, n).
  ASSERT_GE(ord.ranges.size(), 2u);
  EXPECT_EQ(ord.ranges.front(), 0);
  EXPECT_EQ(ord.ranges.back(), n);
  for (std::size_t s = 1; s < ord.ranges.size(); ++s)
    EXPECT_LT(ord.ranges[s - 1], ord.ranges[s]);
}

TEST(NestedDissection, ValidPermutationOn3dGrid) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  const Graph g = Graph::from_matrix(a);
  const Ordering ord = nested_dissection(g);
  expect_valid_ordering(ord, a.rows());
  EXPECT_GT(ord.num_supernodes(), 1);
}

TEST(NestedDissection, ValidOnDisconnectedGraph) {
  // Two disjoint 2D grids.
  const CscMatrix g1 = sparse::laplacian_2d(6, 6);
  std::vector<sparse::Triplet> t;
  const index_t n1 = g1.rows();
  for (index_t j = 0; j < n1; ++j) {
    for (index_t p = g1.colptr()[static_cast<std::size_t>(j)];
         p < g1.colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t i = g1.rowind()[static_cast<std::size_t>(p)];
      const real_t v = g1.values()[static_cast<std::size_t>(p)];
      t.push_back({i, j, v});
      t.push_back({i + n1, j + n1, v});
    }
  }
  const CscMatrix a = CscMatrix::from_triplets(2 * n1, 2 * n1, std::move(t));
  const Ordering ord = nested_dissection(Graph::from_matrix(a));
  expect_valid_ordering(ord, 2 * n1);
}

TEST(NestedDissection, TinyGraphsBecomeSingleSupernode) {
  const CscMatrix a = sparse::laplacian_2d(3, 3);
  NdOptions opts;
  opts.cmin = 100;  // bigger than the graph
  const Ordering ord = nested_dissection(Graph::from_matrix(a), opts);
  expect_valid_ordering(ord, 9);
  EXPECT_EQ(ord.num_supernodes(), 1);
}

TEST(FindSeparator, SeparatesGridIntoBalancedParts) {
  const CscMatrix a = sparse::laplacian_2d(16, 16);
  const Graph g = Graph::from_matrix(a);
  const Separator sep = find_separator(g, NdOptions{});
  ASSERT_FALSE(sep.a.empty());
  ASSERT_FALSE(sep.b.empty());
  ASSERT_FALSE(sep.s.empty());
  EXPECT_EQ(sep.a.size() + sep.b.size() + sep.s.size(),
            static_cast<std::size_t>(g.num_vertices()));

  // No edge may connect A and B (the defining property).
  std::vector<char> side(static_cast<std::size_t>(g.num_vertices()), 2);
  for (const index_t v : sep.a) side[static_cast<std::size_t>(v)] = 0;
  for (const index_t v : sep.b) side[static_cast<std::size_t>(v)] = 1;
  for (const index_t v : sep.a) {
    for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u)
      EXPECT_NE(side[static_cast<std::size_t>(*u)], 1)
          << "edge between parts: " << v << " - " << *u;
  }
  // On a 16x16 grid the separator should be close to one grid line.
  EXPECT_LE(sep.s.size(), 40u);
  // Reasonable balance.
  EXPECT_GT(std::min(sep.a.size(), sep.b.size()), 40u);
}

TEST(FindSeparator, PathGraphSeparatorIsOneVertex) {
  // Path of 31 vertices.
  std::vector<sparse::Triplet> t;
  for (index_t i = 0; i + 1 < 31; ++i) {
    t.push_back({i, i + 1, 1.0});
    t.push_back({i + 1, i, 1.0});
  }
  for (index_t i = 0; i < 31; ++i) t.push_back({i, i, 4.0});
  const CscMatrix a = CscMatrix::from_triplets(31, 31, std::move(t));
  const Separator sep = find_separator(Graph::from_matrix(a), NdOptions{});
  EXPECT_EQ(sep.s.size(), 1u);
}

TEST(NestedDissection, ReducesFillVersusNaturalOrder) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  const Graph g = Graph::from_matrix(a);
  const Ordering nd = nested_dissection(g);
  const Ordering nat = natural_order(a.rows(), 32);

  symbolic::SplitOptions split;
  const auto sf_nd = symbolic::SymbolicFactor::build(
      a, nd, symbolic::split_ranges(nd.ranges, split));
  const auto sf_nat = symbolic::SymbolicFactor::build(
      a, nat, symbolic::split_ranges(nat.ranges, split));
  EXPECT_LT(sf_nd.factor_entries_lower(), sf_nat.factor_entries_lower());
}

TEST(NaturalOrder, ChunkedRanges) {
  const Ordering ord = natural_order(10, 4);
  expect_valid_ordering(ord, 10);
  EXPECT_EQ(ord.num_supernodes(), 3);  // 4 + 4 + 2
  EXPECT_EQ(ord.supernode_size(2), 2);
}

TEST(NestedDissection, SeparatorsComeAfterSubdomains) {
  // The last supernode must be the top separator: its vertices disconnect
  // the rest of the graph.
  const CscMatrix a = sparse::laplacian_2d(12, 12);
  const Graph g = Graph::from_matrix(a);
  const Ordering ord = nested_dissection(g);
  const index_t ns = ord.num_supernodes();
  const index_t last_begin = ord.ranges[static_cast<std::size_t>(ns) - 1];
  // Remove last supernode's vertices; the remainder must be disconnected
  // (or the last supernode is the whole graph, which would be wrong here).
  ASSERT_LT(last_begin, a.rows());
  std::vector<index_t> rest(ord.perm.begin(), ord.perm.begin() + last_begin);
  ASSERT_FALSE(rest.empty());
  const Graph sub = g.induced(rest);
  const auto [comp, ncomp] = sub.connected_components();
  (void)comp;
  EXPECT_GE(ncomp, 2);
}

TEST(FindSeparator, FmRefinementNeverWorsensSeparator) {
  // Property over several graph families: FM refinement keeps the vertex
  // separator valid and at most as large as the unrefined one.
  std::vector<CscMatrix> cases;
  cases.push_back(sparse::laplacian_2d(15, 15));
  cases.push_back(sparse::laplacian_3d(7, 7, 7));
  cases.push_back(sparse::laplacian_2d(45, 6));  // elongated
  cases.push_back(sparse::elasticity_3d(4, 4, 4));
  for (const auto& a : cases) {
    const Graph g = Graph::from_matrix(a);
    NdOptions off;
    off.fm_passes = 0;
    NdOptions on;
    on.fm_passes = 6;
    const Separator s0 = find_separator(g, off);
    const Separator s1 = find_separator(g, on);
    EXPECT_LE(s1.s.size(), s0.s.size());
    // Validity: no A-B edge.
    std::vector<char> side(static_cast<std::size_t>(g.num_vertices()), 2);
    for (const index_t v : s1.a) side[static_cast<std::size_t>(v)] = 0;
    for (const index_t v : s1.b) side[static_cast<std::size_t>(v)] = 1;
    for (const index_t v : s1.a) {
      for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u)
        ASSERT_NE(side[static_cast<std::size_t>(*u)], 1);
    }
    EXPECT_EQ(s1.a.size() + s1.b.size() + s1.s.size(),
              static_cast<std::size_t>(g.num_vertices()));
  }
}

// ---- Pinned output ---------------------------------------------------------
//
// FNV-1a hashes of perm + ranges, recorded from the reference
// implementation. Any change to the ordering — a rewrite of the recursion, a
// different thread count — must reproduce them bit for bit.

std::uint64_t ordering_hash(const Ordering& ord) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(ord.perm.size());
  for (const index_t v : ord.perm) mix(static_cast<std::uint64_t>(v));
  mix(ord.ranges.size());
  for (const index_t v : ord.ranges) mix(static_cast<std::uint64_t>(v));
  return h;
}

// A 2D grid, a 3D grid, five isolated vertices and a 3-vertex path, as one
// block-diagonal matrix: nested dissection takes its components path.
CscMatrix disconnected_matrix() {
  const CscMatrix g2 = sparse::laplacian_2d(40, 40);
  const CscMatrix g3 = sparse::laplacian_3d(12, 12, 12);
  std::vector<sparse::Triplet> t;
  index_t off = 0;
  for (const CscMatrix* b : {&g2, &g3}) {
    for (index_t j = 0; j < b->cols(); ++j) {
      for (index_t p = b->colptr()[static_cast<std::size_t>(j)];
           p < b->colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
        t.push_back({b->rowind()[static_cast<std::size_t>(p)] + off, j + off,
                     b->values()[static_cast<std::size_t>(p)]});
      }
    }
    off += b->rows();
  }
  for (index_t i = 0; i < 8; ++i) t.push_back({off + i, off + i, 1.0});
  for (index_t i = 5; i < 7; ++i) {
    t.push_back({off + i, off + i + 1, -0.5});
    t.push_back({off + i + 1, off + i, -0.5});
  }
  off += 8;
  return CscMatrix::from_triplets(off, off, std::move(t));
}

CscMatrix pinned_matrix(const std::string& name) {
  if (name == "lap2d") return sparse::laplacian_2d(64, 48);
  if (name == "lap3d") return sparse::laplacian_3d(16, 16, 16);
  if (name == "convdiff") return sparse::convection_diffusion_3d(14, 12, 16, 0.3);
  if (name == "elasticity") return sparse::elasticity_3d(8, 7, 9);
  if (name == "hetpoisson") return sparse::heterogeneous_poisson_3d(15, 13, 11, 4.0, 3);
  if (name == "disconnected") return disconnected_matrix();
  return sparse::laplacian_2d(1, 1);  // "single": n = 1
}

struct PinnedOrdering {
  const char* matrix;
  index_t cmin;
  std::uint64_t hash;
};

constexpr PinnedOrdering kPinned[] = {
    {"lap2d", 4, 0x05905436a59f7dffull},         // n=3072, 1463 supernodes
    {"lap2d", 32, 0x825533725bacb956ull},        // n=3072, 235
    {"lap3d", 4, 0x6de113a212427278ull},         // n=4096, 2222
    {"lap3d", 32, 0xa8d26ef19939c725ull},        // n=4096, 348
    {"convdiff", 4, 0x53f7fc6335f4bf06ull},      // n=2688, 1438
    {"convdiff", 32, 0x41f53953ecf84d1cull},     // n=2688, 225
    {"elasticity", 4, 0x832e5af05faa9c11ull},    // n=1512, 783
    {"elasticity", 32, 0x575f784338c31010ull},   // n=1512, 102
    {"hetpoisson", 4, 0xfa75fc9b1f6b96d7ull},    // n=2145, 1135
    {"hetpoisson", 32, 0xe9238a94030bf1dbull},   // n=2145, 172
    {"disconnected", 4, 0xbc233c8b6b2c447bull},  // n=3336, 1632
    {"disconnected", 32, 0xb91179a5ee9d8ef9ull}, // n=3336, 254
    {"single", 4, 0xe96063aeb1ac7df5ull},        // n=1, 1
    {"single", 32, 0xe96063aeb1ac7df5ull},       // n=1, 1
};

TEST(NestedDissectionPinned, SameOrderingWithAndWithoutPool) {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const int threads : {2, 3, 8}) pools.push_back(std::make_unique<ThreadPool>(threads));
  for (const PinnedOrdering& pin : kPinned) {
    const CscMatrix a = pinned_matrix(pin.matrix);
    const Graph g = Graph::from_matrix(a);
    NdOptions opts;
    opts.cmin = pin.cmin;
    for (const auto& pool : pools) {
      const Ordering ord = nested_dissection(g, opts, pool.get());
      expect_valid_ordering(ord, a.rows());
      EXPECT_EQ(ordering_hash(ord), pin.hash)
          << pin.matrix << " cmin=" << pin.cmin
          << " threads=" << (pool ? pool->size() : 0);
    }
  }
}

TEST(NestedDissectionPinned, AnalyzeIsThreadCountInvariant) {
  // The whole analysis — ordering, amalgamation, split, symbolic structure —
  // comes out the same on a pool; the Solver reports its sub-phase times.
  const CscMatrix a = sparse::laplacian_3d(14, 14, 14);
  core::SolverOptions opts;
  const auto serial = core::SymbolicPlan::build(a, opts);
  ThreadPool pool(4);
  const auto parallel = core::SymbolicPlan::build(a, opts, &pool);
  EXPECT_EQ(parallel->ord.perm, serial->ord.perm);
  EXPECT_EQ(parallel->ord.ranges, serial->ord.ranges);
  ASSERT_EQ(parallel->sf.num_cblks(), serial->sf.num_cblks());
  for (index_t k = 0; k < serial->sf.num_cblks(); ++k) {
    EXPECT_EQ(parallel->sf.cblk(k).fcol, serial->sf.cblk(k).fcol);
    EXPECT_EQ(parallel->sf.cblk(k).parent, serial->sf.cblk(k).parent);
    EXPECT_EQ(parallel->sf.cblk(k).bloks.size(), serial->sf.cblk(k).bloks.size());
  }

  opts.threads = 3;
  core::Solver solver(opts);
  solver.analyze(a);
  EXPECT_EQ(solver.plan()->ord.perm, serial->ord.perm);
  const core::SolverStats& st = solver.stats();
  const core::AnalyzePhaseStats& ph = st.analyze_phase;
  EXPECT_GT(ph.ordering_seconds, 0.0);
  EXPECT_GT(ph.symbolic_seconds, 0.0);
  EXPECT_LE(ph.graph_seconds + ph.ordering_seconds + ph.amalgamate_seconds +
                ph.symbolic_seconds,
            st.time_analyze);
  std::ostringstream os;
  solver.print_summary(os);
  EXPECT_NE(os.str().find("ordering"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("amalgamate"), std::string::npos) << os.str();
}

TEST(FindSeparator, EmptyGraphHasEmptySeparator) {
  const Separator sep = find_separator(Graph{}, NdOptions{});
  EXPECT_TRUE(sep.a.empty());
  EXPECT_TRUE(sep.b.empty());
  EXPECT_TRUE(sep.s.empty());
}

} // namespace
