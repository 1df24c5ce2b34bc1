// Parallel-vs-sequential agreement: for every strategy × factorization kind
// on generator matrices, the parallel factorization (several thread counts,
// panel splitting forced on) must reproduce the sequential run's residual
// and storage within floating-point tolerance — and the left-looking
// schedule must reproduce it bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "blr.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

struct Case {
  Strategy strategy;
  Factorization facto;
};

SolverOptions base_opts(const Case& c, int threads,
                        core::Scheduling scheduling =
                            core::Scheduling::RightLooking) {
  SolverOptions o;
  o.strategy = c.strategy;
  o.factorization = c.facto;
  o.threads = threads;
  o.scheduling = scheduling;
  // Small thresholds so the tiny test grids still produce low-rank blocks
  // and multi-blok panels; tiny split threshold so the panel-split subtask
  // path is exercised even at this scale.
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  o.panel_split_rows = 48;
  return o;
}

CscMatrix matrix_for(Factorization f) {
  // LU: nonsymmetric convection-diffusion; LLt: SPD vector elasticity.
  return f == Factorization::Lu
             ? sparse::convection_diffusion_3d(7, 7, 7, 0.5)
             : sparse::elasticity_3d(4, 4, 4, 2.0, 1.0);
}

real_t run_once(const CscMatrix& a, const SolverOptions& o,
                std::size_t* entries, std::vector<real_t>* x_out = nullptr) {
  Solver solver(o);
  solver.factorize(a);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  const auto x = solver.solve(b);
  *entries = solver.stats().factor_entries_final;
  if (x_out != nullptr) *x_out = x;
  return sparse::backward_error(a, x.data(), b.data());
}

class ParallelDeterminism : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelDeterminism, MatchesSequentialRun) {
  const Case c = GetParam();
  const CscMatrix a = matrix_for(c.facto);

  std::size_t entries_seq = 0;
  const real_t res_seq =
      run_once(a, base_opts(c, 1), &entries_seq);
  ASSERT_LT(res_seq, 1e-6);
  ASSERT_GT(entries_seq, 0u);

  for (const int threads : {1, 2, 8}) {
    std::size_t entries_par = 0;
    const real_t res_par = run_once(a, base_opts(c, threads), &entries_par);

    // The update order changes under concurrency, so results agree to
    // rounding (and, for compressed strategies, to the rank decisions
    // rounding can flip), not bit-for-bit.
    EXPECT_LT(res_par, std::max<real_t>(1e-10, 50 * res_seq))
        << "threads=" << threads;
    if (c.strategy == Strategy::Dense) {
      EXPECT_EQ(entries_par, entries_seq) << "threads=" << threads;
    } else {
      const double rel =
          std::abs(static_cast<double>(entries_par) -
                   static_cast<double>(entries_seq)) /
          static_cast<double>(entries_seq);
      EXPECT_LT(rel, 0.02) << "threads=" << threads << " entries "
                           << entries_par << " vs " << entries_seq;
    }
  }
}

// Left-looking runs are pinned harder than barrier runs: each target
// applies its incoming groups in canonical order inside its own pull, so
// any left-looking execution — the sequential sweep (1 thread) or the
// work-stealing pool (2, 8 threads) — reproduces the sequential barrier
// result exactly: equal entry counts for every strategy (not within
// tolerance) and a bit-identical solution. ("Dag" here is the fan-in: one
// pull task per supernode, released by its incoming-group counter.)
TEST_P(ParallelDeterminism, DagMatchesBarrierAcrossSchedulers) {
  const Case c = GetParam();
  const CscMatrix a = matrix_for(c.facto);

  std::size_t entries_seq = 0;
  std::vector<real_t> x_seq;
  const real_t res_seq = run_once(a, base_opts(c, 1), &entries_seq, &x_seq);
  ASSERT_LT(res_seq, 1e-6);
  ASSERT_GT(entries_seq, 0u);

  for (const int threads : {1, 2, 8}) {
    std::size_t entries_ll = 0;
    std::vector<real_t> x_ll;
    const real_t res_ll = run_once(
        a, base_opts(c, threads, core::Scheduling::LeftLooking), &entries_ll,
        &x_ll);
    // Identical factors ⇒ identical rank decisions ⇒ identical storage,
    // for compressed strategies too.
    EXPECT_EQ(entries_ll, entries_seq) << "threads=" << threads;
    EXPECT_EQ(res_ll, res_seq) << "threads=" << threads;
    ASSERT_EQ(x_ll.size(), x_seq.size());
    EXPECT_EQ(0, std::memcmp(x_ll.data(), x_seq.data(),
                             x_seq.size() * sizeof(real_t)))
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategyFactoGrid, ParallelDeterminism,
    ::testing::Values(Case{Strategy::Dense, Factorization::Lu},
                      Case{Strategy::Dense, Factorization::Llt},
                      Case{Strategy::JustInTime, Factorization::Lu},
                      Case{Strategy::JustInTime, Factorization::Llt},
                      Case{Strategy::MinimalMemory, Factorization::Lu},
                      Case{Strategy::MinimalMemory, Factorization::Llt}),
    [](const auto& info) {
      std::string s = info.param.strategy == Strategy::Dense ? "Dense"
                      : info.param.strategy == Strategy::JustInTime
                          ? "JIT"
                          : "MinMem";
      s += info.param.facto == Factorization::Lu ? "Lu" : "Llt";
      return s;
    });

} // namespace
