// Parallel supernodal triangular solve tests (ctest label `solve`;
// DESIGN.md §16).
//
// Pins the solve-phase contracts:
//  - solutions are bit-identical to pinned hashes captured before the solve
//    was rebuilt at group granularity, at every solve thread count and RHS
//    width (so a change shared by the pooled and in-order drains is caught);
//  - the pooled DAG drain is memcmp-identical to the in-order drain, across
//    strategies, dataflow engines, precisions, solve thread counts and RHS
//    widths;
//  - the SolvePlan is built once per symbolic plan and replayed by every
//    refactorize (plan_builds/plan_reuses counters), and has one task per
//    supernode per sweep plus one per (supernode, facing supernode) group;
//  - the fp32 widen cache is built lazily on the first solve, hit by every
//    later low-rank apply, and invalidated wholesale by refactorize();
//  - every solve task is one KernelDispatch call (solve_trsm/solve_gemm
//    rows in the kernel table);
//  - a Session serving concurrent clients over the parallel solve returns
//    bit-identical answers and reports the solve-phase detail per request.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "blr.hpp"
#include "core/kernels_dispatch.hpp"
#include "core/solve_plan.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

SolverOptions base_options(Strategy strategy, Dataflow dataflow,
                           TilePrecision precision, int threads) {
  SolverOptions o;
  o.strategy = strategy;
  o.dataflow = dataflow;
  o.precision = precision;
  o.threads = threads;
  o.tolerance = 1e-8;
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

std::vector<real_t> seeded_block(index_t n, index_t nrhs, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(nrhs));
  for (auto& v : b) v = rng.normal();
  return b;
}

/// Same pattern, different values (keeps SPD matrices SPD).
CscMatrix step_values(const CscMatrix& a, real_t scale, real_t shift) {
  CscMatrix out = a;
  for (index_t j = 0; j < out.cols(); ++j) {
    for (index_t p = out.colptr()[static_cast<std::size_t>(j)];
         p < out.colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      out.values()[static_cast<std::size_t>(p)] *= scale;
      if (out.rowind()[static_cast<std::size_t>(p)] == j) {
        out.values()[static_cast<std::size_t>(p)] += shift;
      }
    }
  }
  return out;
}

/// (supernode k, facing supernode t) pairs: the FwdGroup tasks of the plan.
std::uint64_t count_groups(const symbolic::SymbolicFactor& sf) {
  std::uint64_t g = 0;
  for (index_t k = 0; k < sf.num_cblks(); ++k) {
    index_t last = -1;
    for (const symbolic::Blok& b : sf.cblk(k).bloks) {
      if (b.fcblk != last) ++g;
      last = b.fcblk;
    }
  }
  return g;
}

std::uint64_t fnv1a(const std::vector<real_t>& x) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* p = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.size() * sizeof(real_t); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---- (a) the bit contract, anchored to pinned hashes ----------------------
//
// FNV-1a of the solution blocks, captured from the per-blok solve (one task
// per panel block and sweep) this engine replaced. Both drains of today's
// engine must reproduce them at every solve thread count and width, under
// every backend (the backends promise the same bits; scripts/ci.sh runs the
// suite under each).

struct PinnedSolve {
  const char* matrix;    ///< "lap": LLᵗ lap 10³; "cd": LU conv.-diff. 10³
  Strategy strategy;
  TilePrecision precision;
  index_t nrhs;
  std::uint64_t hash;
};

constexpr PinnedSolve kPinned[] = {
    {"lap", Strategy::Dense, TilePrecision::Fp64, 1, 0x97edbbb9e885c2ffull},
    {"lap", Strategy::Dense, TilePrecision::Fp64, 3, 0x40b35481dd38a070ull},
    {"lap", Strategy::Dense, TilePrecision::Fp64, 17, 0x7ec90b4082c2252dull},
    {"lap", Strategy::JustInTime, TilePrecision::Fp64, 1, 0x04395a3fe79da57aull},
    {"lap", Strategy::JustInTime, TilePrecision::Fp64, 3, 0x31b05b6774010f07ull},
    {"lap", Strategy::JustInTime, TilePrecision::Fp64, 17, 0xdd7928cc53dec7caull},
    {"lap", Strategy::MinimalMemory, TilePrecision::Fp64, 1, 0xc6b9d0da02fd5fe4ull},
    {"lap", Strategy::MinimalMemory, TilePrecision::Fp64, 3, 0xbc15883e3b25ebe9ull},
    {"lap", Strategy::MinimalMemory, TilePrecision::Fp64, 17, 0x7254a7d17a9c49e4ull},
    {"lap", Strategy::JustInTime, TilePrecision::MixedTiles, 1, 0x00a65af9263244dcull},
    {"lap", Strategy::JustInTime, TilePrecision::MixedTiles, 3, 0x2213c28c760040aeull},
    {"lap", Strategy::JustInTime, TilePrecision::MixedTiles, 17, 0x38ea0ddf40585c43ull},
    {"cd", Strategy::Dense, TilePrecision::Fp64, 1, 0x98e71f6b6037dc0dull},
    {"cd", Strategy::Dense, TilePrecision::Fp64, 3, 0xdc8114909a206aceull},
    {"cd", Strategy::Dense, TilePrecision::Fp64, 17, 0xda317a7e72c77adeull},
    {"cd", Strategy::JustInTime, TilePrecision::Fp64, 1, 0x2ab9ae5a75798865ull},
    {"cd", Strategy::JustInTime, TilePrecision::Fp64, 3, 0xe4e35dadd12dfaaaull},
    {"cd", Strategy::JustInTime, TilePrecision::Fp64, 17, 0xc550cd29c4e41ec3ull},
    {"cd", Strategy::MinimalMemory, TilePrecision::Fp64, 1, 0xbb45bb61af8c2d08ull},
    {"cd", Strategy::MinimalMemory, TilePrecision::Fp64, 3, 0x3017daee54a53339ull},
    {"cd", Strategy::MinimalMemory, TilePrecision::Fp64, 17, 0x2282afcd76c72bceull},
    {"cd", Strategy::JustInTime, TilePrecision::MixedTiles, 1, 0xb4adff68db484864ull},
    {"cd", Strategy::JustInTime, TilePrecision::MixedTiles, 3, 0xe480e1d93d5e43a7ull},
    {"cd", Strategy::JustInTime, TilePrecision::MixedTiles, 17, 0xd797775c9efe70f8ull},
};

TEST(SolveBitContract, MatchesPinnedHashes) {
  const CscMatrix lap = sparse::laplacian_3d(10, 10, 10);
  const CscMatrix cd = sparse::convection_diffusion_3d(10, 10, 10, 0.5);
  std::uint64_t pooled = 0;
  for (const int solve_threads : {1, 2, 8}) {
    for (std::size_t c = 0; c < std::size(kPinned); c += 3) {
      const PinnedSolve& cfg = kPinned[c];
      const bool is_lap = std::string(cfg.matrix) == "lap";
      const CscMatrix& a = is_lap ? lap : cd;
      const index_t n = a.rows();
      SolverOptions o = base_options(cfg.strategy, Dataflow::Barrier,
                                     cfg.precision, 1);
      o.factorization = is_lap ? Factorization::Llt : Factorization::Lu;
      o.solve_parallel = solve_threads > 1;
      o.solve_threads = solve_threads;
      Solver solver(o);
      solver.factorize(a);
      for (std::size_t w = c; w < c + 3; ++w) {
        const index_t nrhs = kPinned[w].nrhs;
        const auto b =
            seeded_block(n, nrhs, 500 + static_cast<std::uint64_t>(nrhs));
        std::vector<real_t> x(b.size());
        solver.solve(la::DConstView(b.data(), n, nrhs, n),
                     la::DView(x.data(), n, nrhs, n));
        EXPECT_EQ(fnv1a(x), kPinned[w].hash)
            << cfg.matrix << " " << core::strategy_name(cfg.strategy)
            << (cfg.precision == TilePrecision::MixedTiles ? " mixed" : "")
            << " nrhs " << nrhs << " solve_threads " << solve_threads;
      }
      pooled += solver.stats().solve_phase.parallel_solves;
    }
  }
  // The widest blocks drained over the pool (nrhs 1 and 3 are too small
  // for it on these matrices and drain in order).
  EXPECT_GT(pooled, 0u);
}

// ---- (b) pooled drain == in-order drain, bitwise ---------------------------

struct SolveConfig {
  Strategy strategy;
  Dataflow dataflow;
  TilePrecision precision;
  int factor_threads;
  int solve_threads;
};

std::string config_name(const ::testing::TestParamInfo<SolveConfig>& info) {
  std::string s = core::strategy_name(info.param.strategy);
  s.erase(std::remove_if(s.begin(), s.end(),
                         [](char c) { return c == ' ' || c == '-'; }),
          s.end());
  s += info.param.dataflow == Dataflow::Dag ? "Dag" : "Barrier";
  s += info.param.precision == TilePrecision::MixedTiles ? "Mixed" : "Fp64";
  s += "S" + std::to_string(info.param.solve_threads);
  return s;
}

class ParallelSolveDeterminism : public ::testing::TestWithParam<SolveConfig> {
};

// The pooled drain reproduces the in-order drain bit for bit.
TEST_P(ParallelSolveDeterminism, MatchesSequentialBitwise) {
  const SolveConfig cfg = GetParam();
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  const index_t n = a.rows();

  SolverOptions seq_opts = base_options(cfg.strategy, cfg.dataflow,
                                        cfg.precision, cfg.factor_threads);
  seq_opts.solve_parallel = false;
  SolverOptions par_opts = seq_opts;
  par_opts.solve_parallel = true;
  par_opts.solve_threads = cfg.solve_threads;

  Solver seq(seq_opts);
  Solver par(par_opts);
  seq.factorize(a);
  par.factorize(a);

  // nrhs 1 and 3 are too small for the pool here (SolvePlan::pays_pool)
  // and drain in order on both solvers; the narrowest block that pays for
  // the pool, and 4×threads when wider, drain over it.
  index_t pooled = 1;
  while (!par.plan()->solve_plan()->pays_pool(pooled)) ++pooled;
  const index_t widths[] = {
      1, 3, pooled,
      std::max(pooled, static_cast<index_t>(4 * cfg.solve_threads))};
  for (const index_t nrhs : widths) {
    const auto b = seeded_block(n, nrhs, 1000 + static_cast<std::uint64_t>(nrhs));
    std::vector<real_t> xs(b.size()), xp(b.size());
    seq.solve(la::DConstView(b.data(), n, nrhs, n),
              la::DView(xs.data(), n, nrhs, n));
    par.solve(la::DConstView(b.data(), n, nrhs, n),
              la::DView(xp.data(), n, nrhs, n));
    ASSERT_EQ(0, std::memcmp(xs.data(), xp.data(), xs.size() * sizeof(real_t)))
        << "nrhs = " << nrhs;
  }

  // The pooled drain actually engaged (and the sequential solver never
  // touched its — nonexistent — pool).
  const core::SolvePhaseStats& sp = par.stats().solve_phase;
  EXPECT_GT(sp.parallel_solves, 0u);
  EXPECT_GT(sp.tasks_executed, 0u);
  EXPECT_EQ(seq.stats().solve_phase.parallel_solves, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelSolveDeterminism,
    ::testing::Values(
        SolveConfig{Strategy::JustInTime, Dataflow::Barrier,
                    TilePrecision::Fp64, 1, 2},
        SolveConfig{Strategy::JustInTime, Dataflow::Dag,
                    TilePrecision::Fp64, 2, 8},
        SolveConfig{Strategy::JustInTime, Dataflow::Dag,
                    TilePrecision::MixedTiles, 2, 2},
        SolveConfig{Strategy::MinimalMemory, Dataflow::Barrier,
                    TilePrecision::Fp64, 1, 8},
        SolveConfig{Strategy::MinimalMemory, Dataflow::Dag,
                    TilePrecision::MixedTiles, 2, 8},
        SolveConfig{Strategy::Adaptive, Dataflow::Barrier,
                    TilePrecision::MixedTiles, 1, 2}),
    config_name);

// ---- (c) solve plan: built once, replayed by every refactorize ------------

TEST(SolvePlanCache, BuiltOnceReusedAcrossRefactorize) {
  const CscMatrix a1 = sparse::laplacian_3d(8, 8, 8);
  const CscMatrix a2 = step_values(a1, 1.5, 0.3);
  SolverOptions opts = base_options(Strategy::JustInTime, Dataflow::Barrier,
                                    TilePrecision::Fp64, 1);
  opts.solve_threads = 2;
  Solver solver(opts);
  solver.factorize(a1);
  EXPECT_EQ(solver.stats().solve_phase.plan_builds, 1u);
  EXPECT_EQ(solver.stats().solve_phase.plan_reuses, 0u);

  // The cached plan object is shared, not rebuilt.
  const auto p1 = solver.plan()->solve_plan();
  const auto p2 = solver.plan()->solve_plan();
  EXPECT_EQ(p1.get(), p2.get());

  // Structure: one FwdDiag and one Bwd per supernode plus one FwdGroup per
  // (supernode, facing supernode) pair.
  const core::SymbolicPlan& plan = *solver.plan();
  const std::uint64_t groups = count_groups(plan.sf);
  EXPECT_EQ(p1->num_groups(), groups);
  EXPECT_EQ(p1->num_tasks(),
            2 * static_cast<std::uint64_t>(plan.sf.num_cblks()) + groups);
  EXPECT_GT(p1->critical_path(), 0u);

  solver.refactorize(a2);
  EXPECT_EQ(solver.stats().solve_phase.plan_builds, 1u);
  EXPECT_EQ(solver.stats().solve_phase.plan_reuses, 1u);
  EXPECT_EQ(solver.plan()->solve_plan().get(), p1.get());

  // A fresh analyze drops the cache with the plan it belongs to.
  solver.analyze(a1);
  solver.factorize(a1);
  EXPECT_EQ(solver.stats().solve_phase.plan_builds, 1u);
}

// ---- (d) fp32 widen cache: lazy build, hits, refactorize invalidation -----

TEST(WidenCache, BuiltOnFirstSolveInvalidatedByRefactorize) {
  const CscMatrix a1 = sparse::laplacian_3d(12, 12, 12);
  const CscMatrix a2 = step_values(a1, 1.5, 0.3);
  SolverOptions opts = base_options(Strategy::MinimalMemory, Dataflow::Barrier,
                                    TilePrecision::MixedTiles, 1);
  opts.solve_threads = 2;
  Solver solver(opts);
  solver.factorize(a1);
  ASSERT_GT(solver.stats().num_fp32_blocks, 0);

  // Lazy: nothing widened until the first solve.
  EXPECT_EQ(solver.numeric().widen_cache_bytes(), 0u);
  const auto b = seeded_block(a1.rows(), 1, 9);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  const std::size_t bytes1 = solver.numeric().widen_cache_bytes();
  EXPECT_GT(bytes1, 0u);
  EXPECT_GT(solver.numeric().widen_cache_tiles(), 0u);
  EXPECT_GT(solver.stats().solve_phase.widen_hits, 0u);
  EXPECT_EQ(solver.stats().solve_phase.widen_bytes, bytes1);

  // Every later solve hits the cache instead of re-promoting.
  const std::uint64_t hits1 = solver.numeric().widen_hits();
  solver.solve(b.data(), x.data());
  EXPECT_GT(solver.numeric().widen_hits(), hits1);
  EXPECT_EQ(solver.numeric().widen_cache_bytes(), bytes1);

  // refactorize() produces fresh factors -> the old epoch's cache is gone
  // until the next solve rebuilds it against the new values.
  solver.refactorize(a2);
  EXPECT_EQ(solver.numeric().widen_cache_bytes(), 0u);
  EXPECT_EQ(solver.numeric().widen_hits(), 0u);
  solver.solve(b.data(), x.data());
  EXPECT_GT(solver.numeric().widen_cache_bytes(), 0u);
  EXPECT_LT(sparse::backward_error(a2, x.data(), b.data()), 1e-4);
}

// ---- (e) dispatch integration: one dispatch per solve task ----------------

TEST(SolveDispatch, SolveKernelsCountedInKernelTable) {
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  SolverOptions opts = base_options(Strategy::MinimalMemory, Dataflow::Barrier,
                                    TilePrecision::MixedTiles, 1);
  opts.solve_threads = 2;
  Solver solver(opts);
  solver.factorize(a);
  const auto b = seeded_block(a.rows(), 1, 5);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());

  std::uint64_t trsm_calls = 0, gemm_calls = 0;
  for (const core::DispatchCount& d : solver.stats().dispatch) {
    if (d.kernel.rfind("solve_trsm", 0) == 0) trsm_calls += d.calls;
    if (d.kernel.rfind("solve_gemm", 0) == 0) gemm_calls += d.calls;
  }
  // Two trsm per supernode (FwdDiag + Bwd), one gemm per forward group.
  EXPECT_EQ(trsm_calls,
            2 * static_cast<std::uint64_t>(solver.stats().num_cblks));
  EXPECT_EQ(gemm_calls, solver.plan()->solve_plan()->num_groups());
  // fp32-at-rest tiles are read through the widen cache.
  EXPECT_GT(solver.stats().solve_phase.widen_hits, 0u);
  EXPECT_GT(solver.stats().solve_phase.tasks_executed, 0u);
}

// A solve runs exactly 2·ncblk + #groups tasks, each one kernel dispatch:
// no per-blok dispatch is left, in order (single RHS) or pooled (the
// narrowest block that pays for the pool).
TEST(SolveDispatch, OneDispatchPerTask) {
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  SolverOptions opts = base_options(Strategy::JustInTime, Dataflow::Barrier,
                                    TilePrecision::Fp64, 1);
  opts.solve_threads = 4;
  Solver solver(opts);
  solver.factorize(a);
  const core::SymbolicPlan& plan = *solver.plan();
  const std::uint64_t expect =
      2 * static_cast<std::uint64_t>(plan.sf.num_cblks()) +
      count_groups(plan.sf);
  const auto dispatches = [] {
    std::uint64_t calls = 0;
    for (const core::DispatchCount& d :
         core::KernelDispatch::instance().snapshot()) {
      if (d.kernel.rfind("solve_", 0) == 0) calls += d.calls;
    }
    return calls;
  };
  index_t pooled = 1;
  while (!plan.solve_plan()->pays_pool(pooled)) ++pooled;
  for (const index_t nrhs : {index_t{1}, pooled}) {
    const core::SolvePhaseStats before = solver.stats().solve_phase;
    const std::uint64_t calls = dispatches();
    const auto b = seeded_block(a.rows(), nrhs, 21);
    std::vector<real_t> x(b.size());
    solver.solve(la::DConstView(b.data(), a.rows(), nrhs, a.rows()),
                 la::DView(x.data(), a.rows(), nrhs, a.rows()));
    const core::SolvePhaseStats& sp = solver.stats().solve_phase;
    EXPECT_EQ(sp.tasks_executed - before.tasks_executed, expect)
        << "nrhs " << nrhs;
    EXPECT_LE(dispatches() - calls, expect) << "nrhs " << nrhs;
    EXPECT_EQ(sp.parallel_solves - before.parallel_solves,
              nrhs == pooled ? 1u : 0u)
        << "nrhs " << nrhs;
  }
}

// ---- (f) session: concurrent clients over the parallel solve --------------

TEST(SessionParallelSolve, ConcurrentClientsBitIdenticalToSequential) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  const index_t n = a.rows();
  SolverOptions opts = base_options(Strategy::JustInTime, Dataflow::Dag,
                                    TilePrecision::Fp64, 2);
  opts.solve_threads = 4;

  SolverOptions ref_opts = opts;
  ref_opts.solve_parallel = false;
  ref_opts.threads = 1;
  ref_opts.dataflow = Dataflow::Barrier;

  Session session(opts);
  session.refactorize(a);
  Solver ref(ref_opts);
  ref.factorize(a);

  constexpr int kClients = 8;
  std::vector<std::vector<real_t>> bs, xs, want;
  for (int i = 0; i < kClients; ++i) {
    bs.push_back(seeded_block(n, 1, 100 + static_cast<std::uint64_t>(i)));
    xs.emplace_back(static_cast<std::size_t>(n));
    want.emplace_back(static_cast<std::size_t>(n));
    ref.solve(bs.back().data(), want.back().data());
  }

  std::vector<SolveStats> st(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      st[static_cast<std::size_t>(i)] =
          session.solve(bs[static_cast<std::size_t>(i)].data(),
                        xs[static_cast<std::size_t>(i)].data());
    });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_EQ(0, std::memcmp(xs[static_cast<std::size_t>(i)].data(),
                             want[static_cast<std::size_t>(i)].data(),
                             static_cast<std::size_t>(n) * sizeof(real_t)))
        << "client " << i;
    // Per-request solve-phase detail: the blocked solve that served each
    // request ran the cached plan — over the solve pool exactly when its
    // width pays for the pool (only session solves use the engine here, so
    // its lock is always free) — and reported its task count.
    const SolveStats& s = st[static_cast<std::size_t>(i)];
    EXPECT_EQ(s.parallel, session.solver().plan()->solve_plan()->pays_pool(
                              s.batch_size))
        << "client " << i;
    EXPECT_GT(s.solve_tasks, 0u) << "client " << i;
    EXPECT_TRUE(s.plan_reused) << "client " << i;
  }
}

// Direct Solver::solve entry points racing the session's queue must not
// deadlock or corrupt results: the engine lock's loser drains in order,
// which is bit-identical anyway.
TEST(SessionParallelSolve, EngineContentionFallsBackSequentially) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  const index_t n = a.rows();
  SolverOptions opts = base_options(Strategy::JustInTime, Dataflow::Barrier,
                                    TilePrecision::Fp64, 1);
  opts.solve_threads = 2;
  Solver solver(opts);
  solver.factorize(a);
  // The narrowest block wide enough to want the pool, so every racer
  // contends for the engine lock.
  index_t nrhs = 1;
  while (!solver.plan()->solve_plan()->pays_pool(nrhs)) ++nrhs;
  const std::size_t len = static_cast<std::size_t>(n) * static_cast<std::size_t>(nrhs);

  const auto b = seeded_block(n, nrhs, 321);
  std::vector<real_t> want(len);
  solver.solve(la::DConstView(b.data(), n, nrhs, n),
               la::DView(want.data(), n, nrhs, n));
  EXPECT_EQ(solver.stats().solve_phase.parallel_solves, 1u);

  constexpr int kRacers = 6;
  std::vector<std::vector<real_t>> xs(kRacers);
  std::vector<std::thread> racers;
  racers.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    xs[static_cast<std::size_t>(i)].resize(len);
    racers.emplace_back([&, i] {
      // NumericFactor::solve is const and safe under concurrent callers;
      // stats capture is skipped to keep the race on the engine lock only.
      solver.numeric().solve(
          la::DConstView(b.data(), n, nrhs, n),
          la::DView(xs[static_cast<std::size_t>(i)].data(), n, nrhs, n));
    });
  }
  for (auto& t : racers) t.join();
  for (int i = 0; i < kRacers; ++i) {
    ASSERT_EQ(0, std::memcmp(xs[static_cast<std::size_t>(i)].data(),
                             want.data(), len * sizeof(real_t)))
        << "racer " << i;
  }
}

} // namespace
