// Re-factorization and Session tests (ctest label `session`; DESIGN.md §15).
//
// Pins the amortized re-factorization contract:
//  - refactorize() produces the same answers as a cold factorize() of the
//    same values — bitwise for the deterministic compression paths (Dense,
//    RRQR), within the τ-based backward-error bound for the sketched ones —
//    across strategies and both schedules (right- and left-looking);
//  - rank warm-starting is verify-and-grow: value changes that inflate
//    ranks take the grow fallback instead of degrading accuracy;
//  - a Session coalesces concurrent single-RHS solves into blocked
//    multi-RHS solves without changing any result bit;
//  - a refactorize() that breaches the governor budget mid-pass leaves the
//    session serving the previous factors;
//  - solve() without a successful factorization raises the structured
//    FailureKind::NotFactorized report (solver and session flavors).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "blr.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

SolverOptions small_problem_options(Strategy strategy, lr::CompressionKind kind,
                                    core::Scheduling scheduling) {
  SolverOptions o;
  o.strategy = strategy;
  o.kind = kind;
  o.scheduling = scheduling;
  o.tolerance = 1e-8;
  // Small problem: lower the compressibility thresholds so the BLR machinery
  // actually engages.
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

std::vector<real_t> seeded_rhs(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.normal();
  return b;
}

/// Same pattern, different values: scale every entry and strengthen the
/// diagonal (keeps SPD matrices SPD) — the time-stepping value change.
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

struct SessionConfig {
  Strategy strategy;
  core::Scheduling scheduling;
};

std::string config_name(const ::testing::TestParamInfo<SessionConfig>& info) {
  std::string s = core::strategy_name(info.param.strategy);
  s.erase(std::remove_if(s.begin(), s.end(),
                         [](char c) { return c == ' ' || c == '-'; }),
          s.end());
  return s + (info.param.scheduling == core::Scheduling::LeftLooking
                  ? "LeftLooking"
                  : "Barrier");
}

class RefactorizeParity : public ::testing::TestWithParam<SessionConfig> {};

// Warm pass == cold pass, bitwise, for the deterministic compression path
// (RRQR stops at the first rank meeting τ, so a sufficient warm cap cannot
// change the result; the grow fallback covers an insufficient one).
TEST_P(RefactorizeParity, WarmMatchesColdBitwise) {
  const SessionConfig cfg = GetParam();
  const CscMatrix a1 = sparse::laplacian_3d(10, 10, 10);
  const CscMatrix a2 = step_values(a1, 1.5, 0.3);
  SolverOptions opts =
      small_problem_options(cfg.strategy, lr::CompressionKind::Rrqr,
                            cfg.scheduling);
  // Dense-skip replays the previous pass's *final* tile states, and a block
  // that densified during extend-adds is then never re-attempted at assembly
  // — τ-accurate (dense is exact) but not bit-identical to a cold pass.
  // Bitwise parity is pinned with it off; DenseSkipStaysAccurate covers the
  // default-on behavior.
  opts.warm_dense_skip = false;
  const auto b = seeded_rhs(a1.rows(), 1234);

  Solver cold(opts);
  cold.factorize(a2);
  const std::vector<real_t> x_cold = cold.solve(b);

  Solver warm(opts);
  warm.factorize(a1);
  const auto plan_before = warm.plan();
  const double analyze_s = warm.stats().time_analyze;
  warm.refactorize(a2);
  const std::vector<real_t> x_warm = warm.solve(b);

  ASSERT_EQ(x_cold.size(), x_warm.size());
  for (std::size_t i = 0; i < x_cold.size(); ++i) {
    ASSERT_EQ(x_cold[i], x_warm[i]) << "component " << i;
  }
  EXPECT_LT(sparse::backward_error(a2, x_warm.data(), b.data()),
            opts.tolerance * 500);

  // Structural pins of "measurably cheaper": the symbolic plan is reused
  // verbatim (same object, no analyze time re-paid), retired buffers were
  // recycled, and — outside the Dense strategy — compressions ran off
  // replayed rank hints.
  const core::SolverStats& st = warm.stats();
  EXPECT_EQ(st.refactorizations, 1u);
  EXPECT_EQ(warm.plan().get(), plan_before.get());
  EXPECT_EQ(st.time_analyze, analyze_s);
  EXPECT_GT(st.buffer_hits, 0u);
  if (cfg.strategy != Strategy::Dense) {
    EXPECT_GT(st.warm.attempts + st.warm.dense_skips, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategySchedulingGrid, RefactorizeParity,
    ::testing::Values(
        SessionConfig{Strategy::Dense, core::Scheduling::RightLooking},
        SessionConfig{Strategy::Dense, core::Scheduling::LeftLooking},
        SessionConfig{Strategy::JustInTime, core::Scheduling::RightLooking},
        SessionConfig{Strategy::JustInTime, core::Scheduling::LeftLooking},
        SessionConfig{Strategy::MinimalMemory, core::Scheduling::RightLooking},
        SessionConfig{Strategy::MinimalMemory, core::Scheduling::LeftLooking},
        SessionConfig{Strategy::Adaptive, core::Scheduling::RightLooking},
        SessionConfig{Strategy::Adaptive, core::Scheduling::LeftLooking}),
    config_name);

// The sketched compression paths (SVD warm-starts via a randomized sketch,
// Randomized re-sketches at the warm width) change bits but never the
// τ-based accuracy contract.
TEST(RefactorizeAccuracy, SketchedKindsMeetToleranceWarm) {
  const CscMatrix a1 = sparse::laplacian_3d(10, 10, 10);
  const CscMatrix a2 = step_values(a1, 1.5, 0.3);
  for (const auto kind :
       {lr::CompressionKind::Svd, lr::CompressionKind::Randomized}) {
    SolverOptions opts = small_problem_options(Strategy::JustInTime, kind,
                                               core::Scheduling::RightLooking);
    Solver warm(opts);
    warm.factorize(a1);
    warm.refactorize(a2);
    const auto b = seeded_rhs(a2.rows(), 99);
    const std::vector<real_t> x = warm.solve(b);
    EXPECT_LT(sparse::backward_error(a2, x.data(), b.data()),
              opts.tolerance * 500)
        << core::kind_name(kind);
  }
}

// Default-on dense-skip: blocks whose previous pass ended dense keep their
// (exact) dense representation without re-attempting compression. Bits may
// differ from a cold pass, the τ-based residual bound may not.
TEST(RefactorizeAccuracy, DenseSkipStaysAccurate) {
  const CscMatrix a1 = sparse::laplacian_3d(10, 10, 10);
  const CscMatrix a2 = step_values(a1, 1.5, 0.3);
  for (const auto strategy : {Strategy::MinimalMemory, Strategy::Adaptive}) {
    SolverOptions opts = small_problem_options(
        strategy, lr::CompressionKind::Rrqr, core::Scheduling::RightLooking);
    ASSERT_TRUE(opts.warm_dense_skip);  // the default under test
    Solver warm(opts);
    warm.factorize(a1);
    warm.refactorize(a2);
    EXPECT_GT(warm.stats().warm.dense_skips, 0u)
        << core::strategy_name(strategy);
    const auto b = seeded_rhs(a2.rows(), 7);
    const std::vector<real_t> x = warm.solve(b);
    EXPECT_LT(sparse::backward_error(a2, x.data(), b.data()),
              opts.tolerance * 500)
        << core::strategy_name(strategy);
  }
}

// Values change that inflates ranks: the warm guesses (slack 0, so any
// growth is visible) must take the verified grow fallback, not degrade the
// answer. Smooth Laplacian -> high-contrast Poisson on the same stencil.
TEST(RefactorizeAccuracy, ValueChangeGrowsRanksNotError) {
  const CscMatrix a1 = sparse::laplacian_3d(10, 10, 10);
  const CscMatrix a2 =
      sparse::heterogeneous_poisson_3d(10, 10, 10, /*contrast=*/4.0, 77);
  ASSERT_EQ(a1.nnz(), a2.nnz());  // same stencil, different values

  SolverOptions opts = small_problem_options(
      Strategy::JustInTime, lr::CompressionKind::Rrqr,
      core::Scheduling::RightLooking);
  opts.warm_rank_slack = 0;
  opts.warm_dense_skip = false;  // rough blocks must re-attempt compression
  Solver solver(opts);
  solver.factorize(a1);
  solver.refactorize(a2);

  const core::SolverStats& st = solver.stats();
  EXPECT_GT(st.warm.attempts, 0u);
  EXPECT_GT(st.warm.grows, 0u);

  const auto b = seeded_rhs(a2.rows(), 5);
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_LT(sparse::backward_error(a2, x.data(), b.data()),
            opts.tolerance * 500);
}

TEST(Refactorize, PatternMismatchThrows) {
  const CscMatrix a1 = sparse::laplacian_3d(10, 10, 10);
  const CscMatrix b1 = sparse::laplacian_2d(40, 25);  // same n, other pattern
  ASSERT_EQ(a1.rows(), b1.rows());
  Solver solver(small_problem_options(Strategy::JustInTime,
                                      lr::CompressionKind::Rrqr,
                                      core::Scheduling::RightLooking));
  solver.factorize(a1);
  EXPECT_THROW(solver.refactorize(b1), blr::Error);
  // The pattern guard fired before any factor was touched.
  EXPECT_TRUE(solver.factorized());
}

TEST(Refactorize, BeforeAnalyzeActsAsColdFactorize) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  Solver solver(small_problem_options(Strategy::MinimalMemory,
                                      lr::CompressionKind::Rrqr,
                                      core::Scheduling::RightLooking));
  solver.refactorize(a);
  EXPECT_TRUE(solver.factorized());
  EXPECT_EQ(solver.stats().refactorizations, 0u);  // it was a cold pass
  const auto b = seeded_rhs(a.rows(), 3);
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-8 * 500);
}

// --- Structured not-factorized failure path (solver flavor) ---------------

TEST(NotFactorized, SolveBeforeFactorizeIsStructured) {
  Solver solver;
  std::vector<real_t> b(10, 1.0), x(10);
  try {
    solver.solve(b.data(), x.data());
    FAIL() << "solve() without factors must throw";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::NotFactorized);
    EXPECT_NE(e.report().detail.find("required before solve()"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("not-factorized"), std::string::npos);
  }
  EXPECT_THROW(solver.preconditioner(), NumericalError);
}

TEST(NotFactorized, FailedFactorizeIsReportedBySolve) {
  const CscMatrix a = sparse::laplacian_3d(6, 6, 6);
  SolverOptions opts = small_problem_options(
      Strategy::JustInTime, lr::CompressionKind::Rrqr,
      core::Scheduling::RightLooking);
  opts.fault.kind = core::FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 0;
  Solver solver(opts);
  EXPECT_THROW(solver.factorize(a), NumericalError);
  ASSERT_FALSE(solver.factorized());
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<real_t> x(b.size());
  try {
    solver.solve(b.data(), x.data());
    FAIL() << "solve() after a failed factorize must throw";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::NotFactorized);
    EXPECT_NE(e.report().detail.find("last failure"), std::string::npos);
    EXPECT_NE(e.report().detail.find("pivot"), std::string::npos);
  }
}

// --- Session ---------------------------------------------------------------

TEST(SessionTest, SolveBeforeRefactorizeIsStructured) {
  Session session;
  std::vector<real_t> b(10, 1.0), x(10);
  EXPECT_FALSE(session.serving());
  try {
    session.solve(b.data(), x.data());
    FAIL() << "Session::solve without factors must throw";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::NotFactorized);
    EXPECT_NE(e.report().detail.find("Session::solve"), std::string::npos);
  }
}

TEST(SessionTest, ServesAcrossSteps) {
  const CscMatrix a1 = sparse::laplacian_3d(8, 8, 8);
  const CscMatrix a2 = step_values(a1, 2.0, 0.1);
  Session session(small_problem_options(Strategy::MinimalMemory,
                                        lr::CompressionKind::Rrqr,
                                        core::Scheduling::RightLooking));
  session.refactorize(a1);
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_TRUE(session.serving());

  const auto b = seeded_rhs(a1.rows(), 11);
  std::vector<real_t> x;
  const core::SolveStats st1 = session.solve(b, x);
  EXPECT_EQ(st1.factor_epoch, 1u);
  EXPECT_GE(st1.batch_size, 1);
  EXPECT_GE(st1.solve_seconds, 0.0);
  EXPECT_LT(sparse::backward_error(a1, x.data(), b.data()), 1e-8 * 500);

  session.refactorize(a2);
  EXPECT_EQ(session.epoch(), 2u);
  EXPECT_EQ(session.stats().refactorizations, 1u);
  const core::SolveStats st2 = session.solve(b, x);
  EXPECT_EQ(st2.factor_epoch, 2u);
  EXPECT_LT(sparse::backward_error(a2, x.data(), b.data()), 1e-8 * 500);
}

// Concurrent solves, coalesced or not, must be bit-identical to serial
// single-RHS solves of the same requests (each blocked-solve column is
// bit-identical to its single-RHS solve — the PR 8 multi-RHS contract).
TEST(SessionTest, ConcurrentSolvesMatchSerialBitwise) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  const SolverOptions opts = small_problem_options(
      Strategy::JustInTime, lr::CompressionKind::Rrqr,
      core::Scheduling::RightLooking);
  const int kRequests = 16;

  // Serial reference.
  Solver reference(opts);
  reference.factorize(a);
  std::vector<std::vector<real_t>> want;
  for (int r = 0; r < kRequests; ++r) {
    want.push_back(reference.solve(seeded_rhs(a.rows(), 100 + r)));
  }

  Session session(opts);
  session.refactorize(a);
  std::vector<std::vector<real_t>> got(kRequests);
  std::vector<core::SolveStats> stats(kRequests);
  {
    std::vector<std::thread> threads;
    threads.reserve(kRequests);
    for (int r = 0; r < kRequests; ++r) {
      threads.emplace_back([&, r] {
        const auto b = seeded_rhs(a.rows(), 100 + r);
        stats[r] = session.solve(b, got[r]);
      });
    }
    for (auto& t : threads) t.join();
  }
  for (int r = 0; r < kRequests; ++r) {
    ASSERT_EQ(got[r].size(), want[r].size());
    for (std::size_t i = 0; i < want[r].size(); ++i) {
      ASSERT_EQ(got[r][i], want[r][i]) << "request " << r << " component " << i;
    }
    EXPECT_EQ(stats[r].factor_epoch, 1u);
    EXPECT_GE(stats[r].batch_size, 1);
    EXPECT_LE(stats[r].batch_size, opts.session_max_batch);
  }
}

// Solves racing a refactorize: every answer must match the serial answer of
// whichever epoch's factors served it.
TEST(SessionTest, SolvesDuringRefactorizeServeAConsistentEpoch) {
  const CscMatrix a1 = sparse::laplacian_3d(8, 8, 8);
  const CscMatrix a2 = step_values(a1, 1.5, 0.2);
  const CscMatrix a3 = step_values(a1, 0.5, 0.7);
  SolverOptions opts = small_problem_options(
      Strategy::MinimalMemory, lr::CompressionKind::Rrqr,
      core::Scheduling::LeftLooking);
  // Bitwise comparison against cold references: see WarmMatchesColdBitwise.
  opts.warm_dense_skip = false;
  const std::vector<const CscMatrix*> steps = {&a1, &a2, &a3};

  const auto b = seeded_rhs(a1.rows(), 42);
  // Warm passes are bitwise-identical to cold ones (pinned above), so cold
  // per-epoch references are valid expectations here.
  std::vector<std::vector<real_t>> ref;
  for (const CscMatrix* m : steps) {
    Solver s(opts);
    s.factorize(*m);
    ref.push_back(s.solve(b));
  }

  Session session(opts);
  session.refactorize(a1);
  std::vector<std::thread> solvers;
  std::vector<std::string> errors(4);
  for (int t = 0; t < 4; ++t) {
    solvers.emplace_back([&, t] {
      std::vector<real_t> x;
      for (int it = 0; it < 25; ++it) {
        const core::SolveStats st = session.solve(b, x);
        const auto& expect = ref[static_cast<std::size_t>(st.factor_epoch - 1)];
        for (std::size_t i = 0; i < expect.size(); ++i) {
          if (x[i] != expect[i]) {
            errors[static_cast<std::size_t>(t)] =
                "mismatch vs epoch " + std::to_string(st.factor_epoch);
            return;
          }
        }
      }
    });
  }
  session.refactorize(a2);
  session.refactorize(a3);
  for (auto& t : solvers) t.join();
  for (const std::string& e : errors) EXPECT_TRUE(e.empty()) << e;
  EXPECT_EQ(session.epoch(), 3u);
}

// Warm steps under load still recycle the displaced factors' storage: with
// clients solving continuously, a blocked solve is almost always holding the
// previous factors when a refactorize() swaps them out, so the session
// defers the donation until that solve has released them.
TEST(SessionTest, BufferPoolHitsWithConcurrentClients) {
  const CscMatrix a0 = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_problem_options(
      Strategy::JustInTime, lr::CompressionKind::Rrqr,
      core::Scheduling::RightLooking);
  ASSERT_TRUE(opts.reuse_buffers);
  Session session(opts);
  session.refactorize(a0);

  const auto b = seeded_rhs(a0.rows(), 17);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> solves{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      std::vector<real_t> x;
      while (!stop.load(std::memory_order_relaxed)) {
        session.solve(b, x);
        solves.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  constexpr int kWarmSteps = 4;
  for (int s = 1; s <= kWarmSteps; ++s) {
    // Let the clients get a blocked solve in flight before each swap.
    const std::uint64_t seen = solves.load();
    while (solves.load() < seen + 3) std::this_thread::yield();
    session.refactorize(step_values(a0, real_t(1) + real_t(0.1) * s,
                                    real_t(0.05) * s));
  }
  stop.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(session.epoch(), static_cast<std::uint64_t>(kWarmSteps + 1));
  EXPECT_GT(session.stats().buffer_hits, 0u);
}

// A governor budget breach mid-refactorize throws out of refactorize() and
// leaves the session serving the previous factors, bit-for-bit.
TEST(SessionTest, BudgetBreachMidRefactorizeKeepsServing) {
  const CscMatrix a1 = sparse::laplacian_3d(8, 8, 8);
  const CscMatrix a2 = step_values(a1, 2.0, 0.1);
  SolverOptions opts = small_problem_options(
      Strategy::JustInTime, lr::CompressionKind::Rrqr,
      core::Scheduling::RightLooking);
  // Injected budget breach aimed at the SECOND numeric pass: the first
  // arming opportunity is swallowed, the next pass arms and breaches.
  opts.fault.kind = core::FaultInjection::Kind::AllocFail;
  opts.fault.at_bytes = 1 << 16;
  opts.fault.skip_triggers = 1;
  opts.fault.max_triggers = 1;

  Session session(opts);
  session.refactorize(a1);  // clean: arming skipped
  const auto b = seeded_rhs(a1.rows(), 8);
  std::vector<real_t> x_before;
  session.solve(b, x_before);

  EXPECT_THROW(session.refactorize(a2), ResourceError);

  // Same epoch, same factors, same bits.
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_TRUE(session.serving());
  std::vector<real_t> x_after;
  const core::SolveStats st = session.solve(b, x_after);
  EXPECT_EQ(st.factor_epoch, 1u);
  for (std::size_t i = 0; i < x_before.size(); ++i) {
    ASSERT_EQ(x_before[i], x_after[i]);
  }

  // The fault budget is exhausted: the retry succeeds and switches over.
  session.refactorize(a2);
  EXPECT_EQ(session.epoch(), 2u);
  std::vector<real_t> x2;
  session.solve(b, x2);
  EXPECT_LT(sparse::backward_error(a2, x2.data(), b.data()), 1e-8 * 500);
}

} // namespace
