// Breakdown-path tests: structured failure reports, deterministic fault
// injection, cooperative cancellation of the parallel scheduler, and the
// recovery ladder.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>

#include "blr.hpp"

namespace {

using namespace blr;
using core::FaultInjection;
using core::RecoveryStep;
using sparse::CscMatrix;

std::vector<real_t> random_rhs(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.normal();
  return b;
}

/// Small-problem options so the BLR machinery engages on test matrices.
SolverOptions small_opts() {
  SolverOptions opts;
  opts.compress_min_width = 16;
  opts.compress_min_height = 8;
  opts.split.split_threshold = 64;
  opts.split.split_size = 32;
  return opts;
}

/// -A for an SPD A: symmetric pattern, negative definite values, so LLᵗ
/// breaks down at the very first pivot while LU factorizes cleanly.
CscMatrix negated(const CscMatrix& a) {
  CscMatrix out = a;
  for (auto& v : out.values()) v = -v;
  out.set_symmetry(sparse::Symmetry::SymmetricValues);
  return out;
}

/// A with row and column j zeroed (pattern kept): structurally singular.
CscMatrix zero_row_col(const CscMatrix& a, index_t j0) {
  CscMatrix out = a;
  const auto& colptr = out.colptr();
  const auto& rowind = out.rowind();
  auto& values = out.values();
  for (index_t j = 0; j < out.cols(); ++j) {
    for (index_t p = colptr[static_cast<std::size_t>(j)];
         p < colptr[static_cast<std::size_t>(j) + 1]; ++p) {
      if (j == j0 || rowind[static_cast<std::size_t>(p)] == j0)
        values[static_cast<std::size_t>(p)] = 0;
    }
  }
  out.set_symmetry(sparse::Symmetry::General);
  return out;
}

// ---------------------------------------------------------------------------
// Fault kinds x {sequential, 4-thread work-stealing} x {right, left-looking}
// ---------------------------------------------------------------------------

struct Mode {
  int threads;
  core::Scheduling scheduling;
  Strategy strategy;  ///< the policy every fault fires under
};

class FaultModeTest : public ::testing::TestWithParam<Mode> {
protected:
  SolverOptions opts_for_mode() {
    SolverOptions opts = small_opts();
    opts.threads = GetParam().threads;
    opts.scheduling = GetParam().scheduling;
    opts.strategy = GetParam().strategy;
    return opts;
  }
};

TEST_P(FaultModeTest, TinyPivotReportsSupernodeAndPivot) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = opts_for_mode();
  opts.factorization = Factorization::Lu;  // deterministic ZeroPivot kind
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 0;
  Solver solver(opts);

  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    const FailureReport& r = e.report();
    EXPECT_EQ(r.kind, FailureKind::ZeroPivot);
    EXPECT_EQ(r.supernode, 0);
    EXPECT_EQ(r.local_pivot, 0);
    EXPECT_EQ(r.pivot_magnitude, 0.0);
    EXPECT_EQ(r.factorization, "LU");
    EXPECT_EQ(r.strategy, "Just-In-Time");
    EXPECT_EQ(r.attempt, 0);
    EXPECT_NE(e.what(), std::string());
    // The message embeds the structured fields.
    EXPECT_NE(std::string(e.what()).find("zero-pivot"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("supernode 0"), std::string::npos);
  }

  // A failed factorize must not leave stale factors behind.
  EXPECT_FALSE(solver.factorized());
  EXPECT_EQ(solver.pool_pending(), 0u);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0), x(b.size());
  EXPECT_THROW(solver.solve(b.data(), x.data()), Error);

  // The fault budget (max_triggers = 1) is consumed: the same solver — and
  // for parallel modes the same cancelled-and-reset pool — factorizes
  // cleanly on the next call.
  solver.factorize(a);
  EXPECT_TRUE(solver.factorized());
  const auto rhs = random_rhs(a.rows(), 42);
  solver.solve(rhs.data(), x.data());
  EXPECT_LT(sparse::backward_error(a, x.data(), rhs.data()), 1e-5);
  EXPECT_EQ(opts.fault.fired(), 1);  // shared across the solver's copy
}

TEST_P(FaultModeTest, PoisonedBlockIsCaughtByAssemblyGuard) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = opts_for_mode();
  opts.fault.kind = FaultInjection::Kind::PoisonBlock;
  opts.fault.supernode = 2;
  Solver solver(opts);

  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::NonFiniteBlock);
    EXPECT_EQ(e.report().supernode, 2);
  }
  EXPECT_FALSE(solver.factorized());
  EXPECT_EQ(solver.pool_pending(), 0u);

  solver.factorize(a);  // budget consumed -> clean
  EXPECT_TRUE(solver.factorized());
}

TEST_P(FaultModeTest, CompressionFailureIsStructured) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = opts_for_mode();
  opts.fault.kind = FaultInjection::Kind::CompressionFail;
  opts.fault.index = 0;  // first compression site
  Solver solver(opts);

  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::CompressionFailure);
    EXPECT_GE(e.report().supernode, 0);
  }
  EXPECT_FALSE(solver.factorized());
  EXPECT_EQ(solver.pool_pending(), 0u);

  solver.factorize(a);
  EXPECT_TRUE(solver.factorized());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FaultModeTest,
    ::testing::Values(
        Mode{1, core::Scheduling::RightLooking, Strategy::JustInTime},
        Mode{4, core::Scheduling::RightLooking, Strategy::JustInTime},
        Mode{1, core::Scheduling::LeftLooking, Strategy::JustInTime},
        Mode{4, core::Scheduling::LeftLooking, Strategy::JustInTime}),
    [](const ::testing::TestParamInfo<Mode>& info) {
      std::string s =
          info.param.threads == 1 ? "Sequential" : "ParallelWorkStealing";
      if (info.param.scheduling == core::Scheduling::LeftLooking)
        s += "LeftLooking";
      return s;
    });

/// The supernode the scheduler starts first. Initially-ready leaves are
/// submitted in ascending index order and the injection heap pops the
/// highest critical-path priority (FIFO tie-break), so the first task is
/// the priority argmax (a leaf: chain costs strictly decrease toward the
/// root).
index_t first_scheduled_supernode(const CscMatrix& a, SolverOptions opts) {
  opts.threads = 1;
  Solver probe(opts);
  probe.analyze(a);
  const auto& prio = probe.symbolic().critical_priorities();
  return static_cast<index_t>(std::max_element(prio.begin(), prio.end()) -
                              prio.begin());
}

// The structured report of a deterministic (sequential) breakdown must not
// depend on the driver: the one-thread left-looking run visits supernodes
// and compression sites in the barrier's order, so every field matches the
// barrier run's report exactly.
TEST(LeftLookingBreakdown, SequentialFaultReportsMatchBarrier) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  const FaultInjection::Kind kinds[] = {FaultInjection::Kind::TinyPivot,
                                        FaultInjection::Kind::PoisonBlock,
                                        FaultInjection::Kind::CompressionFail};
  for (const auto kind : kinds) {
    FailureReport reports[2];
    for (const core::Scheduling sc :
         {core::Scheduling::RightLooking, core::Scheduling::LeftLooking}) {
      SolverOptions opts = small_opts();
      opts.strategy = Strategy::JustInTime;
      opts.factorization = Factorization::Lu;
      opts.scheduling = sc;
      opts.fault.kind = kind;
      if (kind == FaultInjection::Kind::CompressionFail) {
        opts.fault.index = 2;  // third compression site
      } else {
        opts.fault.supernode = 2;
      }
      Solver solver(opts);
      try {
        solver.factorize(a);
        FAIL() << "expected NumericalError";
      } catch (const NumericalError& e) {
        reports[sc == core::Scheduling::LeftLooking] = e.report();
      }
      EXPECT_FALSE(solver.factorized());
    }
    EXPECT_EQ(reports[0].kind, reports[1].kind);
    EXPECT_EQ(reports[0].supernode, reports[1].supernode);
    EXPECT_EQ(reports[0].local_pivot, reports[1].local_pivot);
    EXPECT_EQ(reports[0].strategy, reports[1].strategy);
    EXPECT_EQ(reports[0].factorization, reports[1].factorization);
    EXPECT_EQ(reports[0].detail, reports[1].detail);
    // Every rendered field but the wall time matches.
    reports[1].elapsed_seconds = reports[0].elapsed_seconds;
    EXPECT_EQ(reports[0].to_string(), reports[1].to_string());
  }
}

// A left-looking breakdown must cancel everything still queued: no pull
// leaks past ThreadPool::cancel, the pool drains idle, and the very same
// solver (same pool) factorizes cleanly afterwards.
TEST(LeftLookingBreakdown, BreakdownCancelsOutstandingPulls) {
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Lu;
  opts.threads = 4;
  opts.scheduling = core::Scheduling::LeftLooking;
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = first_scheduled_supernode(a, opts);
  Solver solver(opts);

  EXPECT_THROW(solver.factorize(a), NumericalError);
  EXPECT_EQ(solver.pool_pending(), 0u);
  const SolverStats& st = solver.stats();
  ASSERT_GT(st.num_cblks, 40) << "test matrix too small to be meaningful";
  // The failing pull stops the run: the targets it would release are never
  // submitted (and anything already queued drains discarded), so far fewer
  // pulls ran than supernodes exist. Whether the pool's queue held tasks at
  // cancel time is a race, so the suppression is asserted on the release
  // layer — some pulls were never enqueued at all — not on the discard
  // counter.
  EXPECT_LT(st.scheduler_tasks, static_cast<std::uint64_t>(st.num_cblks) / 2);
  EXPECT_LT(st.scheduler_tasks + st.scheduler_discarded,
            static_cast<std::uint64_t>(st.num_cblks));

  // The pool survives: the consumed fault budget lets the same solver
  // factorize and solve cleanly, with no task discarded this time.
  solver.factorize(a);
  EXPECT_TRUE(solver.factorized());
  EXPECT_EQ(solver.pool_pending(), 0u);
  EXPECT_EQ(solver.stats().scheduler_discarded, 0u);
  const auto b = random_rhs(a.rows(), 5);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-5);
}

// The recovery ladder must behave identically when the failing attempt runs
// left-looking: same rung sequence, same effective configuration, same
// result.
TEST(LeftLookingBreakdown, RecoveryLadderMatchesBarrier) {
  const CscMatrix a = negated(sparse::laplacian_3d(6, 6, 6));
  std::vector<SolverStats> stats;
  for (const core::Scheduling sc :
       {core::Scheduling::RightLooking, core::Scheduling::LeftLooking}) {
    SolverOptions opts = small_opts();
    opts.strategy = Strategy::JustInTime;
    opts.factorization = Factorization::Llt;
    opts.scheduling = sc;
    opts.recovery.enabled = true;  // default ladder
    Solver solver(opts);
    solver.factorize(a);
    EXPECT_TRUE(solver.factorized());
    EXPECT_FALSE(solver.is_llt());
    stats.push_back(solver.stats());
  }
  ASSERT_EQ(stats[0].attempts.size(), stats[1].attempts.size());
  for (std::size_t i = 0; i < stats[0].attempts.size(); ++i) {
    EXPECT_EQ(stats[0].attempts[i].action, stats[1].attempts[i].action);
    EXPECT_EQ(stats[0].attempts[i].strategy, stats[1].attempts[i].strategy);
    EXPECT_EQ(stats[0].attempts[i].succeeded, stats[1].attempts[i].succeeded);
    EXPECT_EQ(stats[0].attempts[i].llt, stats[1].attempts[i].llt);
    EXPECT_EQ(stats[0].attempts[i].tolerance, stats[1].attempts[i].tolerance);
  }
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

TEST(CancellationTest, BreakdownCancelsOutstandingWork) {
  // Plenty of supernodes, one elimination task each (panel splitting off),
  // with the fault at the first leaf the scheduler picks: the breakdown
  // fires immediately and the cancelled pool must drain the queued
  // eliminations instead of running them.
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Lu;
  opts.threads = 4;
  opts.panel_split_rows = 0;  // task count == elimination count
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = first_scheduled_supernode(a, opts);
  Solver solver(opts);

  EXPECT_THROW(solver.factorize(a), NumericalError);
  EXPECT_EQ(solver.pool_pending(), 0u);

  const SolverStats& st = solver.stats();
  ASSERT_GT(st.num_cblks, 40) << "test matrix too small to be meaningful";
  // (a) far fewer eliminations executed than supernodes exist,
  // (b) queued work was discarded unrun.
  EXPECT_LT(st.scheduler_tasks, static_cast<std::uint64_t>(st.num_cblks) / 2);
  EXPECT_GT(st.scheduler_discarded, 0u);
  // Nothing ran twice: executed + discarded never exceeds the submissions
  // possible (every supernode is submitted at most once).
  EXPECT_LE(st.scheduler_tasks + st.scheduler_discarded,
            static_cast<std::uint64_t>(st.num_cblks));

  // Per-worker counters are consistent with the aggregate.
  std::uint64_t discarded = 0;
  for (const auto& ws : solver.worker_stats()) discarded += ws.discarded;
  EXPECT_EQ(discarded, st.scheduler_discarded);

  // The pool survives cancellation: the consumed fault budget lets the same
  // solver factorize and solve cleanly.
  solver.factorize(a);
  const auto b = random_rhs(a.rows(), 7);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-5);
  EXPECT_EQ(solver.stats().scheduler_discarded, 0u);
}

// ---------------------------------------------------------------------------
// Inherent (non-injected) breakdowns
// ---------------------------------------------------------------------------

TEST(Breakdown, NonSpdMatrixForcedToLltReportsNonPositivePivot) {
  const CscMatrix a = negated(sparse::laplacian_3d(6, 6, 6));
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::Dense;
  opts.factorization = Factorization::Llt;
  Solver solver(opts);

  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::NonPositivePivot);
    EXPECT_GE(e.report().supernode, 0);
    EXPECT_GE(e.report().local_pivot, 0);
    EXPECT_EQ(e.report().factorization, "LLt");
  }
  EXPECT_FALSE(solver.factorized());
}

TEST(Breakdown, StructurallySingularLuReportsZeroPivot) {
  const CscMatrix base = sparse::laplacian_2d(16, 16);
  const CscMatrix a = zero_row_col(base, base.rows() / 2);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::Dense;
  opts.factorization = Factorization::Lu;
  opts.pivot_threshold = 0;  // no static pivoting: the zero pivot must throw
  Solver solver(opts);

  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::ZeroPivot);
    EXPECT_GE(e.report().supernode, 0);
    EXPECT_EQ(e.report().pivot_magnitude, 0.0);
  }
}

TEST(Breakdown, NonFiniteInputIsRejectedBeforeFactorization) {
  CscMatrix a = sparse::laplacian_2d(8, 8);
  a.values()[3] = std::numeric_limits<real_t>::quiet_NaN();
  Solver solver(small_opts());
  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::NonFiniteInput);
  }
}

// ---------------------------------------------------------------------------
// Guards on the solve path
// ---------------------------------------------------------------------------

TEST(Breakdown, SolveBeforeFactorizeThrowsClearError) {
  Solver solver;
  std::vector<real_t> b(10, 1.0), x(10);
  try {
    solver.solve(b.data(), x.data());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("factorize()"), std::string::npos);
  }
  EXPECT_THROW(solver.preconditioner(), Error);
  EXPECT_THROW((void)solver.solve(b), Error);
}

// ---------------------------------------------------------------------------
// Recovery ladder
// ---------------------------------------------------------------------------

TEST(Recovery, TransientFaultRetriesAndMatchesCleanDenseRun) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  const auto b = random_rhs(a.rows(), 11);

  // Clean Dense reference.
  SolverOptions dense = small_opts();
  dense.strategy = Strategy::Dense;
  Solver ref(dense);
  ref.factorize(a);
  std::vector<real_t> xref(b.size());
  ref.solve(b.data(), xref.data());
  const real_t err_ref = sparse::backward_error(a, xref.data(), b.data());

  // Parallel JIT run with a transient tiny pivot and a dense-fallback rung:
  // attempt 0 breaks down, attempt 1 re-runs as Dense (fault consumed).
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Lu;  // deterministic zero-pivot kind
  opts.threads = 4;
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 0;
  opts.fault.max_triggers = 1;
  opts.recovery.enabled = true;
  RecoveryStep fallback;
  fallback.action = RecoveryStep::Action::DenseFallback;
  opts.recovery.ladder = {fallback};
  Solver solver(opts);

  solver.factorize(a);  // no throw: the ladder absorbed the breakdown
  EXPECT_TRUE(solver.factorized());

  const SolverStats& st = solver.stats();
  ASSERT_EQ(st.attempts.size(), 2u);
  EXPECT_FALSE(st.attempts[0].succeeded);
  EXPECT_NE(st.attempts[0].error.find("zero-pivot"), std::string::npos);
  EXPECT_TRUE(st.attempts[1].succeeded);
  EXPECT_EQ(st.attempts[1].action, "dense-fallback");
  EXPECT_EQ(st.attempts[1].strategy, "Dense");

  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  const real_t err = sparse::backward_error(a, x.data(), b.data());
  // The retry ran the same clean Dense factorization the reference did.
  EXPECT_LT(err, 1e-12);
  EXPECT_LT(err, err_ref * 100 + 1e-14);
}

TEST(Recovery, DefaultLadderWalksToStaticPivotingForLltBreakdown) {
  // -Laplacian forced to LLᵗ is a persistent breakdown: tightening τ cannot
  // help, so the ladder must climb to static pivoting, which re-runs as LU
  // and succeeds.
  const CscMatrix a = negated(sparse::laplacian_3d(6, 6, 6));
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Llt;
  opts.recovery.enabled = true;  // empty ladder -> default_ladder()
  Solver solver(opts);

  solver.factorize(a);
  EXPECT_TRUE(solver.factorized());
  EXPECT_FALSE(solver.is_llt());

  const SolverStats& st = solver.stats();
  ASSERT_EQ(st.attempts.size(), 3u);  // initial, tighten-tolerance, static-pivoting
  EXPECT_FALSE(st.attempts[0].succeeded);
  EXPECT_EQ(st.attempts[1].action, "tighten-tolerance");
  EXPECT_FALSE(st.attempts[1].succeeded);
  EXPECT_EQ(st.attempts[2].action, "static-pivoting");
  EXPECT_TRUE(st.attempts[2].succeeded);
  EXPECT_FALSE(st.attempts[2].llt);

  const auto b = random_rhs(a.rows(), 3);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-5);
}

TEST(Recovery, ExhaustedLadderRethrowsWithAttemptCount) {
  // An unlimited-trigger fault defeats every rung: the final throw carries
  // the attempt index of the last try and stats record every attempt.
  const CscMatrix a = sparse::laplacian_3d(6, 6, 6);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Lu;
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 0;
  opts.fault.max_triggers = -1;  // never consumed
  opts.recovery.enabled = true;
  RecoveryStep tighten;  // a rung that cannot cure an injected zero pivot
  tighten.action = RecoveryStep::Action::TightenTolerance;
  opts.recovery.ladder = {tighten};
  Solver solver(opts);

  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().attempt, 1);
    EXPECT_NE(std::string(e.what()).find("attempt 1"), std::string::npos);
  }
  EXPECT_FALSE(solver.factorized());
  const SolverStats& st = solver.stats();
  ASSERT_EQ(st.attempts.size(), 2u);
  EXPECT_FALSE(st.attempts[0].succeeded);
  EXPECT_FALSE(st.attempts[1].succeeded);
}

TEST(Recovery, PrintSummaryListsAttempts) {
  const CscMatrix a = sparse::laplacian_3d(6, 6, 6);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Lu;
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 0;
  opts.recovery.enabled = true;
  Solver solver(opts);
  solver.factorize(a);

  std::ostringstream os;
  solver.print_summary(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("recovery"), std::string::npos);
  EXPECT_NE(s.find("[initial]"), std::string::npos);
  EXPECT_NE(s.find("[tighten-tolerance]"), std::string::npos);
}

} // namespace
