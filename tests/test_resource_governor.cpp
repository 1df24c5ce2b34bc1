// Resource-governance tests (DESIGN.md §13): memory budgets enforced by the
// soft-failing MemoryTracker, the wall-clock deadline watchdog, injected
// allocation failures and clock skew, the resource degradation ladder, and
// the per-attempt counter capture. Labelled `resource` so the CI sanitizer
// stages (ASan/TSan) pick the whole file up.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "blr.hpp"

namespace {

using namespace blr;
using core::FaultInjection;
using core::RecoveryStep;
using sparse::CscMatrix;

/// Small-problem options so the BLR machinery engages on test matrices.
SolverOptions small_opts() {
  SolverOptions opts;
  opts.compress_min_width = 16;
  opts.compress_min_height = 8;
  opts.split.split_threshold = 64;
  opts.split.split_size = 32;
  return opts;
}

std::vector<real_t> random_rhs(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.normal();
  return b;
}

/// ||b - A x||_inf — sanity check that a degraded (governed) factorization
/// still produces a usable solve.
double residual_inf(const CscMatrix& a, const std::vector<real_t>& x,
                    const std::vector<real_t>& b) {
  std::vector<real_t> ax(b.size());
  a.spmv(x.data(), ax.data());
  double r = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    r = std::max(r, std::abs(static_cast<double>(b[i] - ax[i])));
  }
  return r;
}

/// Peak of one ungoverned run under `opts` (for runtime budget calibration:
/// absolute byte counts vary with splitting and compression decisions, so
/// the budgets below are derived from a measured baseline, never hardcoded).
std::size_t measured_peak(const CscMatrix& a, const SolverOptions& opts) {
  Solver solver(opts);
  solver.factorize(a);
  return solver.stats().total_peak_bytes;
}

// ---------------------------------------------------------------------------
// MemoryTracker / TileArena peak tracking under contention (TSan target)
// ---------------------------------------------------------------------------

TEST(TrackerConcurrency, PeaksAreRaceFreeAndExact) {
  auto& t = MemoryTracker::instance();
  t.reset();
  lr::TileArena arena(MemCategory::Workspace);

  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  constexpr std::size_t kBlock = 64;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        t.allocate(MemCategory::Factors, kBlock);
        arena.charge(kBlock);
        arena.discharge(kBlock);
        t.release(MemCategory::Factors, kBlock);
      }
    });
  }
  for (auto& w : workers) w.join();

  // Everything released: live counters drain to zero.
  EXPECT_EQ(t.current(MemCategory::Factors), 0u);
  EXPECT_EQ(t.current_total(), 0u);
  EXPECT_EQ(arena.bytes(), 0u);
  // CAS-max peaks: at least one holder's block, at most all concurrent
  // holders, and never below the final live value.
  EXPECT_GE(t.peak(MemCategory::Factors), kBlock);
  EXPECT_LE(t.peak(MemCategory::Factors), kThreads * kBlock);
  EXPECT_GE(arena.peak(), kBlock);
  EXPECT_LE(arena.peak(), kThreads * kBlock);
  t.reset();
}

TEST(TrackerBudget, RollbackKeepsPeakUnderBudget) {
  auto& t = MemoryTracker::instance();
  t.reset();
  t.set_budget(1000);
  t.allocate(MemCategory::Factors, 800);
  EXPECT_THROW(t.allocate(MemCategory::Factors, 300), ResourceError);
  // The refused request was rolled back before any peak update.
  EXPECT_EQ(t.current_total(), 800u);
  EXPECT_EQ(t.peak_total(), 800u);
  // A fitting request still proceeds after the refusal.
  t.allocate(MemCategory::Workspace, 150);
  EXPECT_EQ(t.current_total(), 950u);
  t.release(MemCategory::Workspace, 150);
  t.release(MemCategory::Factors, 800);
  t.reset();
}

TEST(TrackerBudget, ReportCarriesStructuredBreach) {
  auto& t = MemoryTracker::instance();
  t.reset();
  t.set_budget(512);
  t.allocate(MemCategory::Factors, 256);
  try {
    t.allocate(MemCategory::Workspace, 400);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    const ResourceReport& r = e.report();
    EXPECT_EQ(r.kind, ResourceKind::MemoryBudget);
    EXPECT_EQ(r.budget_bytes, 512u);
    EXPECT_EQ(r.requested_bytes, 400u);
    EXPECT_EQ(r.category, MemCategory::Workspace);
    EXPECT_EQ(r.live_bytes[static_cast<std::size_t>(MemCategory::Factors)],
              256u);
    EXPECT_FALSE(r.injected);
    EXPECT_NE(r.to_string().find("memory-budget"), std::string::npos);
  }
  t.release(MemCategory::Factors, 256);
  t.reset();
}

// ---------------------------------------------------------------------------
// Budget grid: tight-but-feasible and infeasible budgets across execution
// modes (sequential / 4-thread work-stealing x right / left-looking)
// ---------------------------------------------------------------------------

struct GovMode {
  int threads;
  core::Scheduling scheduling;
  Strategy strategy;
};

class BudgetModeTest : public ::testing::TestWithParam<GovMode> {
protected:
  SolverOptions opts_for_mode() {
    SolverOptions opts = small_opts();
    opts.threads = GetParam().threads;
    opts.scheduling = GetParam().scheduling;
    opts.strategy = GetParam().strategy;
    return opts;
  }
};

TEST_P(BudgetModeTest, FeasibleBudgetSucceedsWithinBudget) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions opts = opts_for_mode();
  const std::size_t peak = measured_peak(a, opts);
  ASSERT_GT(peak, 0u);

  // Parallel runs get more headroom: their peak varies with the overlap the
  // schedule happens to achieve, and the budget must stay feasible.
  opts.memory_budget_bytes = GetParam().threads > 1 ? peak * 2 : peak + peak / 4;
  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  EXPECT_LE(solver.stats().total_peak_bytes, opts.memory_budget_bytes);
  EXPECT_EQ(solver.stats().memory_budget_bytes, opts.memory_budget_bytes);

  const std::vector<real_t> b = random_rhs(a.rows(), 42);
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_LT(residual_inf(a, x, b), 1e-4);
}

TEST_P(BudgetModeTest, InfeasibleBudgetFailsSoftlyAndSurvives) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions opts = opts_for_mode();
  opts.memory_budget_bytes = 64 * 1024;  // far below any feasible run

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    const ResourceReport& r = e.report();
    EXPECT_EQ(r.kind, ResourceKind::MemoryBudget);
    EXPECT_EQ(r.budget_bytes, opts.memory_budget_bytes);
    EXPECT_LE(r.peak_bytes, opts.memory_budget_bytes);
    EXPECT_FALSE(r.injected);
  }
  EXPECT_FALSE(solver.factorized());
  EXPECT_EQ(solver.pool_pending(), 0u);

  // "Fail the request, never the process": the same process factorizes
  // ungoverned right after the refusal (the budget did not leak onto the
  // process-wide tracker).
  SolverOptions clean = opts_for_mode();
  Solver retry(clean);
  retry.factorize(a);
  EXPECT_TRUE(retry.factorized());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BudgetModeTest,
    ::testing::Values(
        GovMode{1, core::Scheduling::RightLooking, Strategy::JustInTime},
        GovMode{1, core::Scheduling::LeftLooking, Strategy::JustInTime},
        GovMode{4, core::Scheduling::RightLooking, Strategy::JustInTime},
        GovMode{4, core::Scheduling::LeftLooking, Strategy::JustInTime}),
    [](const auto& info) {
      std::ostringstream os;
      os << (info.param.threads > 1 ? "ParWS" : "Seq")
         << (info.param.scheduling == core::Scheduling::LeftLooking
                 ? "LeftLooking"
                 : "Barrier");
      return os.str();
    });

TEST(BudgetRegime, BelowDenseAboveBlrSucceeds) {
  // The paper's headline claim, governed: a budget the dense factors would
  // NOT fit but the BLR run does. Needs a problem large enough for the
  // Minimal-Memory peak to drop visibly below the dense footprint
  // (laplacian_3d(24) at tau=1e-4: peak ~96% of dense).
  const CscMatrix a = sparse::laplacian_3d(24, 24, 24);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::MinimalMemory;
  opts.tolerance = 1e-4;

  Solver probe(opts);
  probe.factorize(a);
  const std::size_t dense_bytes =
      probe.stats().factor_entries_dense * sizeof(real_t);
  const std::size_t blr_peak = probe.stats().total_peak_bytes;
  ASSERT_LT(blr_peak, dense_bytes)
      << "calibration: the BLR peak must undercut the dense footprint here";

  opts.memory_budget_bytes = (dense_bytes + blr_peak) / 2;
  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  EXPECT_LE(solver.stats().total_peak_bytes, opts.memory_budget_bytes);
  EXPECT_LT(opts.memory_budget_bytes, dense_bytes);
}

// ---------------------------------------------------------------------------
// Engine scratch: the grouped updates' panel images and gather buffers
// (DESIGN.md §9, §13) are Workspace owned by one factorize()/refactorize()
// call
// ---------------------------------------------------------------------------

TEST(EngineScratch, ReleasedAfterColdAndWarmPasses) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  const MemoryTracker& t = MemoryTracker::instance();
  struct Run {
    core::Scheduling scheduling;
    int threads;
  };
  // The left-looking runs also hold the permuted input (Workspace) until
  // their lazy assembly is over; it must not outlive the call either.
  for (const Run r : {Run{core::Scheduling::RightLooking, 2},
                      Run{core::Scheduling::LeftLooking, 1},
                      Run{core::Scheduling::LeftLooking, 2}}) {
    SCOPED_TRACE(std::string(r.scheduling == core::Scheduling::LeftLooking
                                 ? "left-looking"
                                 : "right-looking") +
                 " threads=" + std::to_string(r.threads));
    SolverOptions opts = small_opts();
    opts.strategy = Strategy::Dense;
    opts.scheduling = r.scheduling;
    opts.threads = r.threads;
    opts.reuse_buffers = false;  // no pooled buffers: Workspace is scratch only

    Solver solver(opts);
    solver.factorize(a);
    // Every panel was packed into an image, so the Workspace peak covers at
    // least the largest dense panel; none of it outlives the call.
    std::size_t largest_panel = 0;
    for (const symbolic::Cblk& c : solver.symbolic().cblks()) {
      largest_panel = std::max(largest_panel,
                               static_cast<std::size_t>(c.height()) *
                                   static_cast<std::size_t>(c.width()) *
                                   sizeof(real_t));
    }
    ASSERT_GT(largest_panel, 0u);
    EXPECT_GE(t.peak(MemCategory::Workspace), largest_panel);
    EXPECT_EQ(t.current(MemCategory::Workspace), 0u);

    solver.refactorize(a);
    EXPECT_EQ(solver.stats().refactorizations, 1u);
    EXPECT_GE(t.peak(MemCategory::Workspace), largest_panel);
    EXPECT_EQ(t.current(MemCategory::Workspace), 0u);
  }
}

TEST(EngineScratch, BudgetJustAboveMeasuredPeakHolds) {
  // Sequential runs allocate deterministically, so a budget a page above
  // the measured tracked peak — scratch included — must succeed, and the
  // recorded peak must stay within it.
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  for (const Strategy s : {Strategy::Dense, Strategy::JustInTime}) {
    SolverOptions opts = small_opts();
    opts.strategy = s;
    opts.threads = 1;
    const std::size_t peak = measured_peak(a, opts);
    ASSERT_GT(peak, 0u);

    opts.memory_budget_bytes = peak + 4096;
    Solver solver(opts);
    solver.factorize(a);
    ASSERT_TRUE(solver.factorized()) << strategy_name(s);
    EXPECT_LE(solver.stats().total_peak_bytes, opts.memory_budget_bytes)
        << strategy_name(s);
    EXPECT_EQ(solver.stats().total_peak_bytes, peak) << strategy_name(s);
  }
}

// ---------------------------------------------------------------------------
// Injected allocation failures (FaultInjection::Kind::AllocFail)
// ---------------------------------------------------------------------------

TEST(AllocFailInjection, ByteThresholdFiresOnFactors) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.fault.kind = FaultInjection::Kind::AllocFail;
  opts.fault.at_bytes = 1;  // first tracked allocation trips
  opts.fault.alloc_category = static_cast<int>(MemCategory::Factors);

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.report().kind, ResourceKind::MemoryBudget);
    EXPECT_EQ(e.report().category, MemCategory::Factors);
    EXPECT_TRUE(e.report().injected);
  }
  EXPECT_FALSE(solver.factorized());
}

TEST(AllocFailInjection, ByteThresholdFiresOnWorkspace) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;  // compressions allocate workspace
  opts.fault.kind = FaultInjection::Kind::AllocFail;
  opts.fault.at_bytes = 1;
  opts.fault.alloc_category = static_cast<int>(MemCategory::Workspace);

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.report().category, MemCategory::Workspace);
    EXPECT_TRUE(e.report().injected);
  }
}

TEST(AllocFailInjection, UnusedCategoriesNeverFire) {
  // The factorization allocates only Factors and Workspace: a fail point
  // filtered to Symbolic or Other never triggers, and the run completes.
  // This pins the category coverage of the numeric phase.
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  for (const MemCategory cat : {MemCategory::Symbolic, MemCategory::Other}) {
    SolverOptions opts = small_opts();
    opts.fault.kind = FaultInjection::Kind::AllocFail;
    opts.fault.at_bytes = 1;
    opts.fault.alloc_category = static_cast<int>(cat);
    Solver solver(opts);
    EXPECT_NO_THROW(solver.factorize(a));
    EXPECT_TRUE(solver.factorized());
  }
}

TEST(AllocFailInjection, AtSupernodeAssemblyCarriesSupernode) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.fault.kind = FaultInjection::Kind::AllocFail;
  opts.fault.at_bytes = 0;  // target a supernode's assembly instead
  opts.fault.supernode = 3;

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.report().supernode, 3);
    EXPECT_TRUE(e.report().injected);
    EXPECT_EQ(e.report().kind, ResourceKind::MemoryBudget);
  }
}

TEST(AllocFailInjection, TransientFaultRecoversOnRetry) {
  // max_triggers = 1 models a transient failure: the first attempt trips the
  // injected breach, the degradation retry runs clean (the shared trigger
  // budget is already consumed at re-arming time).
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.fault.kind = FaultInjection::Kind::AllocFail;
  opts.fault.at_bytes = 1;
  opts.fault.max_triggers = 1;
  opts.recovery.enabled = true;

  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  const auto& attempts = solver.stats().attempts;
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_FALSE(attempts[0].succeeded);
  EXPECT_TRUE(attempts[0].resource);
  EXPECT_TRUE(attempts[1].succeeded);
  EXPECT_EQ(attempts[1].action, "demote-fp32");
  EXPECT_EQ(solver.stats().resource_rungs, 1);
}

// ---------------------------------------------------------------------------
// Deadlines: injected clock skew (deterministic) and a real expiry
// ---------------------------------------------------------------------------

TEST(Deadline, ClockSkewTripsDeterministicallySequential) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.deadline_ms = 60'000;  // far away: only the injected skew can trip it
  opts.fault.kind = FaultInjection::Kind::ClockSkew;
  opts.fault.supernode = 2;
  opts.recovery.enabled = true;  // deadline must NOT ladder-retry

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.report().kind, ResourceKind::Deadline);
    EXPECT_TRUE(e.report().injected);
    EXPECT_GT(e.report().elapsed_seconds, e.report().deadline_seconds);
  }
  EXPECT_FALSE(solver.factorized());
  // Terminal: one attempt, no rungs climbed against spent wall-clock.
  ASSERT_EQ(solver.stats().attempts.size(), 1u);
  EXPECT_TRUE(solver.stats().attempts[0].resource);
  EXPECT_EQ(solver.stats().resource_rungs, 0);
}

TEST(Deadline, ClockSkewDuringDagDrainsWithoutTaskLeak) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions opts = small_opts();
  opts.threads = 4;
  opts.scheduling = core::Scheduling::LeftLooking;
  // Dense: no compression helper tasks, so every pool task is one pull.
  opts.strategy = Strategy::Dense;
  opts.deadline_ms = 60'000;
  opts.fault.kind = FaultInjection::Kind::ClockSkew;
  opts.fault.supernode = 5;

  Solver solver(opts);
  EXPECT_THROW(solver.factorize(a), ResourceError);
  EXPECT_FALSE(solver.factorized());
  // Cooperative cancellation drained the pulls: nothing still queued, and
  // the supernodes above the breach (the root at least) never ran.
  EXPECT_EQ(solver.pool_pending(), 0u);
  ASSERT_EQ(solver.stats().attempts.size(), 1u);
  const auto& at = solver.stats().attempts[0];
  EXPECT_TRUE(at.resource);
  EXPECT_LT(at.scheduler_tasks + at.scheduler_discarded,
            static_cast<std::uint64_t>(solver.stats().num_cblks));

  // The pool is reusable after the drain.
  SolverOptions clean = small_opts();
  clean.threads = 4;
  clean.scheduling = core::Scheduling::LeftLooking;
  Solver retry(clean);
  retry.factorize(a);
  EXPECT_TRUE(retry.factorized());
}

TEST(Deadline, RealExpiryFailsSoftly) {
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::Dense;
  opts.deadline_ms = 1e-3;  // expires at the first clock read

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.report().kind, ResourceKind::Deadline);
    EXPECT_FALSE(e.report().injected);
  }
  EXPECT_FALSE(solver.factorized());
}

// ---------------------------------------------------------------------------
// The resource degradation ladder
// ---------------------------------------------------------------------------

TEST(ResourceLadder, SwitchToMinMemRescuesTightBudget) {
  // Calibrate a budget that Minimal-Memory fits but Just-In-Time (whose peak
  // includes the not-yet-compressed panels) does not, then let a one-rung
  // ladder walk JIT down to MinMem deterministically.
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions jit = small_opts();
  jit.strategy = Strategy::JustInTime;
  SolverOptions mm = jit;
  mm.strategy = Strategy::MinimalMemory;
  const std::size_t peak_jit = measured_peak(a, jit);
  const std::size_t peak_mm = measured_peak(a, mm);
  ASSERT_LT(peak_mm, peak_jit) << "calibration: MinMem must beat JIT here";
  const std::size_t budget = peak_mm + (peak_jit - peak_mm) / 4;

  SolverOptions opts = jit;
  opts.memory_budget_bytes = budget;
  opts.recovery.enabled = true;
  opts.recovery.resource_ladder.resize(1);
  opts.recovery.resource_ladder[0].action =
      RecoveryStep::Action::SwitchToMinMem;

  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  const auto& attempts = solver.stats().attempts;
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_TRUE(attempts[0].resource);
  EXPECT_FALSE(attempts[0].succeeded);
  EXPECT_EQ(attempts[1].action, "switch-to-minmem");
  EXPECT_EQ(attempts[1].strategy, "Minimal Memory");
  EXPECT_TRUE(attempts[1].succeeded);
  EXPECT_EQ(solver.stats().resource_rungs, 1);
  EXPECT_LE(solver.stats().total_peak_bytes, budget);

  const std::vector<real_t> b = random_rhs(a.rows(), 7);
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_LT(residual_inf(a, x, b), 1e-4);
}

TEST(ResourceLadder, DefaultLadderDegradesToSuccess) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions jit = small_opts();
  jit.strategy = Strategy::JustInTime;
  SolverOptions mm = jit;
  mm.strategy = Strategy::MinimalMemory;
  const std::size_t peak_jit = measured_peak(a, jit);
  const std::size_t peak_mm = measured_peak(a, mm);
  ASSERT_LT(peak_mm, peak_jit);

  SolverOptions opts = jit;
  opts.memory_budget_bytes = peak_mm + (peak_jit - peak_mm) / 4;
  opts.recovery.enabled = true;  // default ladder: fp32 → loosen τ → MinMem

  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  EXPECT_GE(solver.stats().resource_rungs, 1);
  EXPECT_LE(solver.stats().resource_rungs, 3);
  EXPECT_TRUE(solver.stats().attempts.back().succeeded);
  EXPECT_TRUE(solver.stats().attempts.front().resource);
  EXPECT_LE(solver.stats().total_peak_bytes, opts.memory_budget_bytes);
}

TEST(ResourceLadder, ExhaustedLadderSurfacesStructuredFailure) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions opts = small_opts();
  opts.memory_budget_bytes = 64 * 1024;  // no rung can fit this
  opts.recovery.enabled = true;

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.report().kind, ResourceKind::MemoryBudget);
    EXPECT_EQ(e.report().attempt, 3);  // initial + 3 default rungs
  }
  EXPECT_FALSE(solver.factorized());
  const auto& attempts = solver.stats().attempts;
  ASSERT_EQ(attempts.size(), 4u);
  for (const auto& at : attempts) {
    EXPECT_FALSE(at.succeeded);
    EXPECT_TRUE(at.resource);
    EXPECT_LE(at.peak_bytes, opts.memory_budget_bytes);
  }
  EXPECT_EQ(attempts[1].action, "demote-fp32");
  EXPECT_EQ(attempts[2].action, "loosen-tolerance");
  EXPECT_EQ(attempts[3].action, "switch-to-minmem");
}

// ---------------------------------------------------------------------------
// Per-attempt counters (Solver::factorize re-entry)
// ---------------------------------------------------------------------------

TEST(AttemptCounters, DagCountersArePerAttemptNotCumulative) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.threads = 4;
  opts.scheduling = core::Scheduling::LeftLooking;
  // Dense: no compression helper tasks, so every pool task is one pull.
  opts.strategy = Strategy::Dense;
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 1;  // breakdown below the root: its pull never runs
  opts.recovery.enabled = true;

  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  const auto& attempts = solver.stats().attempts;
  ASSERT_EQ(attempts.size(), 2u);
  // Attempt 0 was cancelled before the root's pull; attempt 1 ran one pull
  // per supernode. Were the counters cumulative, attempt 1 would report
  // more than the supernode count.
  const auto ncblks = static_cast<std::uint64_t>(solver.stats().num_cblks);
  EXPECT_LT(attempts[0].scheduler_tasks, ncblks);
  EXPECT_EQ(attempts[1].scheduler_tasks, ncblks);
  EXPECT_EQ(attempts[1].scheduler_tasks, solver.stats().scheduler_tasks);
  EXPECT_EQ(solver.pool_pending(), 0u);
  EXPECT_GT(attempts[0].peak_bytes, 0u);
  EXPECT_GT(attempts[1].peak_bytes, 0u);
}

TEST(AttemptCounters, SchedulerCountersArePerAttempt) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.threads = 4;
  opts.strategy = Strategy::JustInTime;
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 5;
  opts.recovery.enabled = true;

  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  const auto& attempts = solver.stats().attempts;
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_GT(attempts[1].scheduler_tasks, 0u);
  // The clean retry matches the final whole-run snapshot — per-attempt, not
  // accumulated across the failed first try.
  EXPECT_EQ(attempts[1].scheduler_tasks, solver.stats().scheduler_tasks);
  EXPECT_EQ(attempts[1].scheduler_discarded, 0u);
  EXPECT_EQ(solver.pool_pending(), 0u);
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

TEST(GovernanceSummary, PrintsBudgetAndDeadline) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.memory_budget_bytes = 512ull * 1024 * 1024;
  opts.deadline_ms = 60'000;

  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  EXPECT_GT(solver.stats().deadline_margin, 0.0);

  std::ostringstream os;
  solver.print_summary(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("governance"), std::string::npos);
  EXPECT_NE(s.find("budget"), std::string::npos);
  EXPECT_NE(s.find("deadline"), std::string::npos);
}

} // namespace
