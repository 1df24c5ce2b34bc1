#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace blr::core {

/// One row of the kernel-dispatch registry snapshot: how often a concrete
/// (operation × operand representations) kernel ran in the last
/// factorization, how many operand bytes it touched, and its wall time.
struct DispatchCount {
  std::string kernel;       ///< e.g. "gemm[lr,ge]", "getrf[ge]"
  std::string backend;      ///< la::Backend the calls ran under ("reference"/"native")
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;  ///< operand + destination storage touched
  /// Floating-point operations computed from the operand shapes. Recorded
  /// for the dense rows (gemm[ge,ge], trsm[ge], potrf[ge], getrf[ge]) and
  /// the low-rank panel solve; 0 where no model is recorded.
  std::uint64_t flops = 0;
  double seconds = 0;

  /// Achieved rate of the row, 0 when it records no flops or no time.
  [[nodiscard]] double gflops() const {
    return seconds > 0 ? static_cast<double>(flops) / seconds * 1e-9 : 0.0;
  }
};

/// Record of one factorization attempt made by Solver::factorize — the
/// initial try plus every recovery-ladder retry.
struct FactorizeAttempt {
  int attempt = 0;             ///< 0 = first try
  std::string action;          ///< "initial" or the recovery rung applied
  std::string strategy;        ///< effective strategy name for this attempt
  std::string precision;       ///< effective tile-precision name
  double tolerance = 0;        ///< effective τ
  double pivot_threshold = 0;  ///< effective static-pivot threshold
  bool llt = false;            ///< effective factorization kind
  bool succeeded = false;
  bool resource = false;       ///< failed on a resource breach (ResourceError),
                               ///< not a numerical breakdown
  double seconds = 0;          ///< wall time of this attempt
  std::string error;           ///< failure summary (empty on success)

  // Per-attempt run counters. Every counter source (MemoryTracker, kernel
  // dispatch, pool stats) is reset at the start of each
  // attempt, so these are THIS attempt's numbers, not cumulative — ladder
  // retries report what each rung actually did.
  std::size_t peak_bytes = 0;            ///< tracker total high-water mark
  std::uint64_t scheduler_tasks = 0;     ///< pool tasks executed
  std::uint64_t scheduler_discarded = 0; ///< pool tasks drained by cancellation
};

/// Warm-start counters of one numeric pass (DESIGN.md §15; all zero for
/// cold factorizations). Snapshot of the per-run atomics in
/// core::WarmCounters.
struct WarmStartStats {
  std::uint64_t attempts = 0;     ///< compressions seeded with a replayed rank
  std::uint64_t hits = 0;         ///< warm guesses accepted at the τ bound
  std::uint64_t grows = 0;        ///< guesses too small → full-cap fallback ran
  std::uint64_t dense_skips = 0;  ///< compressions skipped on proven-dense blocks
};

/// Per-request measurements of one Session::solve() call (DESIGN.md §15).
struct SolveStats {
  std::uint64_t factor_epoch = 0;  ///< which refactorize() produced the factors used
  index_t batch_size = 0;          ///< requests coalesced into the blocked solve
  double wait_seconds = 0;         ///< queue time before the blocked solve started
  double solve_seconds = 0;        ///< wall time of the blocked solve itself
  // Solve-phase execution detail of the blocked solve that served this
  // request (DESIGN.md §16).
  std::uint64_t solve_tasks = 0;   ///< solve-plan task bodies the blocked solve ran
  bool parallel = false;           ///< drained the solve DAG over the solve pool
  bool plan_reused = false;        ///< the cached SolvePlan served this solve
  std::uint64_t widen_hits = 0;    ///< fp32 widen-cache hits during the solve
};

/// Solve-phase breakdown accumulated across every solve since analyze()
/// (DESIGN.md §16; surfaced as SolverStats::solve_phase and by
/// print_summary's solve line).
struct SolvePhaseStats {
  std::uint64_t solves = 0;            ///< NumericFactor solves issued
  std::uint64_t plan_builds = 0;       ///< SolvePlan graphs actually built
  std::uint64_t plan_reuses = 0;       ///< factorizations served by the cache
  std::uint64_t tasks_executed = 0;    ///< solve-plan task bodies run
  std::uint64_t parallel_solves = 0;   ///< solves drained as a DAG on the pool
  /// Always 0: the column-split solve path is gone (DESIGN.md §16); the
  /// field stays for readers of the solve-phase schema.
  std::uint64_t split_solves = 0;
  std::uint64_t sequential_solves = 0; ///< solves drained in order on the caller
  std::uint64_t widen_hits = 0;        ///< fp32 widen-cache factor reuses
  std::uint64_t widen_tiles = 0;       ///< tiles held by the current widen cache
  std::size_t widen_bytes = 0;         ///< bytes held by the current widen cache
  double trsm_seconds = 0;             ///< dispatch time in solve_trsm kernels
  double gemm_seconds = 0;             ///< dispatch time in solve_gemm kernels
};

/// Wall-time breakdown of the analysis phase (SymbolicPlan::build); the
/// parts sum to time_analyze up to the pattern fingerprint.
struct AnalyzePhaseStats {
  double graph_seconds = 0;       ///< adjacency graph of the pattern
  double ordering_seconds = 0;    ///< nested dissection
  double amalgamate_seconds = 0;  ///< supernode amalgamation
  double symbolic_seconds = 0;    ///< supernode splitting + block symbolic factorization
};

/// Aggregate measurements of one solver run — the quantities the paper's
/// tables and figures report.
struct SolverStats {
  // Phase wall times (seconds).
  double time_analyze = 0;
  AnalyzePhaseStats analyze_phase;  ///< time_analyze by sub-phase
  double time_factorize = 0;
  double time_solve = 0;

  // Structure.
  index_t n = 0;
  index_t num_cblks = 0;
  index_t num_bloks = 0;

  /// Entries the dense (original PaStiX) storage would need.
  std::size_t factor_entries_dense = 0;
  /// Entries actually stored at the end of the factorization.
  std::size_t factor_entries_final = 0;
  /// Bytes actually stored at the end of the factorization. Precision-aware:
  /// under TilePrecision::MixedTiles the fp32 factors cost half, so this is
  /// less than factor_entries_final * sizeof(real_t).
  std::size_t factor_bytes_final = 0;
  /// The part of factor_bytes_final held by low-rank U/V factors — the
  /// storage that MixedTiles can demote to fp32 (dense and diagonal blocks
  /// make up the rest and always stay fp64).
  std::size_t factor_bytes_lowrank = 0;
  /// Panel blocks whose low-rank factors ended in fp32 at-rest storage
  /// (always 0 under TilePrecision::Fp64).
  index_t num_fp32_blocks = 0;

  /// Peak bytes in the Factors memory category during factorization.
  std::size_t factors_peak_bytes = 0;
  /// Peak bytes over all tracked categories.
  std::size_t total_peak_bytes = 0;

  /// Kernel backend the factorization ran under ("reference"/"native") and,
  /// for Native, the CPUID-selected ISA tier ("portable"/"avx2"/"avx512";
  /// empty otherwise). DESIGN.md §14.
  std::string backend;
  std::string backend_isa;

  index_t num_lowrank_blocks = 0;
  index_t num_dense_blocks = 0;
  double average_rank = 0;  ///< mean rank over the final low-rank blocks only
  /// Fraction of compressible panel blocks that ended dense (fallbacks plus
  /// Adaptive keep-dense decisions); 1.0 for the Dense strategy.
  double dense_block_fraction = 0;

  /// Pivots replaced by static pivoting (LU with pivot_threshold > 0).
  index_t pivots_replaced = 0;

  // Scheduler counters of the last factorize() (all zero for sequential
  // runs; aggregated over workers — per-worker detail via
  // Solver::worker_stats()).
  int scheduler_workers = 0;              ///< pool size used
  std::uint64_t scheduler_tasks = 0;      ///< tasks executed (incl. subtasks)
  std::uint64_t scheduler_steals = 0;     ///< successful deque steals
  std::uint64_t scheduler_failed_steals = 0;  ///< empty-handed victim sweeps
  std::uint64_t scheduler_idle_sleeps = 0;    ///< worker blocking waits
  /// Tasks drained unrun by cooperative cancellation after a breakdown.
  std::uint64_t scheduler_discarded = 0;

  // Resource governance of the last factorize() (DESIGN.md §13; zero when
  // ungoverned).
  std::size_t memory_budget_bytes = 0;  ///< active budget (0: none)
  double deadline_seconds = 0;          ///< active deadline (0: none)
  /// Wall-clock headroom left at success: deadline − governed elapsed
  /// (0 when no deadline was set).
  double deadline_margin = 0;
  /// Resource-ladder rungs climbed (degradations applied) by this call.
  int resource_rungs = 0;

  /// Every factorization attempt of the last factorize() call (one entry
  /// for a clean run; one per ladder rung when recovery kicked in).
  std::vector<FactorizeAttempt> attempts;

  /// Per-kernel dispatch counters of the successful factorization attempt
  /// (zero-call kernels omitted).
  std::vector<DispatchCount> dispatch;

  /// Numeric passes served by the current symbolic plan beyond the first:
  /// incremented by every successful refactorize() (DESIGN.md §15).
  std::uint64_t refactorizations = 0;

  /// Warm-start counters of the last successful numeric pass (all zero for
  /// cold factorizations or when SolverOptions::warm_start is off).
  WarmStartStats warm;

  /// Solve-phase breakdown accumulated across every solve since analyze()
  /// (DESIGN.md §16). The widen_* fields describe the *current* factors'
  /// fp32 widen cache; the counters are cumulative.
  SolvePhaseStats solve_phase;

  /// Buffer-pool counters accumulated since the last cold factorize():
  /// acquisitions served from recycled factor storage vs. fresh allocations
  /// (both zero when SolverOptions::reuse_buffers is off or on cold passes).
  std::uint64_t buffer_hits = 0;
  std::uint64_t buffer_misses = 0;

  [[nodiscard]] double compression_ratio() const {
    return factor_entries_final > 0
               ? static_cast<double>(factor_entries_dense) /
                     static_cast<double>(factor_entries_final)
               : 0.0;
  }
};

} // namespace blr::core
