#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "linalg/backend.hpp"
#include "lowrank/compression.hpp"
#include "ordering/ordering.hpp"
#include "symbolic/amalgamation.hpp"
#include "symbolic/symbolic.hpp"

namespace blr::core {

/// The factorization scenarios: the three compared in the paper plus a
/// per-block Adaptive policy this library adds on top.
enum class Strategy {
  Dense,          ///< original PaStiX: every block dense (the baseline)
  JustInTime,     ///< Algorithm 2: compress a panel when its supernode is eliminated (LR2GE updates)
  MinimalMemory,  ///< Algorithm 1: compress A up front, maintain LR through the factorization (LR2LR updates)
  Adaptive,       ///< per-block decision: compress up front only where the
                  ///< measured rank of the assembled tile is comfortably
                  ///< below the storage-beneficial limit (LR2LR updates on
                  ///< those blocks), keep the rest dense (LR2GE updates);
                  ///< remaining dense compressible blocks are re-tried at
                  ///< elimination like Just-In-Time
};

/// Numeric factorization kind.
enum class Factorization {
  Auto,  ///< LLᵗ when the matrix says SPD, LU otherwise
  Lu,
  Llt,
};

/// Per-tile storage precision policy (DESIGN.md §10). All arithmetic always
/// runs in fp64; MixedTiles only changes how low-rank factors are *stored*
/// between kernels.
enum class TilePrecision {
  Fp64,        ///< every tile stored in working precision (bit-identical baseline)
  MixedTiles,  ///< eligible low-rank U/V factors stored in fp32 at rest;
               ///< dense tiles and diagonal (pivotal) blocks always stay fp64
};

/// Update scheduling. Right-looking is the paper's setup: each supernode is
/// eliminated as one task that pushes its updates into the trailing
/// supernodes, so updates into one target land in completion order.
/// Left-looking is the §4.3 extension, run as a fan-in over the same pool
/// (DESIGN.md §12): one task per supernode allocates, assembles and pulls
/// all its incoming updates in canonical order, then factors its panel.
/// Just-In-Time's memory peak drops below the dense footprint, and the
/// factors are bit-identical at every thread count.
enum class Scheduling {
  RightLooking,
  LeftLooking,
};

/// Deterministic fault-injection hook: forces a specific breakdown so every
/// failure-handling path (structured reports, cooperative cancellation, the
/// recovery ladder) is exercisable in tests and under sanitizers. The
/// trigger budget is shared across copies of the options, so a recovery
/// retry sees the fault already consumed (modelling a transient failure)
/// unless max_triggers allows it to fire again.
struct FaultInjection {
  enum class Kind {
    None,             ///< injection disabled (the default)
    TinyPivot,        ///< zero the leading pivot column of `supernode`'s
                      ///< diagonal block right before its factorization
    PoisonBlock,      ///< write a NaN into `supernode`'s assembled diagonal
                      ///< block (caught by the non-finite assembly guard)
    CompressionFail,  ///< fail the `index`-th low-rank compression
    AllocFail,        ///< fail a tracked allocation with an injected
                      ///< ResourceError: at_bytes > 0 arms the MemoryTracker
                      ///< fail point (optionally filtered by alloc_category);
                      ///< at_bytes == 0 fails at `supernode`'s assembly
    ClockSkew,        ///< advance the ResourceGovernor's clock by
                      ///< skew_seconds right before `supernode`'s diagonal
                      ///< factorization, deterministically tripping the
                      ///< deadline watchdog there
  };
  Kind kind = Kind::None;
  index_t supernode = 0;  ///< target column block (TinyPivot / PoisonBlock /
                          ///< AllocFail with at_bytes == 0 / ClockSkew)
  index_t index = 0;      ///< which compression fails (CompressionFail)
  /// AllocFail: live-total threshold (bytes) at which the next tracked
  /// allocation fails; 0 targets `supernode`'s assembly instead.
  std::size_t at_bytes = 0;
  /// AllocFail with at_bytes > 0: restrict the armed fail point to one
  /// MemCategory (cast to int); -1 (default) fails whichever allocation
  /// crosses the threshold first.
  int alloc_category = -1;
  /// ClockSkew: seconds added to the governor's observed clock (default
  /// large enough to trip any test deadline).
  double skew_seconds = 1e6;
  /// Total firings allowed across all factorization attempts (< 0:
  /// unlimited). The default of 1 models a transient fault: the first
  /// attempt breaks down, a recovery retry runs clean.
  int max_triggers = 1;
  /// Trigger opportunities swallowed before the first firing (default 0).
  /// Lets a test aim the fault at the Nth numeric pass of a solver or
  /// Session: skip_triggers = 1 with max_triggers = 1 runs the first pass
  /// clean and breaks the second (e.g. a budget breach mid-refactorize).
  int skip_triggers = 0;

  [[nodiscard]] bool enabled() const { return kind != Kind::None; }

  /// Atomically claim one firing; false once max_triggers is exhausted
  /// (or while skip_triggers opportunities are still being swallowed).
  bool try_fire() const {
    if (kind == Kind::None) return false;
    if (skip_triggers > 0) {
      int s = skipped_->load(std::memory_order_relaxed);
      while (s < skip_triggers) {
        if (skipped_->compare_exchange_weak(s, s + 1, std::memory_order_relaxed))
          return false;
      }
    }
    if (max_triggers < 0) {
      fired_->fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    int cur = fired_->load(std::memory_order_relaxed);
    while (cur < max_triggers) {
      if (fired_->compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed))
        return true;
    }
    return false;
  }

  [[nodiscard]] int fired() const { return fired_->load(std::memory_order_relaxed); }

private:
  /// Shared across copies so recovery attempts (which copy SolverOptions)
  /// observe the firings of earlier attempts.
  std::shared_ptr<std::atomic<int>> fired_ =
      std::make_shared<std::atomic<int>>(0);
  /// Skip budget consumed so far; shared for the same reason.
  std::shared_ptr<std::atomic<int>> skipped_ =
      std::make_shared<std::atomic<int>>(0);
};

/// One rung of the recovery ladder: the configuration change applied before
/// the next factorization attempt. Rungs are cumulative — each retry keeps
/// the changes of every earlier rung.
struct RecoveryStep {
  enum class Action {
    TightenTolerance,  ///< multiply τ by tolerance_factor (a tighter τ keeps
                       ///< more of the spectrum, curing loose-compression
                       ///< breakdowns)
    StaticPivoting,    ///< enable PaStiX-style static pivoting with
                       ///< pivot_threshold (forces LU: LLᵗ has no pivot
                       ///< replacement)
    SwitchToLu,        ///< re-factorize LLᵗ breakdowns as LU
    DenseFallback,     ///< abandon compression entirely (Strategy::Dense)
    // Resource-pressure rungs (climbed on ResourceError, not NumericalError):
    DemoteFp32,        ///< store low-rank factors fp32 at rest
                       ///< (TilePrecision::MixedTiles, ~50% off the LR part)
    LoosenTolerance,   ///< multiply τ by tolerance_factor (> 1 here: trade
                       ///< accuracy for lower ranks and smaller factors)
    SwitchToMinMem,    ///< Strategy::MinimalMemory — compress up front so the
                       ///< dense factor structure is never allocated (the
                       ///< paper's lowest-peak scenario)
  };
  Action action = Action::TightenTolerance;
  real_t tolerance_factor = 1e-2;  ///< τ multiplier (TightenTolerance < 1,
                                   ///< LoosenTolerance > 1)
  real_t pivot_threshold = 1e-8;   ///< static-pivot cutoff (StaticPivoting)
};

const char* recovery_action_name(RecoveryStep::Action a);

/// Retry ladder applied by Solver::factorize when the numeric factorization
/// throws NumericalError: each failed attempt climbs one rung, amends the
/// effective options, and re-runs. Every attempt (including the first and
/// the final outcome) is recorded in SolverStats::attempts and surfaced by
/// print_summary. An empty ladder with enabled=true uses default_ladder().
struct RecoveryPolicy {
  bool enabled = false;
  std::vector<RecoveryStep> ladder;
  /// Degradation ladder climbed on ResourceError (budget breaches only —
  /// deadline breaches never retry: no rung recovers spent wall-clock).
  /// Empty with enabled=true uses default_resource_ladder().
  std::vector<RecoveryStep> resource_ladder;

  /// tighten τ ×1e-2 → static pivoting @1e-8 (LU) → dense fallback.
  static std::vector<RecoveryStep> default_ladder();
  /// fp32 demotion → loosen τ ×1e2 → Minimal-Memory strategy. Note the τ
  /// direction: the numerical ladder *tightens* τ (keep more spectrum to
  /// cure a breakdown); the resource ladder *loosens* it (lower ranks,
  /// smaller factors) — memory pressure is an accuracy/memory dial, not a
  /// stability problem.
  static std::vector<RecoveryStep> default_resource_ladder();
};

/// Everything configurable about a solver run. Defaults reproduce the
/// paper's experimental setup (§4: split 256/128, compressible width 128,
/// minimal height 20, RRQR, τ = 1e-8).
struct SolverOptions {
  /// Compression scenario (default JustInTime): which blocks go low-rank
  /// and when. Read by the numeric engine's update policy; Dense disables
  /// compression entirely.
  Strategy strategy = Strategy::JustInTime;
  /// LU vs LLᵗ (default Auto: LLᵗ when the matrix is marked SPD). Read by
  /// every strategy.
  Factorization factorization = Factorization::Auto;
  /// Rank-revealing compression family, RRQR (default, the paper's choice)
  /// or SVD. Read by every compressing strategy.
  lr::CompressionKind kind = lr::CompressionKind::Rrqr;
  real_t tolerance = 1e-8;  ///< block compression tolerance τ (default 1e-8); read by every compressing strategy
  /// Worker threads (default 1 = sequential) of the one work-stealing pool
  /// that runs the numeric factorization — supernode eliminations with
  /// critical-path priorities (right-looking eliminations or left-looking
  /// pulls), panel-split update subtasks and each panel's
  /// elimination-time compressions (DESIGN.md §7, §11) — and nested
  /// dissection in analyze(), whose ordering is identical at any count
  /// (DESIGN.md §17). Read by every strategy.
  int threads = 1;

  /// Worker threads for the solve phase; 0 (default) inherits `threads`,
  /// 1 drains every solve in order on the calling thread. Above 1, solves
  /// drain the cached SolvePlan over a dedicated solve pool and are
  /// memcmp-identical to the in-order drain (DESIGN.md §16); blocks too
  /// small to pay for the pool, and concurrent solve() calls beyond the
  /// first, still drain in order on the calling thread. The solve pool is
  /// separate from the factorization pool, so a Session can serve parallel
  /// solves while a refactorize() runs on the other pool. Read at Solver
  /// construction.
  int solve_threads = 0;

  /// Right-looking (default, the paper's setup and the fastest driver) or
  /// left-looking traversal. Left-looking runs on the same pool, lowers
  /// JustInTime's memory peak (§4.3) and gives factors that are
  /// bit-identical at every thread count (DESIGN.md §12).
  Scheduling scheduling = Scheduling::RightLooking;

  /// Per-tile storage precision (default Fp64). MixedTiles stores the U/V
  /// factors of eligible low-rank tiles in fp32 at rest — roughly halving
  /// Factors bytes on the compressed part — while all arithmetic, dense
  /// tiles and diagonal/pivotal blocks stay fp64 (DESIGN.md §10). Read by
  /// every compressing strategy (JustInTime, MinimalMemory, Adaptive);
  /// ignored by Dense.
  TilePrecision precision = TilePrecision::Fp64;

  /// Demotion rank cap under MixedTiles: a low-rank tile demotes to fp32
  /// only when its rank is at most this; < 0 (default) demotes every
  /// low-rank tile. Lets callers keep the heaviest (highest-rank) factors
  /// in fp64 while the long tail of small tiles takes the memory win.
  /// Ignored when precision == Fp64.
  index_t mixed_rank_threshold = -1;

  /// Kernel backend for the la:: BLAS layer (default Auto; DESIGN.md §14).
  /// Auto resolves through CPUID to the Native backend's best compiled-in
  /// ISA tier; Reference forces the portable loop nests (the correctness
  /// anchor); Native forces the packed engine. All backends produce
  /// bit-identical factors, so this is a pure performance/debugging dial.
  /// The BLR_BACKEND environment variable (auto|reference|native) overrides
  /// this field without recompiling or changing code. Read by factorize(),
  /// which selects the process-global backend for the whole run.
  la::BackendChoice backend = la::BackendChoice::Auto;

  /// Supernodes whose total off-diagonal panel height (rows) is at least
  /// this are updated by 1D panel-split subtasks instead of a single task,
  /// so one huge column block cannot occupy a single core while the rest of
  /// the pool idles. Read by the right-looking driver when threads > 1; 0
  /// disables splitting.
  index_t panel_split_rows = 512;

  /// Nested-dissection ordering knobs (defaults follow the paper's setup);
  /// read by analyze() before any strategy runs.
  ordering::NdOptions nd;
  /// Supernode splitting (paper §4: split 256/128); read by analyze().
  symbolic::SplitOptions split;
  /// Amalgamation tuning (fill budget for merging small supernodes); read
  /// by analyze() when `amalgamate` is set.
  symbolic::AmalgamationOptions amalgamation;
  bool amalgamate = true;  ///< merge small supernodes under the fill budget (default on); read by analyze()

  /// A column block is compressible when at least this wide...
  index_t compress_min_width = 128;
  /// ...and an off-diagonal block when at least this tall.
  index_t compress_min_height = 20;

  /// Static pivoting threshold for the LU path (PaStiX-style): local pivots
  /// with magnitude below `pivot_threshold * ||A||_max` are replaced instead
  /// of aborting, and the replacement count lands in the stats. 0 disables
  /// (a tiny pivot then throws NumericalError).
  real_t pivot_threshold = 0.0;

  /// Record one (supernode, worker, start, end) event per elimination;
  /// retrieve with Solver::trace() / write_trace_csv(). Cheap but not free.
  bool collect_trace = false;

  /// Verify in analyze() that the nonzero pattern is symmetric (the
  /// solver's structural requirement, paper §1). One O(nnz) pass; disable
  /// only when the producer guarantees symmetry.
  bool check_pattern = true;

  /// Guard assembly inputs, assembled blocks and factored panels against
  /// NaN/Inf: a non-finite value raises NumericalError with a structured
  /// FailureReport instead of silently propagating to a garbage answer.
  /// One O(nnz) input pass plus one O(factor entries) panel pass — noise
  /// next to the factorization flops. Disable only in fully-trusted
  /// pipelines chasing the last percent.
  bool check_finite = true;

  /// Hard budget (bytes) on the live tracked memory of the factorization —
  /// factors, workspace, everything the MemoryTracker sees. 0 (default)
  /// means ungoverned. A tracked allocation that would push the live total
  /// past the budget fails softly with blr::ResourceError carrying a
  /// structured ResourceReport; with recovery enabled the resource ladder
  /// (fp32 demotion → loosen τ → Minimal-Memory) retries before the error
  /// surfaces. The recorded peak never exceeds the budget (DESIGN.md §13).
  std::size_t memory_budget_bytes = 0;

  /// Wall-clock deadline (milliseconds) on factorize(), spanning every
  /// recovery attempt. 0 (default) means none. Enforced by an epoch-checked
  /// watchdog polled from the numeric hot loops: on expiry the run cancels
  /// cooperatively (queued tasks drain without leaks) and factorize throws
  /// blr::ResourceError — deadline breaches are terminal, never retried.
  double deadline_ms = 0;

  /// Deterministic fault injection for testing breakdown handling.
  FaultInjection fault;

  /// Automatic retry ladders on numerical breakdown and resource pressure
  /// (disabled by default).
  RecoveryPolicy recovery;

  /// LUAR-style update accumulation for the Minimal-Memory scenario (the
  /// aggregation of small contributions the paper's conclusion proposes):
  /// low-rank contributions to a low-rank target are appended to a
  /// per-block accumulator and recompressed in one extend-add when the
  /// accumulated rank reaches `accumulate_max_rank` (or at the target's
  /// elimination), instead of paying one Θ(m_C·…) recompression per update.
  bool accumulate_updates = false;
  /// Accumulated-rank flush threshold for `accumulate_updates` (default 32);
  /// read by MinimalMemory/Adaptive when accumulation is on.
  index_t accumulate_max_rank = 32;

  /// Strategy::Adaptive keeps an assembled tile low-rank only when its rank
  /// at tolerance τ is at most this fraction of the storage-beneficial
  /// limit (r·(m+n) < m·n). Blocks whose measured compression ratio is
  /// marginal stay dense — avoiding the LR2LR densify-fallback churn — and
  /// get one more chance at elimination time.
  real_t adaptive_rank_fraction = 0.5;

  /// Seed each re-factorization compression with the rank the previous
  /// numeric pass learned for the same block (DESIGN.md §15). Warm guesses
  /// are verify-and-grow: every warm path still checks the τ bound and
  /// falls back to the full-cap search when the guess is too small, so the
  /// accuracy contract is identical to a cold factorize(). Read by
  /// refactorize(); cold factorize() calls never use hints.
  bool warm_start = true;

  /// Headroom added to each replayed rank guess before capping, absorbing
  /// small rank growth between passes without triggering the grow fallback.
  index_t warm_rank_slack = 8;

  /// Skip the compression attempt on blocks the previous pass proved dense
  /// (dense storage is exact, so skipping cannot change the answer). Read
  /// by refactorize() when `warm_start` is set.
  bool warm_dense_skip = true;

  /// Recycle retired factor buffers through a per-solver pool across
  /// refactorize() calls instead of freeing and re-allocating them. Fixed
  /// patterns request the same block sizes every pass, so steady-state
  /// passes allocate almost nothing. Pooled bytes stay visible to the
  /// MemoryTracker (and any governor budget) as workspace.
  bool reuse_buffers = true;

  /// Largest number of queued single-RHS solve requests a Session coalesces
  /// into one blocked multi-RHS solve (DESIGN.md §15). Each column of the
  /// blocked solve is bit-identical to the corresponding single-RHS solve,
  /// so coalescing never changes results.
  index_t session_max_batch = 128;
};

const char* strategy_name(Strategy s);
const char* kind_name(lr::CompressionKind k);
const char* precision_name(TilePrecision p);

} // namespace blr::core
