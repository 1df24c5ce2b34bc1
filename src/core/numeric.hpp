#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "common/resource_governor.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/options.hpp"
#include "core/rank_memory.hpp"
#include "core/solve_plan.hpp"
#include "core/update_policy.hpp"
#include "lowrank/buffer_pool.hpp"
#include "lowrank/kernels.hpp"
#include "sparse/csc.hpp"
#include "symbolic/symbolic.hpp"

namespace blr::core {

/// Numeric storage for one column block: every block — diagonal, L panel,
/// (for LU) transposed-U panel, LUAR accumulators — is a lr::Tile charged to
/// one of the supernode's arenas. The arenas are declared before the tiles
/// so tiles discharge first on destruction.
struct CblkData {
  lr::TileArena arena{MemCategory::Factors};          ///< factor tiles
  lr::TileArena acc_arena{MemCategory::Workspace};    ///< LUAR accumulators
  lr::Tile diag;                        ///< dense diagonal tile
  std::vector<lr::Tile> lpanel;
  std::vector<lr::Tile> upanel;         ///< empty for LLᵗ
  std::vector<index_t> ipiv;            ///< local pivots (LU diagonal block)
  /// LUAR accumulators (one per panel block, rank 0 = inactive): low-rank
  /// tiles holding the padded [U_acc, V_acc] factors of pending
  /// contributions awaiting one combined extend-add. Only used with
  /// options.accumulate_updates.
  std::vector<lr::Tile> lacc;
  std::vector<lr::Tile> uacc;
  bool eliminated = false;
};

/// Where one right-looking block update (k, bi, bj) lands: the target
/// supernode/blok, the offsets inside it, the contribution's dimensions, and
/// the triangle bookkeeping. Pure symbolic geometry — computing it touches no
/// numeric state.
struct UpdateLoc {
  index_t tcblk = -1;   ///< target supernode
  index_t tb_idx = -1;  ///< target blok index (-1: diagonal block)
  index_t roff = 0;     ///< row offset inside the target block
  index_t coff = 0;     ///< column offset inside the target block
  index_t rh = 0;       ///< contribution rows (row blok height)
  index_t ch = 0;       ///< contribution cols (col blok height)
  bool transpose = false;    ///< apply the transposed contribution (U mirror)
  bool target_diag = false;  ///< lands on the diagonal block
  bool target_upper = false; ///< lands in the U panel (LU only)
};

/// One supernode-task execution record (Gantt row) of the factorization.
/// Right-looking: the panel factorization plus the updates applied from the
/// eliminating task itself (panel-split subtasks are not traced). Left-
/// looking: the assembly, the pulled updates and the panel factorization.
/// Either way the trace keeps exactly one event per supernode.
struct TraceEvent {
  index_t cblk;
  std::size_t worker;  ///< dense pool worker index (0 for sequential runs)
  double start;        ///< seconds since factorize() began
  double end;
};

/// State a re-factorization replays from the previous numeric pass over
/// the same SymbolicPlan (DESIGN.md §15). Both are optional and cost-only:
/// ranks warm-start compressions (verified, grow-on-mismatch) and buffers
/// recycle retired factor storage. Pointed-to state must outlive the
/// NumericFactor. (Namespace-scope rather than nested so it can
/// default-initialize in the constructor's default argument.)
struct NumericReuse {
  const RankMemory* ranks = nullptr;   ///< learned per-block ranks
  lr::BufferPool* buffers = nullptr;   ///< retired dense-buffer pool
};

/// Dedicated thread pool for the parallel solve phase (DESIGN.md §16),
/// owned by the Solver and shared (by shared_ptr) with every NumericFactor
/// it produces, so Session snapshots keep the pool alive across
/// refactorize(). Separate from the factorization pool because the solve
/// drain blocks on wait_idle(), which must never observe another user's
/// tasks. `mu` admits one pooled drain at a time: a concurrent solve()
/// drains the same tasks in order on its own thread instead of queueing —
/// same bits, and const solve() calls stay safe under concurrency.
struct SolveEngine {
  ThreadPool pool;
  std::mutex mu;
  explicit SolveEngine(int threads)
      : pool(threads) {}
};

/// What one solve call actually did (optional out-param of
/// NumericFactor::solve / solve_permuted; feeds SolvePhaseStats and the
/// per-request Session::SolveStats).
struct SolveRunInfo {
  std::uint64_t tasks = 0;       ///< solve-plan task bodies run
  bool parallel = false;         ///< drained the solve DAG over the pool
  bool plan_reused = false;      ///< a cached SolvePlan drove the execution
  std::uint64_t widen_hits = 0;  ///< fp32 widen-cache hits during this call
};

/// The supernodal numeric factorization over tiles, parameterized by an
/// UpdatePolicy (Dense baseline, Just-In-Time, Minimal Memory, Adaptive),
/// for both LU (general, symmetric pattern) and LLᵗ (SPD). Two drivers
/// share the update and panel code: right-looking (one task per supernode
/// pushing its updates) and the left-looking fan-in (one task per supernode
/// pulling them, DESIGN.md §12). All numeric operations route through the
/// KernelDispatch registry.
class NumericFactor {
public:
  using Reuse = NumericReuse;

  /// Assembles the (permuted) initial matrix into the block structure.
  /// For Minimal-Memory this is where the initial compression (lines 1-4 of
  /// Algorithm 1) happens; the dense factor structure is never allocated.
  /// `governor` (may be null: ungoverned) supplies the deadline watchdog the
  /// driver polls and receives injected clock skew; budget breaches arrive
  /// through the MemoryTracker as ResourceError regardless.
  /// `reuse` (defaulted empty) carries warm-start state for re-factorization.
  NumericFactor(const sparse::CscMatrix& a, const ordering::Ordering& ord,
                const symbolic::SymbolicFactor& sf, const SolverOptions& opts,
                bool llt, ResourceGovernor* governor = nullptr,
                Reuse reuse = {});

  NumericFactor(const NumericFactor&) = delete;
  NumericFactor& operator=(const NumericFactor&) = delete;

  /// Runs the numeric factorization. `pool` may be null for sequential
  /// execution; otherwise one task per supernode is released to the pool
  /// once its incoming update groups are applied (right-looking) or its
  /// source supernodes are factored (left-looking).
  void factorize(ThreadPool* pool);

  /// Triangular solves in the permuted index space on a block of right-hand
  /// sides (n x nrhs, in/out). Drains the attached SolvePlan (see
  /// set_solve_context) over the solve pool, or in task order on the
  /// calling thread when there is no pool or another solve holds it — the
  /// same bits either way. `info` (optional) reports what the call did.
  void solve_permuted(la::DView x, SolveRunInfo* info) const;
  void solve_permuted(la::DView x) const { solve_permuted(x, nullptr); }
  void solve_permuted(real_t* x) const {
    solve_permuted(la::DView(x, sf_.n(), 1, sf_.n()));
  }

  /// Solve A·x = b including permutation handling (b and x length n).
  void solve(const real_t* b, real_t* x) const;

  /// Multi-RHS variant: X = A⁻¹·B (both n x nrhs; aliasing allowed).
  void solve(la::DConstView b, la::DView x, SolveRunInfo* info = nullptr) const;

  /// Attach the solve-phase execution context (DESIGN.md §16): the cached
  /// SolvePlan for this factor's symbolic structure plus the Solver's
  /// shared solve engine (null: in-order drains only). Required before the
  /// first solve; called by the Solver after each successful factorization.
  void set_solve_context(std::shared_ptr<const SolvePlan> plan,
                         std::shared_ptr<SolveEngine> engine);

  /// fp32 widen-cache introspection (DESIGN.md §16): bytes/tiles currently
  /// held, and cumulative factor reuses served. All zero until the first
  /// solve of a factor holding fp32-at-rest tiles; the cache dies with the
  /// factor, so refactorize() invalidates it wholesale.
  [[nodiscard]] std::size_t widen_cache_bytes() const { return widen_bytes_; }
  [[nodiscard]] std::uint64_t widen_cache_tiles() const { return widen_tiles_; }
  [[nodiscard]] std::uint64_t widen_hits() const {
    return widen_hits_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool is_llt() const { return llt_; }
  [[nodiscard]] const symbolic::SymbolicFactor& symbolic() const { return sf_; }

  /// Entries actually stored (dense + low-rank factors, diag included).
  [[nodiscard]] std::size_t final_entries() const;
  /// Bytes actually stored — precision-aware, so under MixedTiles this is
  /// less than final_entries() * sizeof(real_t).
  [[nodiscard]] std::size_t final_bytes() const;
  /// Bytes of final_bytes() held by low-rank U/V factors — the part of the
  /// storage that is eligible for fp32 demotion under MixedTiles.
  [[nodiscard]] std::size_t lowrank_bytes() const;
  /// Panel blocks whose factors ended in fp32 at-rest storage.
  [[nodiscard]] index_t num_fp32_blocks() const;
  [[nodiscard]] index_t num_lowrank_blocks() const;
  [[nodiscard]] index_t num_dense_blocks() const;
  /// Mean rank over the final low-rank blocks (dense blocks excluded).
  [[nodiscard]] double average_rank() const;
  /// Fraction of compressible panel blocks that ended dense (fallbacks plus
  /// policy keep-dense decisions); 0 when nothing is compressible.
  [[nodiscard]] double dense_block_fraction() const;
  [[nodiscard]] index_t pivots_replaced() const {
    return pivots_replaced_.load(std::memory_order_relaxed);
  }

  /// Elimination schedule trace (empty unless options.collect_trace).
  [[nodiscard]] const std::vector<TraceEvent>& trace() const { return trace_; }

  /// Direct block access (tests / benches).
  [[nodiscard]] const CblkData& cblk_data(index_t k) const {
    return data_[static_cast<std::size_t>(k)];
  }

  /// Record the final rank of every panel block into `out` (kDense for
  /// blocks that ended dense) and mark the record valid. Called by the
  /// Solver after a successful pass; the record seeds the next
  /// re-factorization's warm-started compressions.
  void harvest_ranks(RankMemory& out) const;

  /// Move every dense factor buffer (dense blocks, diagonals) into `pool`
  /// for the next numeric pass to acquire. Destructive: the factors are
  /// unusable afterwards — callers retire this NumericFactor right away.
  void donate_buffers(lr::BufferPool& pool);

  /// Warm-start event counters of this pass (all zero on a cold run).
  [[nodiscard]] const WarmCounters& warm_counters() const {
    return warm_counters_;
  }

private:
  /// Packed image of one source supernode's dense panel bloks (from blok
  /// `from` on): the A and B operands of the grouped GEMMs (DESIGN.md §9).
  /// An elimination task packs its supernode once and shares the image,
  /// read-only, with its update segments; it is charged to Workspace and
  /// released with the last task using it (DESIGN.md §13).
  struct PanelImage {
    index_t cblk = -1;                 ///< source packed (-1: none)
    index_t from = 0;                  ///< first blok packed
    index_t lrows = 0, urows = 0;      ///< image heights (= leading dims)
    std::vector<index_t> loff, uoff;   ///< image row of each blok (-1: absent)
    std::vector<real_t> l, u;          ///< L image, U image
    TrackedAlloc track{MemCategory::Workspace, 0};
  };

  void assemble_all();
  void assemble_cblk(index_t k);
  void gather_panel(index_t k, const sparse::CscMatrix& src,
                    std::vector<lr::Tile>& panel, bool fill_diag);
  void eliminate(index_t k);
  /// Apply the update groups (k, f) of supernode k for facing bloks
  /// f in [jb, je) (DESIGN.md §9), draining dependency counters and
  /// submitting (with their critical-path priority) the successors that
  /// become ready.
  void update_range(index_t k, index_t jb, index_t je, PanelImage& img);
  /// Diagonal factorization + policy elimination hook + panel solves of
  /// cblk k. The dense tiles are solved packed in `img`, which then holds
  /// k's factored panel for the updates. With a pool attached, a panel's
  /// compression attempts run as one parallel loop (DESIGN.md §11).
  void factor_panel(index_t k, PanelImage& img);
  /// The task of supernode k under the active schedule: eliminate(k)
  /// (right-looking) or pull(k) (left-looking).
  void run_task(index_t k);
  /// Left-looking fan-in task of target supernode t (DESIGN.md §12):
  /// assemble t, apply its incoming groups (k, f) in canonical order, factor
  /// its panel, then release the targets t updates.
  void pull(index_t t);
  /// Append the trace event of supernode k's task (started at t0) with the
  /// executing pool worker.
  void record_trace(index_t k, double t0);
  /// Symbolic geometry of the (bi, bj) update produced by supernode k.
  [[nodiscard]] UpdateLoc locate_update(index_t k, index_t bi, index_t bj) const;
  /// Whether the update's contribution product must carry an orthonormal U
  /// (keys off the target's assembly-time representation — immutable, so
  /// safe without the target lock).
  [[nodiscard]] bool update_need_ortho(const UpdateLoc& loc) const;
  /// Fused dense×dense update of one pair (caller holds the target lock):
  /// GEMM straight into a dense target, or product + extend-add when the
  /// target is low-rank.
  void dense_pair_locked(const UpdateLoc& loc, const lr::Tile& a,
                         const lr::Tile& b);
  /// Apply a formed contribution product (caller holds the target lock):
  /// LR2GE onto the diagonal, LUAR accumulation, or extend-add.
  void finish_update_locked(const UpdateLoc& loc, lr::Tile p);

  // ---- grouped updates (DESIGN.md §9) ---------------------------------
  /// One block pair of an update group, in group order.
  struct GroupPair {
    UpdateLoc loc;
    const lr::Tile* a = nullptr;  ///< row operand of the product A·Bᵗ
    const lr::Tile* b = nullptr;  ///< column operand
    index_t src = -1;             ///< row blok of k the contribution rows come
                                  ///< from (U panel when loc.target_upper)
    bool zero = false;            ///< rank-0 operand: nothing to apply
    bool lowrank = false;         ///< low-rank operand: product + extend-add
  };
  /// Append the pairs of group (k, f) to `out` in group order — L side
  /// (i, f) then U side (f, i), each by ascending i — and return the
  /// target cblk fcblk(f).
  index_t collect_group(index_t k, index_t f, std::vector<GroupPair>& out) const;
  /// Apply one collected group under its target's lock: runs of dense
  /// pairs with dense targets become one gather–GEMM–scatter on the packed
  /// panel image; the other pairs apply one by one in group order.
  /// Low-rank-operand pairs form their product outside the lock.
  void apply_group(index_t k, index_t f, GroupPair* pairs, std::size_t n,
                   PanelImage& img);
  /// One dependency of `tcblk` satisfied: drain its counter and, when it
  /// reaches zero, submit run_task(tcblk) with its critical-path priority.
  void release(index_t tcblk);

  /// Pack the dense bloks [from, nb) of k's panels into `img` unless it
  /// already holds them.
  void pack_panel(index_t k, index_t from, PanelImage& img);
  /// Copy the image rows of one side back into k's dense tiles and mark
  /// them Factored (after the grouped panel solve).
  void unpack_panel(index_t k, const PanelImage& img, bool upper);
  /// Merge a pending LUAR accumulator into its block (caller holds the
  /// target lock or the target is quiescent).
  void flush_accumulator(index_t cblk, bool upper, index_t blok_idx);
  void flush_all_accumulators(index_t cblk);
  [[nodiscard]] bool compressible(index_t k, const symbolic::Blok& b) const;

  /// Build a FailureReport stamped with the active configuration and the
  /// elapsed factorization time.
  [[nodiscard]] FailureReport make_report(FailureKind kind, index_t supernode,
                                          index_t local_pivot, double pivot_mag,
                                          std::string detail = {}) const;
  /// Throw NumericalError carrying @p report.
  [[noreturn]] void fail(FailureReport report) const;
  /// First-failure-wins capture: records the report, trips failed_ and
  /// cancels the pool so queued eliminations drain unrun.
  void record_failure(FailureReport report);
  /// Non-finite scan of one supernode's blocks; throws on NaN/Inf.
  void check_cblk_finite(index_t k, FailureKind kind) const;
  /// Deterministic injection hook (SolverOptions::fault), CompressionFail
  /// kind: called once per compression site.
  void maybe_fail_compression(index_t k);

  // ---- solve phase (DESIGN.md §16) -----------------------------------
  /// Run one solve-plan task on RHS block x: one dispatch that walks the
  /// task's tiles (fp32 tiles through the widen cache, counting the hits).
  bool run_solve_task(const SolveTask& t, la::DView x) const;
  /// Build the per-epoch fp64 copies of every fp32-at-rest factor
  /// (Workspace-charged; no-op when the factor holds no fp32 tiles).
  void build_widen_cache() const;

  /// Reusable Workspace-tracked permutation scratch (one block per
  /// concurrent solve() call, pooled across calls).
  struct SolveScratch {
    la::DMatrix m;
    TrackedAlloc track{MemCategory::Workspace, 0};
  };
  [[nodiscard]] std::unique_ptr<SolveScratch> acquire_scratch(
      index_t rows, index_t cols) const;
  void release_scratch(std::unique_ptr<SolveScratch> s) const;

  // ---- resource governance (DESIGN.md §13) ---------------------------
  /// Deadline watchdog poll from the hot loops: throws ResourceError
  /// (Deadline, stamped with supernode k) once the governed deadline passed.
  void poll_deadline(index_t k) const;
  /// AllocFail-at-supernode injection: throw an injected budget-style
  /// ResourceError when the fault targets supernode k's assembly.
  void maybe_inject_alloc_fail(index_t k) const;
  /// ClockSkew injection: advance the governor's clock at supernode k's
  /// diagonal factorization.
  void maybe_skew_clock(index_t k);
  /// Fill in what the breach site could not know: the requesting supernode
  /// (the MemoryTracker sees bytes, not block structure) and the elapsed
  /// time.
  void stamp_resource(ResourceReport& r, index_t k) const;
  /// First-failure-wins capture of a resource breach (the ResourceError
  /// sibling of record_failure): trips failed_ and cancels the pool.
  void record_resource_failure(ResourceReport report);
  /// Re-throw the recorded first failure as its original type. Called after
  /// the run drained; reads the report without the mutex (no tasks left).
  [[noreturn]] void throw_recorded() const;

  const ordering::Ordering& ord_;
  const symbolic::SymbolicFactor& sf_;
  SolverOptions opts_;
  bool llt_;
  Reuse reuse_;                 ///< warm-start state (empty on cold runs)
  WarmCounters warm_counters_;  ///< warm-start events of this pass

  /// The strategy object the driver is parameterized by, plus the context
  /// its decisions run in (compression config + fault-injection hook).
  std::unique_ptr<UpdatePolicy> policy_;
  PolicyContext pctx_;

  // Permuted input (and its transpose for the U side). Kept alive through
  // the left-looking run, which assembles supernodes lazily; released after
  // assembly in the right-looking schedule.
  sparse::CscMatrix ap_;
  sparse::CscMatrix apt_;
  TrackedAlloc input_track_;

  std::vector<CblkData> data_;
  std::vector<std::mutex> locks_;              // per-cblk update locks
  // Remaining incoming groups per cblk, drained when a group is applied
  // (right-looking) or when its source is factored (left-looking).
  std::vector<std::atomic<index_t>> deps_;
  ThreadPool* pool_ = nullptr;                 // active during factorize()
  real_t pivot_cutoff_ = 0;                    // absolute static-pivot threshold
  std::atomic<index_t> pivots_replaced_{0};
  std::vector<TraceEvent> trace_;
  std::mutex trace_mutex_;
  Timer trace_clock_;
  ResourceGovernor* gov_ = nullptr;   // null: ungoverned run
  std::atomic<bool> failed_{false};
  std::string error_;
  FailureReport report_;              // first failure, guarded by error_mutex_
  bool resource_failed_ = false;      // first failure was a resource breach
  ResourceReport resource_report_;    // its report, guarded by error_mutex_
  std::mutex error_mutex_;
  std::atomic<index_t> compressions_{0};  // compression-site counter (injection)

  /// Left-looking incoming groups, CSR by target: the groups (k, f) target
  /// t receives are in_[in_off_[t] .. in_off_[t + 1]), in canonical order.
  struct InGroup {
    index_t k, f;
  };
  std::vector<index_t> in_off_;
  std::vector<InGroup> in_;

  // ---- solve phase (DESIGN.md §16) state ------------------------------
  std::shared_ptr<const SolvePlan> splan_;   ///< cached solve schedule
  std::shared_ptr<SolveEngine> sengine_;     ///< shared solve pool (may be null)
  std::vector<index_t> iperm_;  ///< inverse permutation: x(j) = xp(iperm_[j])
  /// fp32 widen cache: per-cblk fp64 copies of the fp32-at-rest U/V
  /// factors, built once per factor (on the first solve) under
  /// `widen_once_` and charged to Workspace. Inner vectors are indexed by
  /// blok and empty-matrix for tiles that are not fp32 low-rank.
  struct WidenedPanel {
    std::vector<la::DMatrix> lu, lv;  ///< L-panel factor copies
    std::vector<la::DMatrix> uu, uv;  ///< U-panel copies (LU only)
  };
  mutable std::vector<WidenedPanel> widen_;
  mutable TrackedAlloc widen_track_{MemCategory::Workspace, 0};
  mutable std::once_flag widen_once_;
  mutable std::uint64_t widen_tiles_ = 0;
  mutable std::size_t widen_bytes_ = 0;
  mutable std::atomic<std::uint64_t> widen_hits_{0};
  /// Permutation-scratch pool (guarded by scratch_mu_).
  mutable std::mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<SolveScratch>> scratch_pool_;
};

} // namespace blr::core
