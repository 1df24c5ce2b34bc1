#include "core/solver.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/kernels_dispatch.hpp"
#include "linalg/backend.hpp"
#include "sparse/graph.hpp"

namespace blr::core {

namespace {

/// Apply one recovery rung to the effective options (rungs are cumulative:
/// each retry keeps the changes of every earlier rung).
void apply_recovery_step(SolverOptions& eff, const RecoveryStep& step) {
  switch (step.action) {
    case RecoveryStep::Action::TightenTolerance:
      eff.tolerance *= step.tolerance_factor;
      break;
    case RecoveryStep::Action::StaticPivoting:
      eff.pivot_threshold = std::max(eff.pivot_threshold, step.pivot_threshold);
      // Static pivoting replaces pivots in the LU path only; an LLᵗ
      // breakdown re-runs as LU so the replacement can actually happen.
      eff.factorization = Factorization::Lu;
      break;
    case RecoveryStep::Action::SwitchToLu:
      eff.factorization = Factorization::Lu;
      break;
    case RecoveryStep::Action::DenseFallback:
      eff.strategy = Strategy::Dense;
      break;
    case RecoveryStep::Action::DemoteFp32:
      eff.precision = TilePrecision::MixedTiles;
      break;
    case RecoveryStep::Action::LoosenTolerance:
      eff.tolerance *= step.tolerance_factor;
      break;
    case RecoveryStep::Action::SwitchToMinMem:
      eff.strategy = Strategy::MinimalMemory;
      break;
  }
}

} // namespace

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::Dense: return "Dense";
    case Strategy::JustInTime: return "Just-In-Time";
    case Strategy::MinimalMemory: return "Minimal Memory";
    case Strategy::Adaptive: return "Adaptive";
  }
  return "?";
}

const char* kind_name(lr::CompressionKind k) {
  switch (k) {
    case lr::CompressionKind::Svd: return "SVD";
    case lr::CompressionKind::Rrqr: return "RRQR";
    case lr::CompressionKind::Randomized: return "Randomized";
  }
  return "?";
}

const char* precision_name(TilePrecision p) {
  switch (p) {
    case TilePrecision::Fp64: return "fp64";
    case TilePrecision::MixedTiles: return "mixed-tiles";
  }
  return "?";
}

const char* recovery_action_name(RecoveryStep::Action a) {
  switch (a) {
    case RecoveryStep::Action::TightenTolerance: return "tighten-tolerance";
    case RecoveryStep::Action::StaticPivoting: return "static-pivoting";
    case RecoveryStep::Action::SwitchToLu: return "switch-to-lu";
    case RecoveryStep::Action::DenseFallback: return "dense-fallback";
    case RecoveryStep::Action::DemoteFp32: return "demote-fp32";
    case RecoveryStep::Action::LoosenTolerance: return "loosen-tolerance";
    case RecoveryStep::Action::SwitchToMinMem: return "switch-to-minmem";
  }
  return "?";
}

std::vector<RecoveryStep> RecoveryPolicy::default_ladder() {
  std::vector<RecoveryStep> ladder(3);
  ladder[0].action = RecoveryStep::Action::TightenTolerance;
  ladder[0].tolerance_factor = 1e-2;
  ladder[1].action = RecoveryStep::Action::StaticPivoting;
  ladder[1].pivot_threshold = 1e-8;
  ladder[2].action = RecoveryStep::Action::DenseFallback;
  return ladder;
}

std::vector<RecoveryStep> RecoveryPolicy::default_resource_ladder() {
  std::vector<RecoveryStep> ladder(3);
  ladder[0].action = RecoveryStep::Action::DemoteFp32;
  ladder[1].action = RecoveryStep::Action::LoosenTolerance;
  ladder[1].tolerance_factor = 1e2;
  ladder[2].action = RecoveryStep::Action::SwitchToMinMem;
  return ladder;
}

Solver::Solver(SolverOptions opts) : opts_(opts) {
  if (opts_.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(opts_.threads);
  }
  // The solve phase drains its own pool: the factorization pool's
  // wait_idle-based quiescence cannot be shared with a concurrent
  // refactorize, and sessions overlap exactly those two phases.
  const int st = opts_.solve_threads > 0 ? opts_.solve_threads : opts_.threads;
  if (st > 1) {
    solve_engine_ = std::make_shared<SolveEngine>(st);
  }
}

Solver::~Solver() = default;

void Solver::analyze(const sparse::CscMatrix& a) {
  plan_ = SymbolicPlan::build(a, opts_, pool_.get());
  // Fork helpers of nested dissection that found their half already taken
  // may still sit in the queue; drain them so the factorization's scheduler
  // counters start clean.
  if (pool_) pool_->wait_idle();
  num_.reset();
  // A new pattern invalidates every piece of warm state.
  ranks_ = RankMemory{};
  buffers_.clear();
  refactorizations_ = 0;
  last_error_.clear();

  stats_ = SolverStats{};
  stats_.time_analyze = plan_->build_seconds;
  stats_.analyze_phase = plan_->phases;
  stats_.n = a.rows();
  stats_.num_cblks = plan_->sf.num_cblks();
  stats_.num_bloks = plan_->sf.num_bloks();
}

void Solver::factorize(const sparse::CscMatrix& a) {
  // A cold pass by contract: discard warm state so the result and the cost
  // profile are independent of any earlier pass.
  ranks_ = RankMemory{};
  buffers_.clear();
  refactorizations_ = 0;
  factorize_impl(a, /*warm=*/false);
}

void Solver::refactorize(const sparse::CscMatrix& a) {
  if (!analyzed()) {
    // Nothing to reuse yet — behave exactly like a first factorize().
    factorize(a);
    return;
  }
  BLR_CHECK(plan_->matches(a),
            "refactorize() requires the pattern analyze() saw (dimension, "
            "nnz and structure must all match); call analyze() or "
            "factorize() for a new pattern");
  // Retire the previous factors' storage into the pool — but only when this
  // solver holds the last reference (a Session may still be serving them;
  // donation destroys the factors in place).
  if (num_ && num_.use_count() == 1 && opts_.reuse_buffers) {
    num_->donate_buffers(buffers_);
  }
  factorize_impl(a, /*warm=*/true);
  stats_.refactorizations = ++refactorizations_;
}

void Solver::factorize_impl(const sparse::CscMatrix& a, bool warm) {
  if (!analyzed()) analyze(a);
  BLR_CHECK(a.rows() == plan_->sf.n(), "matrix size changed since analyze()");

  // Any previous factorization is invalid from here on: a failed attempt
  // must leave factorized() == false so solve()/refine()/preconditioner()
  // reject stale factors instead of silently using them.
  num_.reset();
  stats_.attempts.clear();
  stats_.time_factorize = 0;
  stats_.memory_budget_bytes = opts_.memory_budget_bytes;
  stats_.deadline_seconds = opts_.deadline_ms / 1e3;
  stats_.deadline_margin = 0;
  stats_.resource_rungs = 0;

  // Select the kernel backend for this run (process-global: every la:: gemm,
  // trsm and syrk below dispatches through it, and the dispatch registry
  // counts under its table slice). Resolution order: BLR_BACKEND env, then
  // opts_.backend, with Auto going through CPUID detection. Throws
  // blr::Error on an unrecognized env value — before any numeric work.
  la::set_backend(la::resolve_backend(opts_.backend));
  stats_.backend = la::backend_name(la::current_backend());
  stats_.backend_isa = la::current_backend() == la::Backend::Native
                           ? la::native_isa_name(la::native_isa())
                           : "";

  // The governor spans the whole call — every recovery attempt shares one
  // budget and one deadline clock. Disarmed on every exit path so a failed
  // governed run cannot leave a stale budget on the process-wide tracker.
  governor_.arm(opts_.memory_budget_bytes, opts_.deadline_ms / 1e3);
  struct Disarm {
    ResourceGovernor& g;
    ~Disarm() { g.disarm(); }
  } disarm{governor_};

  const auto capture_scheduler = [this] {
    if (pool_) {
      const ThreadPool::WorkerStats ws = pool_->total_stats();
      stats_.scheduler_workers = pool_->size();
      stats_.scheduler_tasks = ws.executed;
      stats_.scheduler_steals = ws.steals;
      stats_.scheduler_failed_steals = ws.failed_steals;
      stats_.scheduler_idle_sleeps = ws.idle_sleeps;
      stats_.scheduler_discarded = ws.discarded;
    } else {
      stats_.scheduler_workers = 0;
      stats_.scheduler_tasks = 0;
      stats_.scheduler_steals = 0;
      stats_.scheduler_failed_steals = 0;
      stats_.scheduler_idle_sleeps = 0;
      stats_.scheduler_discarded = 0;
    }
  };

  // Per-attempt counter capture (satellite of DESIGN.md §13): every counter
  // source is reset at the top of each attempt, so these are THIS attempt's
  // numbers.
  const auto capture_attempt = [this](FactorizeAttempt& rec) {
    rec.peak_bytes = MemoryTracker::instance().peak_total();
    if (pool_) {
      const ThreadPool::WorkerStats ws = pool_->total_stats();
      rec.scheduler_tasks = ws.executed;
      rec.scheduler_discarded = ws.discarded;
    }
  };

  SolverOptions eff = opts_;
  std::vector<RecoveryStep> ladder;
  std::vector<RecoveryStep> res_ladder;
  if (opts_.recovery.enabled) {
    ladder = opts_.recovery.ladder.empty() ? RecoveryPolicy::default_ladder()
                                           : opts_.recovery.ladder;
    res_ladder = opts_.recovery.resource_ladder.empty()
                     ? RecoveryPolicy::default_resource_ladder()
                     : opts_.recovery.resource_ladder;
  }
  std::size_t rung = 0;
  std::size_t res_rung = 0;
  std::string action = "initial";

  for (int attempt = 0;; ++attempt) {
    switch (eff.factorization) {
      case Factorization::Llt: llt_ = true; break;
      case Factorization::Lu: llt_ = false; break;
      case Factorization::Auto:
        llt_ = (a.symmetry() == sparse::Symmetry::Spd);
        break;
    }

    FactorizeAttempt rec;
    rec.attempt = attempt;
    rec.action = action;
    rec.strategy = strategy_name(eff.strategy);
    rec.precision = precision_name(eff.precision);
    rec.tolerance = static_cast<double>(eff.tolerance);
    rec.pivot_threshold = static_cast<double>(eff.pivot_threshold);
    rec.llt = llt_;

    // Fresh peak measurement, kernel-dispatch counters, and scheduler
    // counters for this attempt.
    MemoryTracker::instance().reset();
    governor_.apply_budget();  // reset() cleared the tracker-side budget
    buffers_.retrack();        // ...and the pool's Workspace charge
    KernelDispatch::instance().reset_counters();
    if (pool_) pool_->reset_stats();

    // AllocFail with a byte threshold arms the tracker's one-shot fail
    // point. The trigger budget is claimed here, at arming time, because
    // the tracker (common layer) cannot see FaultInjection: a transient
    // fault (max_triggers == 1) arms the first attempt only.
    if (eff.fault.kind == FaultInjection::Kind::AllocFail &&
        eff.fault.at_bytes > 0 && eff.fault.try_fire()) {
      MemoryTracker::instance().set_fail_at(eff.fault.at_bytes,
                                            eff.fault.alloc_category);
    }

    // Warm passes replay everything the previous pass learned that is safe
    // to replay under THIS attempt's effective options: learned ranks
    // (verify-and-grow, so always safe) and pooled buffers.
    NumericFactor::Reuse reuse;
    if (warm) {
      if (opts_.warm_start && ranks_.valid) reuse.ranks = &ranks_;
      if (opts_.reuse_buffers) reuse.buffers = &buffers_;
    }

    Timer timer;
    try {
      num_ = std::make_shared<NumericFactor>(a, plan_->ord, plan_->sf, eff,
                                             llt_, &governor_, reuse);
      num_->factorize(pool_.get());
      rec.seconds = timer.elapsed();
      rec.succeeded = true;
      stats_.time_factorize += rec.seconds;
      capture_attempt(rec);
      stats_.attempts.push_back(std::move(rec));
      if (opts_.deadline_ms > 0) {
        stats_.deadline_margin =
            opts_.deadline_ms / 1e3 - governor_.elapsed_seconds();
      }
      break;
    } catch (NumericalError& e) {
      rec.seconds = timer.elapsed();
      stats_.time_factorize += rec.seconds;
      capture_attempt(rec);
      num_.reset();
      e.report().attempt = attempt;
      rec.error = e.report().to_string();
      stats_.attempts.push_back(std::move(rec));
      capture_scheduler();  // counters of the failed (cancelled) attempt
      if (rung >= ladder.size()) {
        // Ladder exhausted (or recovery disabled): surface the structured
        // report, re-stamped with the attempt index. Remember the summary so
        // a later solve() on the unfactorized solver can explain itself.
        last_error_ = e.report().to_string();
        throw NumericalError(e.report().to_string(), e.report());
      }
      action = recovery_action_name(ladder[rung].action);
      apply_recovery_step(eff, ladder[rung]);
      ++rung;
    } catch (ResourceError& e) {
      rec.seconds = timer.elapsed();
      stats_.time_factorize += rec.seconds;
      capture_attempt(rec);
      num_.reset();
      e.report().attempt = attempt;
      rec.resource = true;
      rec.error = e.report().to_string();
      stats_.attempts.push_back(std::move(rec));
      capture_scheduler();
      // Deadline breaches are terminal: no degradation rung recovers spent
      // wall-clock, and the expired watchdog would trip a retry instantly.
      if (e.report().kind == ResourceKind::Deadline ||
          res_rung >= res_ladder.size()) {
        last_error_ = e.report().to_string();
        throw ResourceError(e.report().to_string(), e.report());
      }
      action = recovery_action_name(res_ladder[res_rung].action);
      apply_recovery_step(eff, res_ladder[res_rung]);
      ++res_rung;
      stats_.resource_rungs = static_cast<int>(res_rung);
    }
  }

  capture_scheduler();
  last_error_.clear();

  stats_.factor_entries_dense = llt_ ? plan_->sf.factor_entries_lower()
                                     : plan_->sf.factor_entries_lu();
  stats_.factor_entries_final = num_->final_entries();
  stats_.factor_bytes_final = num_->final_bytes();
  stats_.factor_bytes_lowrank = num_->lowrank_bytes();
  stats_.num_fp32_blocks = num_->num_fp32_blocks();
  stats_.factors_peak_bytes = MemoryTracker::instance().peak(MemCategory::Factors);
  stats_.total_peak_bytes = MemoryTracker::instance().peak_total();
  stats_.num_lowrank_blocks = num_->num_lowrank_blocks();
  stats_.num_dense_blocks = num_->num_dense_blocks();
  stats_.average_rank = num_->average_rank();
  stats_.dense_block_fraction = num_->dense_block_fraction();
  stats_.pivots_replaced = num_->pivots_replaced();
  stats_.dispatch = KernelDispatch::instance().snapshot();

  // Warm-start bookkeeping for the NEXT pass: remember this pass's final
  // per-block ranks, and surface this pass's warm/buffer counters.
  num_->harvest_ranks(ranks_);
  const WarmCounters& wc = num_->warm_counters();
  stats_.warm.attempts = wc.attempts.load(std::memory_order_relaxed);
  stats_.warm.hits = wc.hits.load(std::memory_order_relaxed);
  stats_.warm.grows = wc.grows.load(std::memory_order_relaxed);
  stats_.warm.dense_skips = wc.dense_skips.load(std::memory_order_relaxed);
  const lr::BufferPool::Stats bp = buffers_.stats();
  stats_.buffer_hits = bp.hits;
  stats_.buffer_misses = bp.misses;
  buffers_.trim();  // leftovers fit none of this pass's blocks
  stats_.refactorizations = refactorizations_;

  // Attach the solve context: the schedule comes from the frozen plan's
  // lazy cache (built on the first factorize, replayed verbatim by every
  // refactorize), the engine is the solver-lifetime solve pool. The fresh
  // NumericFactor starts with an empty widen cache — a refactorize
  // invalidates the previous epoch's fp64 promotions wholesale.
  bool plan_built = false;
  std::shared_ptr<const SolvePlan> sp = plan_->solve_plan(&plan_built);
  if (plan_built) {
    ++stats_.solve_phase.plan_builds;
  } else {
    ++stats_.solve_phase.plan_reuses;
  }
  num_->set_solve_context(std::move(sp), solve_engine_);
  stats_.solve_phase.widen_tiles = 0;
  stats_.solve_phase.widen_bytes = 0;
}

void Solver::note_solve(const SolveRunInfo& ri, double seconds) const {
  SolverStats& st = const_cast<SolverStats&>(stats_);
  st.time_solve = seconds;
  SolvePhaseStats& sp = st.solve_phase;
  ++sp.solves;
  sp.tasks_executed += ri.tasks;
  if (ri.parallel) {
    ++sp.parallel_solves;
  } else {
    ++sp.sequential_solves;
  }
  sp.widen_hits += ri.widen_hits;
  sp.widen_tiles = num_->widen_cache_tiles();
  sp.widen_bytes = num_->widen_cache_bytes();
  // Re-snapshot the dispatch table so the solve kernels' rows appear in
  // stats() without waiting for the next factorize (the table accumulates
  // since the successful attempt's reset, so the factorization rows are
  // unchanged — solves only grow the solve_* rows).
  st.dispatch = KernelDispatch::instance().snapshot();
  sp.trsm_seconds = 0;
  sp.gemm_seconds = 0;
  for (const DispatchCount& d : st.dispatch) {
    if (d.kernel.rfind("solve_trsm", 0) == 0) sp.trsm_seconds += d.seconds;
    if (d.kernel.rfind("solve_gemm", 0) == 0) sp.gemm_seconds += d.seconds;
  }
}

void Solver::require_factors(const char* fn) const {
  if (factorized()) return;
  FailureReport r;
  r.kind = FailureKind::NotFactorized;
  r.strategy = strategy_name(opts_.strategy);
  r.compression = kind_name(opts_.kind);
  r.factorization = llt_ ? "LLt" : "LU";
  r.tolerance = static_cast<double>(opts_.tolerance);
  r.detail = std::string("a successful factorize() is required before ") +
             fn + "()";
  if (!last_error_.empty()) r.detail += "; last failure: " + last_error_;
  throw NumericalError(r.to_string(), r);
}

void Solver::solve(const real_t* b, real_t* x) const {
  require_factors("solve");
  Timer timer;
  const index_t n = plan_->sf.n();
  SolveRunInfo ri;
  num_->solve(la::DConstView(b, n, 1, n), la::DView(x, n, 1, n), &ri);
  note_solve(ri, timer.elapsed());
}

std::vector<real_t> Solver::solve(const std::vector<real_t>& b) const {
  std::vector<real_t> x(b.size());
  solve(b.data(), x.data());
  return x;
}

void Solver::solve(la::DConstView b, la::DView x) const {
  require_factors("solve");
  Timer timer;
  SolveRunInfo ri;
  num_->solve(b, x, &ri);
  note_solve(ri, timer.elapsed());
}

Preconditioner Solver::preconditioner() const {
  require_factors("preconditioner");
  const NumericFactor* num = num_.get();
  return [num](const real_t* in, real_t* out) { num->solve(in, out); };
}

const std::vector<TraceEvent>& Solver::trace() const {
  BLR_CHECK(factorized(), "factorize() must be called before trace()");
  return num_->trace();
}

void Solver::write_trace_csv(const std::string& path) const {
  const auto& events = trace();
  std::ofstream out(path);
  BLR_CHECK(out.good(), "cannot open trace file: " + path);
  out << "cblk,worker,start_s,end_s\n";
  out.precision(9);
  for (const auto& e : events) {
    out << e.cblk << ',' << e.worker << ',' << e.start << ',' << e.end << '\n';
  }
}

void Solver::print_summary(std::ostream& os) const {
  os << "BLR solver summary\n"
     << "  strategy      : " << strategy_name(opts_.strategy) << " / "
     << kind_name(opts_.kind) << ", tau = " << opts_.tolerance << "\n"
     << "  scheduling    : "
     << (opts_.scheduling == Scheduling::LeftLooking ? "left-looking"
                                                     : "right-looking")
     << ", threads = " << opts_.threads << "\n"
     << "  precision     : " << precision_name(opts_.precision);
  if (opts_.precision == TilePrecision::MixedTiles &&
      opts_.mixed_rank_threshold >= 0) {
    os << " (rank cap " << opts_.mixed_rank_threshold << ")";
  }
  os << "\n"
     << "  backend       : " << la::backend_choice_name(opts_.backend);
  if (!stats_.backend.empty()) {
    os << " -> " << stats_.backend;
    if (!stats_.backend_isa.empty()) os << " (" << stats_.backend_isa << ")";
  }
  os << "\n";
  if (!analyzed()) {
    os << "  (not analyzed yet)\n";
    return;
  }
  os << "  matrix        : n = " << stats_.n << ", " << stats_.num_cblks
     << " column blocks, " << stats_.num_bloks << " blocks\n"
     << "  analyze       : " << stats_.time_analyze << " s (graph "
     << stats_.analyze_phase.graph_seconds << ", ordering "
     << stats_.analyze_phase.ordering_seconds << ", amalgamate "
     << stats_.analyze_phase.amalgamate_seconds << ", split + symbolic "
     << stats_.analyze_phase.symbolic_seconds << ")\n";
  if (!factorized()) {
    os << "  (not factorized yet)\n";
    return;
  }
  os << "  factorization : " << (llt_ ? "LL^t" : "LU") << ", "
     << stats_.time_factorize << " s\n"
     << "  factors       : "
     << static_cast<double>(stats_.factor_bytes_final) / 1e6
     << " MB (dense "
     << static_cast<double>(stats_.factor_entries_dense) * sizeof(real_t) / 1e6
     << " MB, ratio " << stats_.compression_ratio() << "x)\n"
     << "  blocks        : " << stats_.num_lowrank_blocks << " low-rank (avg rank "
     << stats_.average_rank << "), " << stats_.num_dense_blocks << " dense";
  if (stats_.num_fp32_blocks > 0) {
    os << ", " << stats_.num_fp32_blocks << " in fp32";
  }
  os << "\n"
     << "  dense fraction: " << stats_.dense_block_fraction
     << " of compressible blocks kept dense\n"
     << "  memory peak   : "
     << static_cast<double>(stats_.factors_peak_bytes) / 1e6 << " MB factors, "
     << static_cast<double>(stats_.total_peak_bytes) / 1e6 << " MB total\n";
  if (stats_.memory_budget_bytes > 0 || stats_.deadline_seconds > 0) {
    os << "  governance    :";
    if (stats_.memory_budget_bytes > 0) {
      os << " budget "
         << static_cast<double>(stats_.memory_budget_bytes) / 1e6
         << " MB (peak "
         << 100.0 * static_cast<double>(stats_.total_peak_bytes) /
                static_cast<double>(stats_.memory_budget_bytes)
         << "% of budget)";
    }
    if (stats_.deadline_seconds > 0) {
      if (stats_.memory_budget_bytes > 0) os << ",";
      os << " deadline " << stats_.deadline_seconds << " s (margin "
         << stats_.deadline_margin << " s)";
    }
    if (stats_.resource_rungs > 0) {
      os << ", " << stats_.resource_rungs << " degradation rung"
         << (stats_.resource_rungs > 1 ? "s" : "");
    }
    os << "\n";
  }
  if (stats_.pivots_replaced > 0) {
    os << "  static pivots : " << stats_.pivots_replaced << " replaced\n";
  }
  if (stats_.scheduler_workers > 0) {
    os << "  scheduler     : " << stats_.scheduler_workers << " workers, "
       << stats_.scheduler_tasks << " tasks, " << stats_.scheduler_steals
       << " steals (" << stats_.scheduler_failed_steals << " empty sweeps), "
       << stats_.scheduler_idle_sleeps << " idle sleeps";
    if (stats_.scheduler_discarded > 0) {
      os << ", " << stats_.scheduler_discarded << " cancelled";
    }
    os << "\n";
  }
  if (stats_.solve_phase.solves > 0) {
    const SolvePhaseStats& sp = stats_.solve_phase;
    os << "  solve         : " << sp.solves << " solves ("
       << sp.parallel_solves << " dag, " << sp.sequential_solves
       << " sequential), " << sp.tasks_executed
       << " tasks, plan " << sp.plan_builds << " built / " << sp.plan_reuses
       << " reused, trsm " << sp.trsm_seconds << " s, gemm "
       << sp.gemm_seconds << " s";
    if (sp.widen_tiles > 0) {
      os << ", widen cache " << sp.widen_tiles << " tiles ("
         << static_cast<double>(sp.widen_bytes) / 1e6 << " MB, "
         << sp.widen_hits << " hits)";
    }
    os << "\n";
  }
  if (!stats_.dispatch.empty()) {
    os << "  kernels       :\n";
    for (const DispatchCount& d : stats_.dispatch) {
      os << "    " << d.kernel << "@" << d.backend << ": " << d.calls
         << " calls, "
         << static_cast<double>(d.bytes) / 1e6 << " MB, " << d.seconds
         << " s";
      if (d.flops > 0 && d.seconds > 0) os << ", " << d.gflops() << " GF/s";
      os << "\n";
    }
  }
  if (stats_.attempts.size() > 1) {
    os << "  recovery      : " << stats_.attempts.size() << " attempts\n";
    for (const FactorizeAttempt& at : stats_.attempts) {
      os << "    #" << at.attempt << " [" << at.action << "]"
         << (at.resource ? " [resource]" : "") << " " << at.strategy
         << (at.llt ? " LL^t" : " LU") << ", tau = " << at.tolerance;
      if (at.pivot_threshold > 0) os << ", pivot = " << at.pivot_threshold;
      if (!at.precision.empty() && at.precision != "fp64") {
        os << ", " << at.precision;
      }
      os << ": "
         << (at.succeeded ? "ok" : at.error) << " (" << at.seconds << " s)\n";
      os << "      peak " << static_cast<double>(at.peak_bytes) / 1e6
         << " MB";
      if (at.scheduler_tasks > 0 || at.scheduler_discarded > 0) {
        os << ", " << at.scheduler_tasks << " tasks ("
           << at.scheduler_discarded << " cancelled)";
      }
      os << "\n";
    }
  }
}

RefinementResult Solver::refine(const sparse::CscMatrix& a, const real_t* b,
                                real_t* x, const RefinementOptions& opts) const {
  require_factors("refine");
  const Preconditioner m = preconditioner();
  return llt_ ? conjugate_gradient(a, m, b, x, opts) : gmres(a, m, b, x, opts);
}

} // namespace blr::core
