#include "core/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/kernel_stats.hpp"
#include "core/kernels_dispatch.hpp"

namespace blr::core {

namespace {

template <typename T>
bool all_finite(const la::Matrix<T>& m) {
  const T* p = m.data();
  const std::size_t n = static_cast<std::size_t>(m.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(static_cast<double>(p[i]))) return false;
  }
  return true;
}

bool all_finite(const lr::Tile& t) {
  if (t.rank() == 0) return true;
  if (t.is_lowrank()) {
    if (t.precision() == lr::Precision::Fp32)
      return all_finite(t.lr().u32) && all_finite(t.lr().v32);
    return all_finite(t.lr().u) && all_finite(t.lr().v);
  }
  return all_finite(t.dense());
}

/// Index of the blok (within cblk c) whose row interval contains `row`.
index_t find_blok_row(const symbolic::Cblk& c, index_t row) {
  index_t lo = 0;
  index_t hi = static_cast<index_t>(c.bloks.size()) - 1;
  while (lo <= hi) {
    const index_t mid = (lo + hi) / 2;
    const symbolic::Blok& b = c.bloks[static_cast<std::size_t>(mid)];
    if (row < b.frow) hi = mid - 1;
    else if (row >= b.lrow) lo = mid + 1;
    else return mid;
  }
  throw Error("assembly: row outside symbolic structure");
}

} // namespace

NumericFactor::NumericFactor(const sparse::CscMatrix& a,
                             const ordering::Ordering& ord,
                             const symbolic::SymbolicFactor& sf,
                             const SolverOptions& opts, bool llt,
                             ResourceGovernor* governor, Reuse reuse)
    : ord_(ord), sf_(sf), opts_(opts), llt_(llt), reuse_(reuse),
      data_(static_cast<std::size_t>(sf.num_cblks())),
      locks_(static_cast<std::size_t>(sf.num_cblks())),
      deps_(static_cast<std::size_t>(sf.num_cblks())), gov_(governor) {
  if (opts_.check_finite) {
    // Guard the assembly input: a single NaN/Inf would otherwise propagate
    // silently through the factorization into a garbage answer.
    const auto& vals = a.values();
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (!std::isfinite(static_cast<double>(vals[i]))) {
        std::ostringstream os;
        os << "input matrix value at nnz slot " << i << " is "
           << vals[i];
        fail(make_report(FailureKind::NonFiniteInput, -1, -1, std::nan(""),
                         os.str()));
      }
    }
  }
  if (!llt_ && opts_.pivot_threshold > 0) {
    // Absolute static-pivot cutoff relative to the matrix magnitude.
    real_t amax = 0;
    for (const real_t v : a.values()) amax = std::max(amax, std::abs(v));
    pivot_cutoff_ = opts_.pivot_threshold * amax;
  }
  policy_ = make_update_policy(opts_);
  pctx_.kind = opts_.kind;
  pctx_.tolerance = opts_.tolerance;
  pctx_.adaptive_rank_fraction = opts_.adaptive_rank_fraction;
  pctx_.precision = opts_.precision;
  pctx_.mixed_rank_threshold = opts_.mixed_rank_threshold;
  pctx_.compression_site = [this](index_t k) { maybe_fail_compression(k); };
  // Warm-start wiring (re-factorization only; reuse_ is empty on cold runs).
  // A prebuilt DAG skeleton for the other factorization flavor is dropped
  // here rather than trusted — the recovery ladder can flip LLᵗ → LU
  // mid-call, and the address spaces differ.
  pctx_.warm = opts_.warm_start ? reuse_.ranks : nullptr;
  pctx_.warm_slack = opts_.warm_rank_slack;
  pctx_.warm_dense_skip = opts_.warm_dense_skip;
  pctx_.warm_counters = &warm_counters_;
  if (reuse_.dag != nullptr && reuse_.dag->llt() != llt_) reuse_.dag = nullptr;
  if (!opts_.reuse_buffers) reuse_.buffers = nullptr;
  iperm_.resize(ord_.perm.size());
  for (std::size_t i = 0; i < ord_.perm.size(); ++i)
    iperm_[static_cast<std::size_t>(ord_.perm[i])] = static_cast<index_t>(i);
  ap_ = a.permuted(ord_.perm);
  if (!llt_) apt_ = ap_.transposed();
  input_track_ = TrackedAlloc(
      MemCategory::Workspace,
      (static_cast<std::size_t>(ap_.nnz()) + static_cast<std::size_t>(apt_.nnz())) *
          (sizeof(real_t) + sizeof(index_t)));
  if (opts_.scheduling == Scheduling::RightLooking &&
      opts_.dataflow == Dataflow::Barrier) {
    // The dataflow schedule assembles lazily (one Assemble task per
    // supernode inside the DAG), so it keeps the permuted input alive until
    // factorize() finishes instead of assembling everything here.
    assemble_all();
    ap_ = sparse::CscMatrix();
    apt_ = sparse::CscMatrix();
    input_track_ = TrackedAlloc();
  }
}

bool NumericFactor::compressible(index_t k, const symbolic::Blok& b) const {
  return sf_.cblk(k).width() >= opts_.compress_min_width &&
         b.height() >= opts_.compress_min_height;
}

FailureReport NumericFactor::make_report(FailureKind kind, index_t supernode,
                                         index_t local_pivot, double pivot_mag,
                                         std::string detail) const {
  FailureReport r;
  r.kind = kind;
  r.supernode = supernode;
  r.local_pivot = local_pivot;
  r.pivot_magnitude = pivot_mag;
  r.strategy = strategy_name(opts_.strategy);
  r.compression = kind_name(opts_.kind);
  r.factorization = llt_ ? "LLt" : "LU";
  r.tolerance = static_cast<double>(opts_.tolerance);
  r.elapsed_seconds = trace_clock_.elapsed();
  r.detail = std::move(detail);
  return r;
}

void NumericFactor::fail(FailureReport report) const {
  std::string what = report.to_string();
  throw NumericalError(std::move(what), std::move(report));
}

void NumericFactor::record_failure(FailureReport report) {
  {
    std::lock_guard lock(error_mutex_);
    if (error_.empty()) {
      error_ = report.to_string();
      report_ = std::move(report);
    }
  }
  failed_.store(true, std::memory_order_seq_cst);
  // Cooperative cancellation: drain every queued elimination so a doomed
  // parallel factorization returns in the time of one in-flight task, not
  // the time of the whole elimination tree.
  if (pool_ != nullptr) pool_->cancel();
}

void NumericFactor::stamp_resource(ResourceReport& r, index_t k) const {
  if (r.supernode < 0) r.supernode = k;
  if (r.elapsed_seconds == 0) {
    r.elapsed_seconds =
        gov_ != nullptr ? gov_->elapsed_seconds() : trace_clock_.elapsed();
  }
}

void NumericFactor::record_resource_failure(ResourceReport report) {
  {
    std::lock_guard lock(error_mutex_);
    if (error_.empty()) {
      error_ = report.to_string();
      resource_report_ = std::move(report);
      resource_failed_ = true;
    }
  }
  failed_.store(true, std::memory_order_seq_cst);
  // Same drain contract as record_failure: cancel so the doomed run returns
  // in the time of the in-flight tasks, with ThreadPool::pending() == 0.
  if (pool_ != nullptr) pool_->cancel();
}

void NumericFactor::throw_recorded() const {
  // Called only after the run drained (wait_idle returned / sequential loop
  // exited): no concurrent writers remain, so the reports are safe to read
  // without the mutex.
  if (resource_failed_) throw ResourceError(error_, resource_report_);
  throw NumericalError(error_, report_);
}

void NumericFactor::poll_deadline(index_t k) const {
  if (gov_ == nullptr) return;
  if (!gov_->deadline_exceeded()) return;
  ResourceReport r = gov_->deadline_report(k);
  throw ResourceError(r.to_string(), std::move(r));
}

void NumericFactor::maybe_inject_alloc_fail(index_t k) const {
  if (opts_.fault.kind != FaultInjection::Kind::AllocFail) return;
  // at_bytes > 0 arms the MemoryTracker fail point instead (Solver does it
  // at attempt start); this hook handles the supernode-targeted form.
  if (opts_.fault.at_bytes != 0) return;
  if (opts_.fault.supernode != k || !opts_.fault.try_fire()) return;
  const MemoryTracker& t = MemoryTracker::instance();
  ResourceReport r;
  r.kind = ResourceKind::MemoryBudget;
  r.budget_bytes = t.budget();
  r.category = MemCategory::Factors;
  for (std::size_t c = 0; c < r.live_bytes.size(); ++c) {
    r.live_bytes[c] = t.current(static_cast<MemCategory>(c));
  }
  r.peak_bytes = t.peak_total();
  r.supernode = k;
  r.injected = true;
  r.elapsed_seconds =
      gov_ != nullptr ? gov_->elapsed_seconds() : trace_clock_.elapsed();
  r.detail = "injected allocation failure at supernode assembly";
  throw ResourceError(r.to_string(), std::move(r));
}

void NumericFactor::maybe_skew_clock(index_t k) {
  if (opts_.fault.kind != FaultInjection::Kind::ClockSkew) return;
  if (opts_.fault.supernode != k || gov_ == nullptr) return;
  if (!opts_.fault.try_fire()) return;
  gov_->skew(opts_.fault.skew_seconds);
}

void NumericFactor::check_cblk_finite(index_t k, FailureKind kind) const {
  const CblkData& cd = data_[static_cast<std::size_t>(k)];
  const char* where = nullptr;
  if (!all_finite(cd.diag)) where = "diagonal block";
  if (where == nullptr) {
    for (const auto& blk : cd.lpanel) {
      if (!all_finite(blk)) { where = "L panel"; break; }
    }
  }
  if (where == nullptr) {
    for (const auto& blk : cd.upanel) {
      if (!all_finite(blk)) { where = "U panel"; break; }
    }
  }
  if (where != nullptr) {
    std::ostringstream os;
    os << "non-finite value in " << where << " of supernode " << k
       << (kind == FailureKind::NonFiniteBlock ? " after assembly"
                                               : " after panel factorization");
    fail(make_report(kind, k, -1, std::nan(""), os.str()));
  }
}

void NumericFactor::maybe_fail_compression(index_t k) {
  if (opts_.fault.kind != FaultInjection::Kind::CompressionFail) return;
  const index_t idx = compressions_.fetch_add(1, std::memory_order_relaxed);
  if (idx == opts_.fault.index && opts_.fault.try_fire()) {
    std::ostringstream os;
    os << "injected failure of compression #" << idx;
    fail(make_report(FailureKind::CompressionFailure, k, -1, std::nan(""),
                     os.str()));
  }
}

void NumericFactor::gather_panel(index_t k, const sparse::CscMatrix& src,
                                 std::vector<lr::Tile>& panel, bool fill_diag) {
  const symbolic::Cblk& c = sf_.cblk(k);
  const index_t w = c.width();
  CblkData& cd = data_[static_cast<std::size_t>(k)];
  la::DMatrix& diag = cd.diag.dense();

  std::vector<la::DMatrix> scratch;
  scratch.reserve(c.bloks.size());
  for (const auto& b : c.bloks) {
    // On a re-factorization the previous pass's retired factor buffers are
    // recycled through the pool — same shapes, so steady state is all hits.
    scratch.push_back(reuse_.buffers != nullptr
                          ? reuse_.buffers->acquire(b.height(), w)
                          : la::DMatrix(b.height(), w));
  }

  const auto& colptr = src.colptr();
  const auto& rowind = src.rowind();
  const auto& values = src.values();
  for (index_t j = c.fcol; j < c.lcol; ++j) {
    for (index_t p = colptr[static_cast<std::size_t>(j)];
         p < colptr[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t i = rowind[static_cast<std::size_t>(p)];
      const real_t v = values[static_cast<std::size_t>(p)];
      if (i < c.fcol) continue;  // upper part, owned by an earlier cblk
      if (i < c.lcol) {
        if (fill_diag) diag(i - c.fcol, j - c.fcol) = v;
        continue;
      }
      const index_t idx = find_blok_row(c, i);
      scratch[static_cast<std::size_t>(idx)](
          i - c.bloks[static_cast<std::size_t>(idx)].frow, j - c.fcol) = v;
    }
  }

  // The policy decides each tile's representation (Minimal-Memory and
  // Adaptive compress here; Dense and Just-In-Time keep the gathered dense).
  panel.reserve(c.bloks.size());
  const bool upper = !fill_diag;  // U-panel gathers come from the transpose
  for (std::size_t idx = 0; idx < c.bloks.size(); ++idx) {
    lr::Tile t =
        policy_->assemble(k, BlockSite{static_cast<index_t>(idx), upper},
                          std::move(scratch[idx]),
                          compressible(k, c.bloks[idx]), pctx_, cd.arena);
    t.advance(lr::TileState::Assembled);
    if (t.is_lowrank()) t.advance(lr::TileState::Compressed);
    panel.push_back(std::move(t));
  }
}

void NumericFactor::assemble_cblk(index_t k) {
  poll_deadline(k);
  maybe_inject_alloc_fail(k);
  const symbolic::Cblk& c = sf_.cblk(k);
  CblkData& cd = data_[static_cast<std::size_t>(k)];
  cd.diag = reuse_.buffers != nullptr
                ? lr::Tile::from_dense(
                      reuse_.buffers->acquire(c.width(), c.width()), cd.arena)
                : lr::Tile::make_dense(c.width(), c.width(), cd.arena);
  gather_panel(k, ap_, cd.lpanel, /*fill_diag=*/true);
  if (!llt_) gather_panel(k, apt_, cd.upanel, /*fill_diag=*/false);
  if (opts_.fault.kind == FaultInjection::Kind::PoisonBlock &&
      opts_.fault.supernode == k && opts_.fault.try_fire()) {
    // Injected data corruption: the non-finite assembly guard below (or the
    // factored-panel guard, when check_finite is off at assembly) must turn
    // this into a structured failure instead of a garbage answer.
    cd.diag.dense()(0, 0) = std::numeric_limits<real_t>::quiet_NaN();
  }
  if (opts_.check_finite) check_cblk_finite(k, FailureKind::NonFiniteBlock);
  cd.diag.advance(lr::TileState::Assembled);
  if (opts_.accumulate_updates) {
    // Rank-0 low-rank tiles in the Workspace arena; appended contributions
    // grow them until a flush folds them into the panel tile.
    cd.lacc.reserve(c.bloks.size());
    for (const auto& b : c.bloks) {
      cd.lacc.push_back(lr::Tile::make_lowrank(b.height(), c.width(),
                                               lr::LrMatrix(), cd.acc_arena));
    }
    if (!llt_) {
      cd.uacc.reserve(c.bloks.size());
      for (const auto& b : c.bloks) {
        cd.uacc.push_back(lr::Tile::make_lowrank(b.height(), c.width(),
                                                 lr::LrMatrix(), cd.acc_arena));
      }
    }
  }
}

void NumericFactor::flush_accumulator(index_t cblk, bool upper, index_t blok_idx) {
  CblkData& cd = data_[static_cast<std::size_t>(cblk)];
  auto& accs = upper ? cd.uacc : cd.lacc;
  lr::Tile& acc = accs[static_cast<std::size_t>(blok_idx)];
  if (acc.rank() <= 0) return;

  const index_t rows = acc.rows();
  const index_t cols = acc.cols();
  lr::Tile p = std::move(acc);  // Workspace accounting moves with it
  acc = lr::Tile::make_lowrank(rows, cols, lr::LrMatrix(), cd.acc_arena);

  lr::Tile& tb = (upper ? cd.upanel : cd.lpanel)[static_cast<std::size_t>(blok_idx)];
  // The accumulator is already padded to the block's shape.
  dispatch::extend_add(tb, p, 0, 0, opts_.kind, opts_.tolerance, false);
}

void NumericFactor::flush_all_accumulators(index_t cblk) {
  CblkData& cd = data_[static_cast<std::size_t>(cblk)];
  for (std::size_t i = 0; i < cd.lacc.size(); ++i)
    flush_accumulator(cblk, false, static_cast<index_t>(i));
  for (std::size_t i = 0; i < cd.uacc.size(); ++i)
    flush_accumulator(cblk, true, static_cast<index_t>(i));
}

void NumericFactor::assemble_all() {
  for (index_t k = 0; k < sf_.num_cblks(); ++k) {
    try {
      assemble_cblk(k);
    } catch (ResourceError& e) {
      // Sequential context (constructor): stamp the requesting supernode and
      // let the breach propagate to Solver::factorize's resource ladder.
      stamp_resource(e.report(), k);
      throw;
    }
  }
}

void NumericFactor::factorize(ThreadPool* pool) {
  const index_t ncblk = sf_.num_cblks();
  failed_.store(false);
  {
    std::lock_guard lock(error_mutex_);
    error_.clear();
    report_ = FailureReport{};
    resource_failed_ = false;
    resource_report_ = ResourceReport{};
  }
  trace_.clear();
  trace_clock_.reset();

  if (opts_.scheduling == Scheduling::LeftLooking) {
    // The left-looking schedule is inherently sequential here: each
    // supernode pulls all its updates when it is eliminated.
    factorize_left_looking();
    return;
  }

  if (opts_.dataflow == Dataflow::Dag) {
    factorize_dag(pool);
    return;
  }

  // Dependency counters: one per incoming update group (k, f), i.e. one
  // per blok facing the target — O(Σ nb), drained once per group.
  for (auto& d : deps_) d.store(0, std::memory_order_relaxed);
  for (index_t k = 0; k < ncblk; ++k) {
    for (const symbolic::Blok& b : sf_.cblk(k).bloks) {
      deps_[static_cast<std::size_t>(b.fcblk)].fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  if (pool == nullptr) {
    // Sequential right-looking pass: elimination order guarantees every
    // update lands before its target is processed.
    for (index_t k = 0; k < ncblk && !failed_.load(std::memory_order_relaxed);
         ++k) {
      eliminate(k);
    }
    if (failed_.load()) throw_recorded();
    return;
  }

  pool_ = pool;
  // Snapshot the initially-ready set before submitting anything: a running
  // task may drain another cblk's counter to zero and submit it itself, and
  // submitting it here too would eliminate the same supernode twice.
  std::vector<index_t> ready;
  for (index_t k = 0; k < ncblk; ++k) {
    if (deps_[static_cast<std::size_t>(k)].load(std::memory_order_relaxed) == 0) {
      ready.push_back(k);
    }
  }
  // Submit with critical-path priorities: among the (many) initially-ready
  // leaves the scheduler picks the one heading the most expensive chain to
  // the root first, which keeps the elimination tree's critical path moving.
  const auto& prio = sf_.critical_priorities();
  for (const index_t k : ready) {
    pool->submit([this, k] { eliminate(k); }, prio[static_cast<std::size_t>(k)]);
  }
  pool->wait_idle();
  // A failure cancelled the pool to drain queued eliminations; clear the
  // flag so the pool is immediately reusable (recovery retries, benches).
  pool->reset_cancel();
  pool_ = nullptr;
  if (failed_.load()) throw_recorded();
}

void NumericFactor::factorize_left_looking() {
  // For each target, the update groups (source supernode, facing blok) it
  // receives, in the right-looking schedule's (k, f) order.
  struct Update {
    index_t k, f;
  };
  const index_t ncblk = sf_.num_cblks();
  std::vector<std::vector<Update>> incoming(static_cast<std::size_t>(ncblk));
  for (index_t k = 0; k < ncblk; ++k) {
    const auto& bloks = sf_.cblk(k).bloks;
    for (index_t f = 0; f < static_cast<index_t>(bloks.size()); ++f) {
      const index_t t = bloks[static_cast<std::size_t>(f)].fcblk;
      incoming[static_cast<std::size_t>(t)].push_back({k, f});
    }
  }
  std::vector<GroupPair> pairs;

  for (index_t k = 0; k < ncblk; ++k) {
    const double t0 = opts_.collect_trace ? trace_clock_.elapsed() : 0.0;
    try {
      // Allocate and assemble this supernode only now — the memory gain of
      // the left-looking schedule (paper §4.3).
      assemble_cblk(k);
      PanelImage img;
      for (const Update& u : incoming[static_cast<std::size_t>(k)]) {
        pairs.clear();
        collect_group(u.k, u.f, pairs);
        apply_group(u.k, u.f, pairs.data(), pairs.size(), img);
      }
      incoming[static_cast<std::size_t>(k)].clear();
      incoming[static_cast<std::size_t>(k)].shrink_to_fit();
      factor_panel(k, img);
    } catch (ResourceError& e) {
      // Sequential schedule: stamp and propagate straight to the ladder.
      stamp_resource(e.report(), k);
      throw;
    }
    if (opts_.collect_trace) {
      trace_.push_back({k, 0, t0, trace_clock_.elapsed()});
    }
  }
}

// ---- dataflow execution (options.dataflow == Dag, DESIGN.md §12) --------
//
// The factorization becomes a task DAG over per-tile operations. Task ids
// are the canonical sequence numbers — the exact order the barrier driver
// runs the same operations — and applies into one target tile are chained
// (write-after-write edges) in that order, so every tile sees the same value
// history under any topological execution order. Consequence: dataflow runs
// are bit-identical to the sequential barrier run at every thread count.

void NumericFactor::factorize_dag(ThreadPool* pool) {
  pool_ = pool;
  // A Solver-cached skeleton (same plan, same llt flavor) skips the rebuild;
  // the graph is symbolic-only and execute() is const, so sharing one across
  // numeric passes is free of aliasing.
  if (reuse_.dag != nullptr) {
    dagp_ = reuse_.dag;
  } else {
    dag_ = std::make_unique<TaskGraph>(TaskGraph::build(sf_, llt_));
    dagp_ = dag_.get();
  }
  epochs_ = std::make_unique<EpochGate>(dagp_->num_addrs());
  dag_slots_.clear();
  dag_slots_.resize(dagp_->num_updates());
  dag_stats_ = DagStats{};
  dag_stats_.tasks = dagp_->num_tasks();
  dag_stats_.edges = dagp_->num_edges();
  dag_stats_.critical_path = dagp_->critical_path();

  const auto& prio = sf_.critical_priorities();
  const TaskGraph::RunStats rs = dagp_->execute(
      pool, [this](std::uint32_t id) { return run_dag_task(id); },
      [this, &prio](std::uint32_t id) {
        return prio[static_cast<std::size_t>(dagp_->task(id).k)];
      });
  dag_stats_.executed = rs.executed;
  dag_stats_.ready_peak = rs.ready_peak;

  // A failure cancelled the pool (record_failure); make it reusable.
  if (pool != nullptr) pool->reset_cancel();
  pool_ = nullptr;
  dag_slots_.clear();
  dag_slots_.shrink_to_fit();
  dag_.reset();
  dagp_ = nullptr;
  epochs_.reset();
  // The DAG assembles lazily; the permuted input can go only now.
  ap_ = sparse::CscMatrix();
  apt_ = sparse::CscMatrix();
  input_track_ = TrackedAlloc();
  if (failed_.load()) throw_recorded();
}

bool NumericFactor::run_dag_task(std::uint32_t id) {
  if (failed_.load(std::memory_order_relaxed)) return false;
  const DagTask& t = dagp_->task(id);
  try {
    poll_deadline(t.k);
    switch (t.kind) {
      case DagTaskKind::Assemble: dag_assemble(t); break;
      case DagTaskKind::Factor: dag_factor(t); break;
      case DagTaskKind::Compress: dag_compress(t); break;
      case DagTaskKind::Trsm: dag_trsm(t); break;
      case DagTaskKind::Product: dag_product(t); break;
      case DagTaskKind::Apply: dag_apply(t); break;
    }
  } catch (ResourceError& e) {
    stamp_resource(e.report(), t.k);
    record_resource_failure(std::move(e.report()));
    return false;
  } catch (const NumericalError& e) {
    record_failure(e.report());
    return false;
  } catch (const std::exception& e) {
    record_failure(make_report(FailureKind::Unknown, t.k, -1, std::nan(""),
                               e.what()));
    return false;
  }
  return true;
}

void NumericFactor::dag_assemble(const DagTask& t) {
  assemble_cblk(t.k);
  const index_t nb = static_cast<index_t>(sf_.cblk(t.k).bloks.size());
  epochs_->advance(dagp_->diag_addr(t.k), EpochGate::kUnassembled,
                   EpochGate::kAssembled);
  for (index_t i = 0; i < nb; ++i) {
    epochs_->advance(dagp_->panel_addr(t.k, false, i), EpochGate::kUnassembled,
                     EpochGate::kAssembled);
  }
  if (!llt_) {
    for (index_t i = 0; i < nb; ++i) {
      epochs_->advance(dagp_->panel_addr(t.k, true, i), EpochGate::kUnassembled,
                       EpochGate::kAssembled);
    }
  }
}

void NumericFactor::dag_factor(const DagTask& t) {
  const index_t k = t.k;
  CblkData& cd = data_[static_cast<std::size_t>(k)];
  const double t0 = opts_.collect_trace ? trace_clock_.elapsed() : 0.0;
  epochs_->expect(dagp_->diag_addr(k), EpochGate::kAssembled);
  maybe_skew_clock(k);
  poll_deadline(k);

  if (opts_.fault.kind == FaultInjection::Kind::TinyPivot &&
      opts_.fault.supernode == k && opts_.fault.try_fire()) {
    la::DMatrix& dg = cd.diag.dense();
    for (index_t i = 0; i < dg.rows(); ++i) dg(i, 0) = 0;
    dg(0, 0) = 0;
  }

  index_t replaced = 0;
  const index_t info =
      dispatch::factor_diag(cd.diag, cd.ipiv, llt_, pivot_cutoff_, replaced);
  if (replaced > 0)
    pivots_replaced_.fetch_add(replaced, std::memory_order_relaxed);
  if (info != 0) {
    const index_t piv = info - 1;
    const double mag = std::abs(static_cast<double>(cd.diag.dense()(piv, piv)));
    std::ostringstream os;
    os << (llt_ ? "potrf" : "getrf") << " cannot eliminate the pivot";
    fail(make_report(llt_ ? FailureKind::NonPositivePivot
                          : FailureKind::ZeroPivot,
                     k, piv, mag, os.str()));
  }
  if (opts_.check_finite && !all_finite(cd.diag)) {
    std::ostringstream os;
    os << "non-finite value in diagonal block of supernode " << k
       << " after panel factorization";
    fail(make_report(FailureKind::NonFinitePanel, k, -1, std::nan(""),
                     os.str()));
  }
  cd.diag.advance(lr::TileState::Factored);
  cd.eliminated = true;
  epochs_->advance(dagp_->diag_addr(k), EpochGate::kAssembled,
                   EpochGate::kFactored);
  if (opts_.collect_trace) {
    // One event per supernode, anchored at its diagonal factorization (the
    // panel's serialization point in the DAG schedule).
    const double t1 = trace_clock_.elapsed();
    const int wid = ThreadPool::current_worker();
    const std::size_t worker = wid >= 0 ? static_cast<std::size_t>(wid) : 0;
    std::lock_guard lock(trace_mutex_);
    trace_.push_back({k, worker, t0, t1});
  }
}

void NumericFactor::dag_compress(const DagTask& t) {
  const std::uint64_t addr = dagp_->panel_addr(t.k, t.upper, t.bi);
  epochs_->expect(addr, EpochGate::kAssembled);
  if (opts_.accumulate_updates) flush_accumulator(t.k, t.upper, t.bi);
  CblkData& cd = data_[static_cast<std::size_t>(t.k)];
  lr::Tile& blk =
      (t.upper ? cd.upanel : cd.lpanel)[static_cast<std::size_t>(t.bi)];
  const symbolic::Blok& sb = sf_.cblk(t.k).bloks[static_cast<std::size_t>(t.bi)];
  policy_->at_elimination(t.k, BlockSite{t.bi, t.upper}, blk,
                          compressible(t.k, sb), pctx_);
  epochs_->advance(addr, EpochGate::kAssembled, EpochGate::kEliminating);
}

void NumericFactor::dag_trsm(const DagTask& t) {
  const std::uint64_t addr = dagp_->panel_addr(t.k, t.upper, t.bi);
  epochs_->expect(dagp_->diag_addr(t.k), EpochGate::kFactored);
  epochs_->expect(addr, EpochGate::kEliminating);
  CblkData& cd = data_[static_cast<std::size_t>(t.k)];
  lr::Tile& blk =
      (t.upper ? cd.upanel : cd.lpanel)[static_cast<std::size_t>(t.bi)];
  if (blk.rank() == 0) {
    blk.advance(lr::TileState::Factored);
  } else {
    dispatch::panel_solve(cd.diag, cd.ipiv, blk, llt_, t.upper);
    blk.advance(lr::TileState::Factored);
  }
  if (opts_.check_finite && !all_finite(blk)) {
    std::ostringstream os;
    os << "non-finite value in " << (t.upper ? "U panel" : "L panel")
       << " of supernode " << t.k << " after panel factorization";
    fail(make_report(FailureKind::NonFinitePanel, t.k, -1, std::nan(""),
                     os.str()));
  }
  epochs_->advance(addr, EpochGate::kEliminating, EpochGate::kFactored);
}

void NumericFactor::dag_product(const DagTask& t) {
  CblkData& cd = data_[static_cast<std::size_t>(t.k)];
  const lr::Tile* a = &cd.lpanel[static_cast<std::size_t>(t.bi)];
  const lr::Tile* b = llt_ ? &cd.lpanel[static_cast<std::size_t>(t.bj)]
                           : &cd.upanel[static_cast<std::size_t>(t.bj)];
  epochs_->expect(dagp_->panel_addr(t.k, false, t.bi), EpochGate::kFactored);
  epochs_->expect(llt_ ? dagp_->panel_addr(t.k, false, t.bj)
                       : dagp_->panel_addr(t.k, true, t.bj),
                  EpochGate::kFactored);

  auto slot = std::make_unique<DagUpdateSlot>();
  slot->loc = locate_update(t.k, t.bi, t.bj);
  slot->a = a;
  slot->b = b;
  if (a->rank() == 0 || b->rank() == 0) {
    slot->zero = true;
  } else if (!a->is_lowrank() && !b->is_lowrank()) {
    // Dense×dense fuses the GEMM into the target under the lock, so the
    // whole update defers to the (chained) apply task.
    slot->dense_pair = true;
  } else {
    slot->prod = dispatch::product(*a, *b, opts_.kind, opts_.tolerance,
                                   update_need_ortho(slot->loc));
  }
  dag_slots_[t.slot] = std::move(slot);
}

void NumericFactor::dag_apply(const DagTask& t) {
  std::unique_ptr<DagUpdateSlot> slot =
      std::move(dag_slots_[t.slot]);
  if (!slot) throw Error("dag: apply task ran without its product");
  const UpdateLoc& loc = slot->loc;
  const std::uint64_t taddr =
      loc.target_diag ? dagp_->diag_addr(loc.tcblk)
                      : dagp_->panel_addr(loc.tcblk, loc.target_upper,
                                         loc.tb_idx);
  // Updates may only land on assembled, not-yet-eliminating tiles — the
  // runtime-checked half of the Tile state contract at DAG granularity.
  epochs_->expect(taddr, EpochGate::kAssembled);
  if (slot->zero) return;
  std::lock_guard guard(locks_[static_cast<std::size_t>(loc.tcblk)]);
  if (slot->dense_pair) {
    dense_pair_locked(loc, *slot->a, *slot->b);
  } else {
    finish_update_locked(loc, std::move(slot->prod));
  }
}

void NumericFactor::eliminate(index_t k) {
  if (failed_.load(std::memory_order_relaxed)) return;
  const double t0 = opts_.collect_trace ? trace_clock_.elapsed() : 0.0;
  try {
    // k's factored dense panel, read by every update segment of k.
    const auto img = std::make_shared<PanelImage>();
    factor_panel(k, *img);

    // Right-looking updates on the trailing supernodes. Large panels are
    // split into segments of facing bloks (whole update groups, DESIGN.md
    // §9) submitted as subtasks, so the updates of one huge supernode
    // spread across the pool instead of pinning a single worker.
    const symbolic::Cblk& c = sf_.cblk(k);
    const index_t nb = static_cast<index_t>(c.bloks.size());
    const bool split = pool_ != nullptr && opts_.panel_split_rows > 0 &&
                       nb >= 2 && c.height() >= opts_.panel_split_rows;
    if (!split) {
      update_range(k, 0, nb, *img);
    } else {
      const index_t height = c.height();
      index_t nseg = std::min<index_t>(
          nb, (height + opts_.panel_split_rows - 1) / opts_.panel_split_rows);
      nseg = std::min<index_t>(nseg, 4 * pool_->size());
      // Greedy row-balanced segmentation of the column bloks.
      const index_t per = (height + nseg - 1) / nseg;
      const std::int64_t pr =
          sf_.critical_priorities()[static_cast<std::size_t>(k)];
      index_t jb = 0;
      index_t acc = 0;
      for (index_t j = 0; j < nb; ++j) {
        acc += c.bloks[static_cast<std::size_t>(j)].height();
        if (acc >= per || j == nb - 1) {
          const index_t je = j + 1;
          if (jb == 0 && je == nb) {
            update_range(k, 0, nb, *img);  // degenerate single segment
          } else {
            pool_->submit(
                [this, k, jb, je, img] { update_range(k, jb, je, *img); }, pr);
          }
          jb = je;
          acc = 0;
        }
      }
    }
  } catch (ResourceError& e) {
    stamp_resource(e.report(), k);
    record_resource_failure(std::move(e.report()));
  } catch (const NumericalError& e) {
    record_failure(e.report());
  } catch (const std::exception& e) {
    record_failure(make_report(FailureKind::Unknown, k, -1, std::nan(""),
                               e.what()));
  }
  if (opts_.collect_trace) {
    const double t1 = trace_clock_.elapsed();
    const int wid = ThreadPool::current_worker();
    const std::size_t worker = wid >= 0 ? static_cast<std::size_t>(wid) : 0;
    std::lock_guard lock(trace_mutex_);
    trace_.push_back({k, worker, t0, t1});
  }
}

void NumericFactor::update_range(index_t k, index_t jb, index_t je,
                                 PanelImage& img) {
  if (failed_.load(std::memory_order_relaxed)) return;
  try {
    std::vector<GroupPair> pairs;
    for (index_t f = jb; f < je; ++f) {
      // Early exit at group granularity: once a sibling failed the
      // remaining updates are dead work on a doomed factorization.
      if (failed_.load(std::memory_order_relaxed)) return;
      poll_deadline(k);
      pairs.clear();
      const index_t target = collect_group(k, f, pairs);
      apply_group(k, f, pairs.data(), pairs.size(), img);
      release_group(target);
    }
  } catch (ResourceError& e) {
    stamp_resource(e.report(), k);
    record_resource_failure(std::move(e.report()));
  } catch (const NumericalError& e) {
    record_failure(e.report());
  } catch (const std::exception& e) {
    record_failure(make_report(FailureKind::Unknown, k, -1, std::nan(""),
                               e.what()));
  }
}

void NumericFactor::factor_panel(index_t k, PanelImage& img) {
  if (failed_.load(std::memory_order_relaxed)) return;
  maybe_skew_clock(k);
  poll_deadline(k);
  {
    const symbolic::Cblk& c = sf_.cblk(k);
    CblkData& cd = data_[static_cast<std::size_t>(k)];

    // Merge any pending LUAR accumulators: every incoming update must be in
    // the panels before elimination. All updates into k are already applied
    // (dependency counters), so no lock is needed.
    if (opts_.accumulate_updates) flush_all_accumulators(k);

    if (opts_.fault.kind == FaultInjection::Kind::TinyPivot &&
        opts_.fault.supernode == k && opts_.fault.try_fire()) {
      // Injected breakdown: zero the leading pivot column so partial
      // pivoting finds nothing (getrf) / the pivot is non-positive (potrf).
      // Static pivoting, when enabled, replaces the pivot instead — the
      // injected fault exercises the same masking a real tiny pivot would.
      la::DMatrix& dg = cd.diag.dense();
      for (index_t i = 0; i < dg.rows(); ++i) dg(i, 0) = 0;
      dg(0, 0) = 0;
    }

    {
      index_t replaced = 0;
      const index_t info =
          dispatch::factor_diag(cd.diag, cd.ipiv, llt_, pivot_cutoff_, replaced);
      if (replaced > 0)
        pivots_replaced_.fetch_add(replaced, std::memory_order_relaxed);
      if (info != 0) {
        const index_t piv = info - 1;
        const double mag =
            std::abs(static_cast<double>(cd.diag.dense()(piv, piv)));
        std::ostringstream os;
        os << (llt_ ? "potrf" : "getrf") << " cannot eliminate the pivot";
        fail(make_report(llt_ ? FailureKind::NonPositivePivot
                              : FailureKind::ZeroPivot,
                         k, piv, mag, os.str()));
      }
    }
    if (failed_.load(std::memory_order_relaxed)) return;

    // Elimination-time policy hook: Just-In-Time compresses the accumulated
    // panels now (Algorithm 2 l.3-4); Minimal-Memory and Adaptive re-attempt
    // the blocks that are (still) dense — e.g. after an extend-add
    // transiently exceeded the storage-beneficial rank — which keeps the
    // final factor size of the scenarios similar, as the paper reports.
    if (policy_->compresses_at_elimination()) {
      // The panel's compression attempts — every tile still dense and
      // compressible, L side then U side. Each writes only its own tile, so
      // with a pool attached they run as one parallel loop (DESIGN.md §11)
      // and the factors are bit-identical to the in-order loop.
      struct Site {
        lr::Tile* t;
        index_t idx;
        bool upper;
      };
      std::vector<Site> sites;
      const auto collect = [&](std::vector<lr::Tile>& panel, bool upper) {
        for (std::size_t idx = 0; idx < panel.size(); ++idx) {
          if (!panel[idx].is_lowrank() && compressible(k, c.bloks[idx]))
            sites.push_back({&panel[idx], static_cast<index_t>(idx), upper});
        }
      };
      collect(cd.lpanel, /*upper=*/false);
      if (!llt_) collect(cd.upanel, /*upper=*/true);
      const auto hook = [&](index_t i) {
        // Early exit once a sibling (or another compression) has failed.
        if (failed_.load(std::memory_order_relaxed)) return;
        const Site& st = sites[static_cast<std::size_t>(i)];
        policy_->at_elimination(k, BlockSite{st.idx, st.upper}, *st.t,
                                /*compressible=*/true, pctx_);
      };
      const index_t n = static_cast<index_t>(sites.size());
      if (pool_ != nullptr && n >= 2) {
        pool_->parallel_for(n, hook);
      } else {
        for (index_t i = 0; i < n; ++i) hook(i);
      }
      if (failed_.load(std::memory_order_relaxed)) return;
    }

    {
      // Panel solves. The dense tiles of each side are packed into the
      // task's panel image and solved by ONE trsm[ge] call, then written
      // back: the rows of a right-side solve are independent, so every row
      // gets the bits of its per-tile solve. The image stays valid for the
      // updates that follow in this task. Low-rank tiles keep their
      // per-tile solve.
      pack_panel(k, 0, img);
      const auto solve_panel = [&](std::vector<lr::Tile>& panel, bool upper) {
        const index_t rows = upper ? img.urows : img.lrows;
        if (rows > 0) {
          const la::DView v((upper ? img.u : img.l).data(), rows, c.width(),
                            rows);
          dispatch::panel_solve(cd.diag, cd.ipiv, v, llt_, upper);
          unpack_panel(k, img, upper);
        }
        for (auto& blk : panel) {
          if (failed_.load(std::memory_order_relaxed)) return;
          if (!blk.is_lowrank()) continue;  // solved in the image
          if (blk.rank() > 0)
            dispatch::panel_solve(cd.diag, cd.ipiv, blk, llt_, upper);
          blk.advance(lr::TileState::Factored);
        }
      };
      solve_panel(cd.lpanel, /*upper=*/false);
      if (!llt_) solve_panel(cd.upanel, /*upper=*/true);
      if (failed_.load(std::memory_order_relaxed)) return;
    }
    // Guard the factored panel: overflow/NaN escaping the diagonal
    // factorization or the triangular solves is caught here instead of
    // surfacing as an inexplicably wrong solution.
    if (opts_.check_finite) check_cblk_finite(k, FailureKind::NonFinitePanel);
    cd.diag.advance(lr::TileState::Factored);
    cd.eliminated = true;
  }
}

UpdateLoc NumericFactor::locate_update(index_t k, index_t bi, index_t bj) const {
  const symbolic::Cblk& c = sf_.cblk(k);
  const symbolic::Blok& rb = c.bloks[static_cast<std::size_t>(bi)];  // rows
  const symbolic::Blok& cb = c.bloks[static_cast<std::size_t>(bj)];  // cols

  // Locate the target: diagonal block when both intervals live in the same
  // supernode; otherwise the L blok of the earlier cblk (lower triangle) or,
  // mirrored/transposed, the U blok (upper triangle, LU only).
  UpdateLoc loc;
  loc.rh = rb.height();
  loc.ch = cb.height();
  if (rb.fcblk == cb.fcblk) {
    loc.tcblk = rb.fcblk;
    const symbolic::Cblk& tc = sf_.cblk(loc.tcblk);
    loc.target_diag = true;
    loc.roff = rb.frow - tc.fcol;
    loc.coff = cb.frow - tc.fcol;
  } else if (rb.fcblk > cb.fcblk) {
    loc.tcblk = cb.fcblk;
    const symbolic::Cblk& tc = sf_.cblk(loc.tcblk);
    loc.tb_idx = sf_.find_blok(loc.tcblk, rb.frow, rb.lrow);
    loc.roff = rb.frow - tc.bloks[static_cast<std::size_t>(loc.tb_idx)].frow;
    loc.coff = cb.frow - tc.fcol;
  } else {
    loc.tcblk = rb.fcblk;
    const symbolic::Cblk& tc = sf_.cblk(loc.tcblk);
    loc.tb_idx = sf_.find_blok(loc.tcblk, cb.frow, cb.lrow);
    loc.roff = cb.frow - tc.bloks[static_cast<std::size_t>(loc.tb_idx)].frow;
    loc.coff = rb.frow - tc.fcol;
    loc.transpose = true;
    loc.target_upper = true;
  }
  return loc;
}

bool NumericFactor::update_need_ortho(const UpdateLoc& loc) const {
  // The orthonormality requirement keys off the target's representation as
  // decided at assembly (immutable, unlike the live tag, so safe to read
  // without the target lock).
  bool target_assembled_lowrank = false;
  if (!loc.target_diag) {
    const CblkData& td = data_[static_cast<std::size_t>(loc.tcblk)];
    const lr::Tile& tbc =
        loc.target_upper ? td.upanel[static_cast<std::size_t>(loc.tb_idx)]
                         : td.lpanel[static_cast<std::size_t>(loc.tb_idx)];
    target_assembled_lowrank = tbc.assembled_lowrank();
  }
  return policy_->need_ortho(target_assembled_lowrank);
}

void NumericFactor::dense_pair_locked(const UpdateLoc& loc, const lr::Tile& a,
                                      const lr::Tile& b) {
  // Dense x dense: fuse the GEMM straight into a dense target; only a
  // low-rank target needs an explicit contribution.
  CblkData& td = data_[static_cast<std::size_t>(loc.tcblk)];
  if (loc.target_diag) {
    dispatch::gemm_into(td.diag.dense().sub(loc.roff, loc.coff, loc.rh, loc.ch),
                        a.dense().cview(), b.dense().cview());
    return;
  }
  lr::Tile& tb = loc.target_upper
                     ? td.upanel[static_cast<std::size_t>(loc.tb_idx)]
                     : td.lpanel[static_cast<std::size_t>(loc.tb_idx)];
  if (tb.is_lowrank()) {
    lr::Tile p = dispatch::product(a, b, opts_.kind, opts_.tolerance,
                                   /*need_ortho=*/false);
    dispatch::extend_add(tb, p, loc.roff, loc.coff, opts_.kind, opts_.tolerance,
                         loc.transpose);
    return;
  }
  // roff/coff are already expressed in the target block's coordinates;
  // only the contribution's dimensions swap under transposition. The
  // transposed mirror subtracts (A·Bᵗ)ᵗ = B·Aᵗ.
  la::DView tview = tb.dense().sub(loc.roff, loc.coff,
                                   loc.transpose ? loc.ch : loc.rh,
                                   loc.transpose ? loc.rh : loc.ch);
  if (loc.transpose) {
    dispatch::gemm_into(tview, b.dense().cview(), a.dense().cview());
  } else {
    dispatch::gemm_into(tview, a.dense().cview(), b.dense().cview());
  }
}

void NumericFactor::finish_update_locked(const UpdateLoc& loc, lr::Tile p) {
  if (p.is_lowrank() && p.rank() == 0) return;

  CblkData& td = data_[static_cast<std::size_t>(loc.tcblk)];
  if (loc.target_diag) {
    dispatch::apply_contribution(
        td.diag.dense().sub(loc.roff, loc.coff, loc.rh, loc.ch), p,
        /*transpose=*/false);
    return;
  }
  lr::Tile& tb = loc.target_upper
                     ? td.upanel[static_cast<std::size_t>(loc.tb_idx)]
                     : td.lpanel[static_cast<std::size_t>(loc.tb_idx)];
  if (tb.is_lowrank() && opts_.accumulate_updates && p.is_lowrank()) {
    // LUAR accumulation: append the padded contribution factors and defer
    // the (expensive, target-sized) recompression.
    KernelTimer t(Kernel::LrAddition);
    la::DConstView pu = loc.transpose ? p.lr().v.cview() : p.lr().u.cview();
    la::DConstView pv = loc.transpose ? p.lr().u.cview() : p.lr().v.cview();
    lr::Tile& acc = (loc.target_upper
                         ? td.uacc
                         : td.lacc)[static_cast<std::size_t>(loc.tb_idx)];
    const index_t old_rank = acc.rank();
    la::DMatrix nu(tb.rows(), old_rank + pu.cols);
    la::DMatrix nv(tb.cols(), old_rank + pu.cols);
    if (old_rank > 0) {
      la::copy<real_t>(acc.lr().u.cview(), nu.sub(0, 0, tb.rows(), old_rank));
      la::copy<real_t>(acc.lr().v.cview(), nv.sub(0, 0, tb.cols(), old_rank));
    }
    for (index_t j = 0; j < pu.cols; ++j) {
      std::copy_n(pu.col(j), pu.rows,
                  nu.data() + (old_rank + j) * tb.rows() + loc.roff);
      std::copy_n(pv.col(j), pv.rows,
                  nv.data() + (old_rank + j) * tb.cols() + loc.coff);
    }
    acc.set_lowrank(lr::LrMatrix(std::move(nu), std::move(nv)));
    if (acc.rank() >= opts_.accumulate_max_rank) {
      flush_accumulator(loc.tcblk, loc.target_upper, loc.tb_idx);
    }
  } else {
    dispatch::extend_add(tb, p, loc.roff, loc.coff, opts_.kind, opts_.tolerance,
                         loc.transpose);
  }
}

// ---- grouped updates (DESIGN.md §9) --------------------------------------
//
// Every block pair (i, j) of source k lands in cblk min(fcblk(i), fcblk(j)).
// Group (k, f) holds the pairs landing in fcblk(f) that are keyed on f (see
// update_group_bounds), so one group takes one target lock and drains one
// dependency count. Inside a group, runs of dense rows with dense targets
// become ONE gemm of packed panel rows against the facing blok, accumulated
// into the gathered target values: each target element sees exactly the
// per-pair call's operations in the same canonical order (la::gemm), and
// the pairs of one source write disjoint target regions, so the factors are
// bit-identical to the per-pair schedule the DAG still runs.

index_t NumericFactor::collect_group(index_t k, index_t f,
                                     std::vector<GroupPair>& out) const {
  const symbolic::Cblk& c = sf_.cblk(k);
  const index_t nb = static_cast<index_t>(c.bloks.size());
  const CblkData& cd = data_[static_cast<std::size_t>(k)];
  const GroupBounds gb = update_group_bounds(c, f, llt_);
  const auto add = [&](index_t bi, index_t bj, index_t src) {
    GroupPair p;
    p.loc = locate_update(k, bi, bj);
    p.a = &cd.lpanel[static_cast<std::size_t>(bi)];
    p.b = llt_ ? &cd.lpanel[static_cast<std::size_t>(bj)]
               : &cd.upanel[static_cast<std::size_t>(bj)];
    p.src = src;
    p.zero = p.a->rank() == 0 || p.b->rank() == 0;
    p.lowrank = !p.zero && (p.a->is_lowrank() || p.b->is_lowrank());
    out.push_back(std::move(p));
  };
  for (index_t i = gb.l_begin; i < nb; ++i) add(i, f, i);
  for (index_t i = gb.u_begin; i < nb; ++i) add(f, i, i);
  return c.bloks[static_cast<std::size_t>(f)].fcblk;
}

void NumericFactor::apply_group(index_t k, index_t f, GroupPair* pairs,
                                std::size_t n, PanelImage& img) {
  if (n == 0) return;
  const symbolic::Cblk& c = sf_.cblk(k);
  const index_t w = c.width();
  const index_t hf = c.bloks[static_cast<std::size_t>(f)].height();
  const index_t tcblk = pairs[0].loc.tcblk;
  CblkData& td = data_[static_cast<std::size_t>(tcblk)];

  bool any_dense = false;
  for (std::size_t q = 0; q < n; ++q)
    any_dense = any_dense || (!pairs[q].zero && !pairs[q].lowrank);
  if (any_dense) pack_panel(k, update_group_bounds(c, f, llt_).l_begin, img);

  // A pending run: consecutive image rows [row0, row0 + rows) of one side,
  // landing in the target segments `segs` (merged when adjacent in the same
  // target matrix, `owners`).
  struct Run {
    bool upper = false;
    index_t row0 = 0, rows = 0;
    std::vector<la::DView> segs;
    std::vector<const la::DMatrix*> owners;
  } run;
  const auto flush = [&] {
    if (run.rows == 0) return;
    const index_t arows = run.upper ? img.urows : img.lrows;
    const la::DConstView a((run.upper ? img.u : img.l).data() + run.row0,
                           run.rows, w, arows);
    // B: the facing blok f — of the L panel for the U side and for LLᵗ, of
    // the U panel for the LU L side.
    const bool b_upper = !llt_ && !run.upper;
    const index_t brows = b_upper ? img.urows : img.lrows;
    const index_t boff =
        (b_upper ? img.uoff : img.loff)[static_cast<std::size_t>(f)];
    const la::DConstView b((b_upper ? img.u : img.l).data() + boff, hf, w,
                           brows);
    if (run.segs.size() == 1) {
      dispatch::gemm_into(run.segs[0], a, b);
    } else {
      dispatch::gemm_into_segments(run.segs.data(), run.segs.size(), a, b);
    }
    run.rows = 0;
    run.segs.clear();
    run.owners.clear();
  };

  // The lock is taken once for the dense work. A low-rank-operand pair
  // forms its product outside the lock (dropping it meanwhile: the pending
  // run's targets are dense tiles, which stay dense and in place) and
  // applies it in group order, so no group holds more than one product.
  std::unique_lock lock(locks_[static_cast<std::size_t>(tcblk)],
                        std::defer_lock);
  for (std::size_t q = 0; q < n; ++q) {
    GroupPair& p = pairs[q];
    if (p.zero) continue;
    if (p.lowrank) {
      if (lock.owns_lock()) lock.unlock();
      lr::Tile prod = dispatch::product(*p.a, *p.b, opts_.kind,
                                        opts_.tolerance,
                                        update_need_ortho(p.loc));
      lock.lock();
      finish_update_locked(p.loc, std::move(prod));
      continue;
    }
    if (!lock.owns_lock()) lock.lock();
    const UpdateLoc& loc = p.loc;
    const la::DMatrix* owner = nullptr;
    la::DView seg;
    if (loc.target_diag) {
      owner = &td.diag.dense();
      seg = td.diag.dense().sub(loc.roff, loc.coff, loc.rh, loc.ch);
    } else {
      lr::Tile& tb = loc.target_upper
                         ? td.upanel[static_cast<std::size_t>(loc.tb_idx)]
                         : td.lpanel[static_cast<std::size_t>(loc.tb_idx)];
      if (tb.is_lowrank()) {
        // Low-rank target (MinMem / Adaptive): product + extend-add.
        dense_pair_locked(loc, *p.a, *p.b);
        continue;
      }
      // Both sides' segments are (row blok i) × (facing blok f); U-side
      // offsets are already in the transposed target's coordinates.
      owner = &tb.dense();
      seg = tb.dense().sub(loc.roff, loc.coff, loc.transpose ? loc.ch : loc.rh,
                           loc.transpose ? loc.rh : loc.ch);
    }
    const bool upper = loc.target_upper;
    const index_t row =
        (upper ? img.uoff : img.loff)[static_cast<std::size_t>(p.src)];
    if (run.rows > 0 && (upper != run.upper || row != run.row0 + run.rows))
      flush();
    if (run.rows == 0) {
      run.upper = upper;
      run.row0 = row;
    }
    run.rows += seg.rows;
    if (!run.segs.empty() && run.owners.back() == owner &&
        run.segs.back().data + run.segs.back().rows == seg.data) {
      run.segs.back().rows += seg.rows;
    } else {
      run.segs.push_back(seg);
      run.owners.push_back(owner);
    }
  }
  if (run.rows > 0 && !lock.owns_lock()) lock.lock();
  flush();
}

void NumericFactor::release_group(index_t tcblk) {
  const index_t left = deps_[static_cast<std::size_t>(tcblk)].fetch_sub(
                           1, std::memory_order_acq_rel) - 1;
  if (left == 0 && pool_ != nullptr) {
    pool_->submit([this, tcblk] { eliminate(tcblk); },
                  sf_.critical_priorities()[static_cast<std::size_t>(tcblk)]);
  }
}

void NumericFactor::pack_panel(index_t k, index_t from, PanelImage& img) {
  if (img.cblk == k && img.from <= from) return;
  const symbolic::Cblk& c = sf_.cblk(k);
  const CblkData& cd = data_[static_cast<std::size_t>(k)];
  const std::size_t nb = c.bloks.size();
  const index_t w = c.width();
  const auto layout = [&](const std::vector<lr::Tile>& panel,
                          std::vector<index_t>& off) {
    off.assign(nb, -1);
    index_t rows = 0;
    for (std::size_t i = static_cast<std::size_t>(from); i < nb; ++i) {
      if (panel[i].is_lowrank()) continue;
      off[i] = rows;
      rows += panel[i].rows();
    }
    return rows;
  };
  img.cblk = -1;  // invalid until the copy below completes
  img.lrows = layout(cd.lpanel, img.loff);
  img.urows = llt_ ? 0 : layout(cd.upanel, img.uoff);
  const std::size_t nl =
      static_cast<std::size_t>(img.lrows) * static_cast<std::size_t>(w);
  const std::size_t nu =
      static_cast<std::size_t>(img.urows) * static_cast<std::size_t>(w);
  if (img.l.size() < nl || img.u.size() < nu) {
    // Exact-size regrowth, charged before allocating so a budget breach
    // leaves the image untouched.
    const std::size_t l = std::max(nl, img.l.size());
    const std::size_t u = std::max(nu, img.u.size());
    img.track.resize((l + u) * sizeof(real_t));
    if (img.l.size() < l) {
      std::vector<real_t>().swap(img.l);
      img.l.resize(l);
    }
    if (img.u.size() < u) {
      std::vector<real_t>().swap(img.u);
      img.u.resize(u);
    }
  }
  const auto pack = [&](const std::vector<lr::Tile>& panel,
                        const std::vector<index_t>& off, index_t rows,
                        real_t* dst) {
    for (std::size_t i = 0; i < nb; ++i) {
      if (off[i] < 0) continue;
      la::copy<real_t>(panel[i].dense().cview(),
                       la::DView(dst + off[i], panel[i].rows(), w, rows));
    }
  };
  pack(cd.lpanel, img.loff, img.lrows, img.l.data());
  if (!llt_) pack(cd.upanel, img.uoff, img.urows, img.u.data());
  img.cblk = k;
  img.from = from;
}

void NumericFactor::unpack_panel(index_t k, const PanelImage& img, bool upper) {
  CblkData& cd = data_[static_cast<std::size_t>(k)];
  std::vector<lr::Tile>& panel = upper ? cd.upanel : cd.lpanel;
  const std::vector<index_t>& off = upper ? img.uoff : img.loff;
  const index_t rows = upper ? img.urows : img.lrows;
  const real_t* src = (upper ? img.u : img.l).data();
  const index_t w = sf_.cblk(k).width();
  for (std::size_t i = 0; i < panel.size(); ++i) {
    if (off[i] < 0) continue;
    la::copy<real_t>(la::DConstView(src + off[i], panel[i].rows(), w, rows),
                     panel[i].dense().view());
    panel[i].advance(lr::TileState::Factored);
  }
}

// ---------------------------------------------------------------------------
// Solve phase (DESIGN.md §16)
// ---------------------------------------------------------------------------

void NumericFactor::set_solve_context(std::shared_ptr<const SolvePlan> plan,
                                      std::shared_ptr<SolveEngine> engine) {
  splan_ = std::move(plan);
  sengine_ = std::move(engine);
}

void NumericFactor::build_widen_cache() const {
  if (num_fp32_blocks() == 0) return;  // pure-fp64 factors: nothing to widen
  const index_t ncblk = sf_.num_cblks();
  std::size_t bytes = 0;
  std::uint64_t tiles = 0;
  std::vector<WidenedPanel> w(static_cast<std::size_t>(ncblk));
  const auto widen = [&](const lr::Tile& blk, la::DMatrix& u, la::DMatrix& v) {
    if (blk.precision() != lr::Precision::Fp32) return;
    const lr::LrMatrix& f = blk.lr();
    u.reshape(f.u32.rows(), f.u32.cols());
    la::convert(f.u32.cview(), u.view());
    v.reshape(f.v32.rows(), f.v32.cols());
    la::convert(f.v32.cview(), v.view());
    bytes += u.bytes() + v.bytes();
    ++tiles;
  };
  for (index_t k = 0; k < ncblk; ++k) {
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    WidenedPanel& wp = w[static_cast<std::size_t>(k)];
    wp.lu.resize(cd.lpanel.size());
    wp.lv.resize(cd.lpanel.size());
    for (std::size_t i = 0; i < cd.lpanel.size(); ++i)
      widen(cd.lpanel[i], wp.lu[i], wp.lv[i]);
    if (!llt_) {
      wp.uu.resize(cd.upanel.size());
      wp.uv.resize(cd.upanel.size());
      for (std::size_t i = 0; i < cd.upanel.size(); ++i)
        widen(cd.upanel[i], wp.uu[i], wp.uv[i]);
    }
  }
  widen_ = std::move(w);
  widen_tiles_ = tiles;
  widen_bytes_ = bytes;
  widen_track_.resize(bytes);
}

bool NumericFactor::run_solve_task(const SolveTask& t, la::DView x) const {
  const symbolic::Cblk& c = sf_.cblk(t.k);
  const CblkData& cd = data_[static_cast<std::size_t>(t.k)];
  // Bwd reads the panel that holds the transposed factor: L of LLᵗ, U of LU.
  const bool upper = t.kind == SolveTaskKind::Bwd && !llt_;
  const std::size_t b0 = static_cast<std::size_t>(t.b0);
  SolveTiles st;
  st.tiles = (upper ? cd.upanel : cd.lpanel).data() + b0;
  st.bloks = c.bloks.data() + b0;
  st.count = static_cast<std::size_t>(t.b1 - t.b0);
  st.fcol = c.fcol;
  st.width = c.width();
  if (!widen_.empty()) {
    const WidenedPanel& wp = widen_[static_cast<std::size_t>(t.k)];
    st.wu = (upper ? wp.uu : wp.lu).data() + b0;
    st.wv = (upper ? wp.uv : wp.lv).data() + b0;
  }
  if (t.kind == SolveTaskKind::FwdGroup) {
    dispatch::solve_group(st, x);
  } else {
    dispatch::solve_diag(cd.diag, cd.ipiv, st, x, llt_,
                         /*backward=*/t.kind == SolveTaskKind::Bwd);
  }
  if (st.widened > 0)
    widen_hits_.fetch_add(st.widened, std::memory_order_relaxed);
  return true;
}

void NumericFactor::solve_permuted(la::DView x, SolveRunInfo* info) const {
  BLR_CHECK(splan_ != nullptr, "solve: no solve plan attached to the factors");
  // Per-factor caches are built lazily on the first solve; a refactorize
  // creates a fresh NumericFactor, which invalidates them wholesale.
  std::call_once(widen_once_, [this] { build_widen_cache(); });
  const std::uint64_t hits0 = widen_hits_.load(std::memory_order_relaxed);
  // One execution path: the plan's tasks, drained over the solve pool or in
  // id order on the calling thread — the same bits either way. Solves too
  // small to pay for the pool hand-off drain in order. The pool's
  // wait_idle-based drain cannot be shared by two concurrent solves, so a
  // loser of the engine's try_lock (e.g. a second session snapshot solving
  // the same factors) drains in order instead of blocking.
  std::unique_lock<std::mutex> lk;
  if (sengine_ != nullptr && splan_->pays_pool(x.cols))
    lk = std::unique_lock(sengine_->mu, std::try_to_lock);
  ThreadPool* pool = lk.owns_lock() ? &sengine_->pool : nullptr;
  std::mutex err_mu;
  std::exception_ptr err;
  const DepDrainStats ds = splan_->execute(pool, [&](std::uint32_t id) {
    try {
      return run_solve_task(splan_->task(id), x);
    } catch (...) {
      std::lock_guard guard(err_mu);
      if (!err) err = std::current_exception();
      return false;  // stop releasing successors
    }
  });
  if (err) std::rethrow_exception(err);
  SolveRunInfo ri;
  ri.tasks = ds.executed;
  ri.parallel = pool != nullptr;
  ri.plan_reused = true;
  ri.widen_hits = widen_hits_.load(std::memory_order_relaxed) - hits0;
  if (info != nullptr) *info = ri;
}

std::unique_ptr<NumericFactor::SolveScratch> NumericFactor::acquire_scratch(
    index_t rows, index_t cols) const {
  std::unique_ptr<SolveScratch> s;
  {
    std::lock_guard guard(scratch_mu_);
    if (!scratch_pool_.empty()) {
      s = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
    }
  }
  if (!s) s = std::make_unique<SolveScratch>();
  // reshape() keeps the vector capacity when it suffices, so repeated
  // same-shape solves reuse the allocation.
  s->m.reshape(rows, cols);
  s->track.resize(s->m.bytes());
  return s;
}

void NumericFactor::release_scratch(std::unique_ptr<SolveScratch> s) const {
  std::lock_guard guard(scratch_mu_);
  if (scratch_pool_.size() < 8) scratch_pool_.push_back(std::move(s));
}

void NumericFactor::solve(const real_t* b, real_t* x) const {
  solve(la::DConstView(b, sf_.n(), 1, sf_.n()), la::DView(x, sf_.n(), 1, sf_.n()));
}

void NumericFactor::solve(la::DConstView b, la::DView x,
                          SolveRunInfo* info) const {
  const index_t n = sf_.n();
  BLR_CHECK(b.rows == n && x.rows == n && b.cols == x.cols,
            "solve: right-hand-side shape mismatch");
  std::unique_ptr<SolveScratch> s = acquire_scratch(n, b.cols);
  la::DMatrix& xp = s->m;
  // Both permutation passes write column-contiguously (ascending row index
  // into column-major storage); the gathers are the scattered side.
  for (index_t r = 0; r < b.cols; ++r) {
    for (index_t i = 0; i < n; ++i)
      xp(i, r) = b(ord_.perm[static_cast<std::size_t>(i)], r);
  }
  solve_permuted(xp.view(), info);
  for (index_t r = 0; r < b.cols; ++r) {
    for (index_t j = 0; j < n; ++j)
      x(j, r) = xp(iperm_[static_cast<std::size_t>(j)], r);
  }
  release_scratch(std::move(s));
}

std::size_t NumericFactor::final_entries() const {
  std::size_t e = 0;
  for (index_t k = 0; k < sf_.num_cblks(); ++k) {
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    e += cd.diag.storage_entries();
    for (const auto& blk : cd.lpanel) e += blk.storage_entries();
    for (const auto& blk : cd.upanel) e += blk.storage_entries();
  }
  return e;
}

std::size_t NumericFactor::final_bytes() const {
  std::size_t b = 0;
  for (index_t k = 0; k < sf_.num_cblks(); ++k) {
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    b += cd.diag.storage_bytes();
    for (const auto& blk : cd.lpanel) b += blk.storage_bytes();
    for (const auto& blk : cd.upanel) b += blk.storage_bytes();
  }
  return b;
}

std::size_t NumericFactor::lowrank_bytes() const {
  std::size_t b = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel)
      if (blk.is_lowrank()) b += blk.storage_bytes();
    for (const auto& blk : cd.upanel)
      if (blk.is_lowrank()) b += blk.storage_bytes();
  }
  return b;
}

index_t NumericFactor::num_fp32_blocks() const {
  index_t n = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel)
      n += blk.precision() == lr::Precision::Fp32 ? 1 : 0;
    for (const auto& blk : cd.upanel)
      n += blk.precision() == lr::Precision::Fp32 ? 1 : 0;
  }
  return n;
}

index_t NumericFactor::num_lowrank_blocks() const {
  index_t n = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel) n += blk.is_lowrank() ? 1 : 0;
    for (const auto& blk : cd.upanel) n += blk.is_lowrank() ? 1 : 0;
  }
  return n;
}

index_t NumericFactor::num_dense_blocks() const {
  index_t n = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel) n += blk.is_lowrank() ? 0 : 1;
    for (const auto& blk : cd.upanel) n += blk.is_lowrank() ? 0 : 1;
  }
  return n;
}

double NumericFactor::average_rank() const {
  index_t count = 0;
  index_t total = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel) {
      if (blk.is_lowrank()) {
        ++count;
        total += blk.rank();
      }
    }
    for (const auto& blk : cd.upanel) {
      if (blk.is_lowrank()) {
        ++count;
        total += blk.rank();
      }
    }
  }
  return count > 0 ? static_cast<double>(total) / static_cast<double>(count) : 0.0;
}

double NumericFactor::dense_block_fraction() const {
  index_t comp = 0;
  index_t dense = 0;
  for (index_t k = 0; k < sf_.num_cblks(); ++k) {
    const symbolic::Cblk& c = sf_.cblk(k);
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    for (std::size_t idx = 0; idx < c.bloks.size(); ++idx) {
      if (!compressible(k, c.bloks[idx])) continue;
      if (idx < cd.lpanel.size()) {
        ++comp;
        if (!cd.lpanel[idx].is_lowrank()) ++dense;
      }
      if (idx < cd.upanel.size()) {
        ++comp;
        if (!cd.upanel[idx].is_lowrank()) ++dense;
      }
    }
  }
  return comp > 0 ? static_cast<double>(dense) / static_cast<double>(comp) : 0.0;
}

void NumericFactor::harvest_ranks(RankMemory& out) const {
  const auto record = [](const std::vector<lr::Tile>& panel,
                         std::vector<index_t>& ranks) {
    ranks.resize(panel.size());
    for (std::size_t i = 0; i < panel.size(); ++i) {
      ranks[i] = panel[i].is_lowrank() ? panel[i].rank() : RankMemory::kDense;
    }
  };
  out.cblks.resize(data_.size());
  for (std::size_t k = 0; k < data_.size(); ++k) {
    record(data_[k].lpanel, out.cblks[k].l);
    record(data_[k].upanel, out.cblks[k].u);
  }
  out.valid = true;
}

void NumericFactor::donate_buffers(lr::BufferPool& pool) {
  // Only dense storage: the next pass requests exactly these shapes, while
  // rank-sized U/V factors could only fill some larger request's slot by
  // accident and would mostly sit in the pool unused until trim().
  const auto donate_tile = [&pool](lr::Tile& t) {
    if (t.rows() == 0 || t.cols() == 0 || t.is_lowrank()) return;
    pool.recycle(t.release_dense());
  };
  for (CblkData& cd : data_) {
    donate_tile(cd.diag);
    for (lr::Tile& t : cd.lpanel) donate_tile(t);
    for (lr::Tile& t : cd.upanel) donate_tile(t);
  }
}

} // namespace blr::core
