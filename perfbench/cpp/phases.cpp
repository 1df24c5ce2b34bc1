// The benchmark's phases: cold analyze → factorize → solve repeats, the
// Session serving phase, the traced analyze breakdown and the in-run gemm
// reference. Everything here calls the library through blr.hpp only.

#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <numbers>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

using blr::sparse::CscMatrix;

constexpr double kMiB = 1024.0 * 1024.0;

thread_local std::vector<std::uint64_t> t_open_spans;
thread_local int t_thread_index = -1;

/// The seeded inputs: true solutions and per-step value changes.
std::vector<real_t> seeded_vector(index_t n, std::uint64_t seed, std::uint64_t stream) {
  blr::Prng rng(seed * 0x9e3779b97f4a7c15ull ^ (stream + 1) * 0xd1b54a32d192ed03ull);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (real_t& x : v) x = rng.normal();
  return v;
}

CscMatrix workload_matrix(const Workload& w, index_t grid) {
  return w.convection ? blr::sparse::convection_diffusion_3d(grid, grid, grid, 0.5)
                      : blr::sparse::laplacian_3d(grid, grid, grid);
}

CscMatrix step_matrix(const Run& run, int step) {
  blr::Prng rng(run.cfg.seed * 0x9e3779b97f4a7c15ull ^
                (static_cast<std::uint64_t>(step) + 0x5eed) * 0xd1b54a32d192ed03ull);
  const index_t g = run.cfg.tiny ? run.cfg.w.tiny_grid : run.cfg.w.grid;
  if (run.cfg.w.convection) {
    return blr::sparse::convection_diffusion_3d(g, g, g, rng.uniform(0.1, 0.9));
  }
  // Same SPD pattern, new values: scale the stencil and shift the diagonal.
  CscMatrix a = run.a0;
  const double scale = rng.uniform(0.8, 1.2);
  const double shift = rng.uniform(0.0, 0.5);
  std::vector<real_t>& v = a.values();
  for (real_t& x : v) x *= scale;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t p = a.colptr()[static_cast<std::size_t>(j)];
         p < a.colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      if (a.rowind()[static_cast<std::size_t>(p)] == j) v[static_cast<std::size_t>(p)] += shift;
    }
  }
  return a;
}

/// Time one library call under a span. A throw counts as a failed
/// operation and is not rethrown, so one failure never aborts the run.
bool timed_op(Run& run, const char* name, const std::function<void()>& f,
              double& seconds) {
  run.checker.attempt();
  Tracer::Scope span(run.tracer, name);
  const blr::Timer t;
  try {
    f();
  } catch (const std::exception& e) {
    run.checker.fail(std::string(name) + " threw: " + e.what());
    return false;
  }
  seconds = t.elapsed();
  return true;
}

std::vector<real_t> times(const CscMatrix& a, const std::vector<real_t>& x) {
  std::vector<real_t> b(x.size());
  a.spmv(x.data(), b.data());
  return b;
}

/// Flops of the dense supernodal factorization over this block structure
/// (diagonal factor, panel solve and trailing update of every column
/// block), computed from the symbolic structure alone.
double dense_flops(const blr::symbolic::SymbolicFactor& sf, bool llt) {
  double flops = 0;
  for (const auto& c : sf.cblks()) {
    const double w = static_cast<double>(c.width());
    const double h = static_cast<double>(c.height());
    const double per = w * w * w / 3 + h * w * w + h * h * w;
    flops += llt ? per : 2 * per;
  }
  return flops;
}

/// The per-layer counters one cold factorize exposes through SolverStats
/// and Solver::worker_stats().
void record_factorize_layers(Run& run, const blr::Solver& s, double factorize_s) {
  const blr::SolverStats& st = s.stats();
  struct Op {
    const char* kernel;
    const char* metric;
    double calls = 0, seconds = 0, bytes = 0;
  };
  Op ops[] = {{"gemm[ge,ge]", "linalg.gemm_ge_ge"},
              {"trsm[ge]", "linalg.trsm_ge"},
              {"potrf[ge]", "linalg.potrf_ge"},
              {"getrf[ge]", "linalg.getrf_ge"}};
  double kernel_cpu = 0, dispatch_calls = 0;
  double compress_calls = 0, compress_s = 0, lr2ge_s = 0, gemm_lr_s = 0;
  for (const blr::core::DispatchCount& d : st.dispatch) {
    const std::string& k = d.kernel;
    if (k.starts_with("solve_")) continue;
    kernel_cpu += d.seconds;
    dispatch_calls += static_cast<double>(d.calls);
    for (Op& op : ops) {
      if (k == op.kernel) {
        op.calls += static_cast<double>(d.calls);
        op.seconds += d.seconds;
        op.bytes += static_cast<double>(d.bytes);
      }
    }
    if (k.starts_with("compress")) {
      compress_calls += static_cast<double>(d.calls);
      compress_s += d.seconds;
    } else if (k.starts_with("lr2ge")) {
      lr2ge_s += d.seconds;
    } else if (k.starts_with("gemm[") && k.find("lr") != std::string::npos) {
      gemm_lr_s += d.seconds;
    }
  }
  Samples& m = run.samples;
  for (const Op& op : ops) {
    m.add(std::string(op.metric) + ".calls", op.calls);
    m.add(std::string(op.metric) + ".cpu_s", op.seconds);
    m.add(std::string(op.metric) + ".bytes", op.bytes);
  }
  m.add("linalg.gemm_ge_ge.bytes_per_call", ops[0].calls > 0 ? ops[0].bytes / ops[0].calls : 0);
  m.add("lowrank.compress.calls", compress_calls);
  m.add("lowrank.compress.cpu_s", compress_s);
  m.add("lowrank.compress.useful_ratio",
        compress_calls > 0 ? st.num_lowrank_blocks / compress_calls : 0);
  m.add("lowrank.lr2ge.cpu_s", lr2ge_s);
  m.add("lowrank.gemm_lr.cpu_s", gemm_lr_s);
  m.add("lowrank.avg_rank", st.average_rank);
  m.add("lowrank.lowrank_mib", static_cast<double>(st.factor_bytes_lowrank) / kMiB);
  m.add("core.kernel_cpu_s", kernel_cpu);
  m.add("core.kernel_busy_fraction", kernel_cpu / (run.opts.threads * factorize_s));
  m.add("core.dispatch_calls", dispatch_calls);
  double tasks = 0, steals = 0, failed_steals = 0, idle = 0;
  for (const auto& w : s.worker_stats()) {
    tasks += static_cast<double>(w.executed);
    steals += static_cast<double>(w.steals);
    failed_steals += static_cast<double>(w.failed_steals);
    idle += static_cast<double>(w.idle_sleeps);
  }
  m.add("core.scheduler.tasks", tasks);
  m.add("core.scheduler.steals", steals);
  m.add("core.scheduler.failed_steals", failed_steals);
  m.add("core.scheduler.idle_sleeps", idle);
  m.add("common.tracked_peak_mib", static_cast<double>(st.total_peak_bytes) / kMiB);
  m.add("common.factors_peak_mib", static_cast<double>(st.factors_peak_bytes) / kMiB);
  m.add("factors_mib", static_cast<double>(st.factor_bytes_final) / kMiB);
}

void record_solve_layers(Run& run, const blr::Solver& s) {
  const blr::core::SolvePhaseStats& sp = s.stats().solve_phase;
  const double n = std::max<double>(1, static_cast<double>(sp.solves));
  Samples& m = run.samples;
  m.add("solve.tasks", static_cast<double>(sp.tasks_executed) / n);
  m.add("solve.trsm_cpu_s", sp.trsm_seconds / n);
  m.add("solve.gemm_cpu_s", sp.gemm_seconds / n);
  m.add("solve.parallel", static_cast<double>(sp.parallel_solves));
  m.add("solve.split", static_cast<double>(sp.split_solves));
  m.add("solve.sequential", static_cast<double>(sp.sequential_solves));
}

/// One cold repeat: a fresh nproc-thread Solver runs analyze → factorize →
/// single-RHS solves; optionally a fresh 1-thread Solver then factorizes
/// the same matrix as the sequential baseline.
void cold_repeat(Run& run, int repeat, bool one_thread) {
  const CscMatrix& a = run.a0;
  const index_t n = a.rows();
  const int solves = run.cfg.tiny ? 2 : 4;
  Tracer::Scope span(run.tracer, "cold_repeat");
  {
    blr::Solver s(run.opts);
    double setup = 0, fact = 0, first_solve = 0;
    if (!timed_op(run, "Solver::analyze", [&] { s.analyze(a); }, setup)) return;
    run.samples.add("setup_s", setup);
    if (!timed_op(run, "Solver::factorize", [&] { s.factorize(a); }, fact)) return;
    run.samples.add("factorize_s", fact);
    record_factorize_layers(run, s, fact);
    bool all_solved = true;
    for (int i = 0; i < solves; ++i) {
      const auto x_true = seeded_vector(n, run.cfg.seed, static_cast<std::uint64_t>(repeat * 16 + i));
      const auto b = times(a, x_true);
      std::vector<real_t> x(b.size());
      double t = 0;
      if (!timed_op(run, "Solver::solve", [&] { s.solve(b.data(), x.data()); }, t)) {
        all_solved = false;
        continue;
      }
      run.samples.add("solve_s", t);
      if (i == 0) first_solve = t;
      run.checker.check_solve(a, b.data(), x.data(), x_true.data(), "Solver::solve");
    }
    record_solve_layers(run, s);
    if (all_solved) {
      const double tts = setup + fact + first_solve;
      run.samples.add("time_to_solution_s", tts);
      run.samples.add(run.tracer.enabled() ? "tts_traced" : "tts_untraced", tts);
    }
  }
  if (run.cfg.trace) setup_breakdown(run);
  if (!one_thread) return;

  blr::SolverOptions o1 = run.opts;
  o1.threads = 1;
  blr::Solver s1(o1);
  double setup = 0, fact = 0, unused = 0;
  if (!timed_op(run, "Solver::analyze", [&] { s1.analyze(a); }, setup)) return;
  run.samples.add("setup_s", setup);
  if (!timed_op(run, "Solver::factorize(1 thread)", [&] { s1.factorize(a); }, fact)) return;
  run.samples.add("factorize_1t_s", fact);
  const auto x_true = seeded_vector(n, run.cfg.seed, static_cast<std::uint64_t>(repeat * 16 + 15));
  const auto b = times(a, x_true);
  std::vector<real_t> x(b.size());
  if (timed_op(run, "Solver::solve", [&] { s1.solve(b.data(), x.data()); }, unused)) {
    run.checker.check_solve(a, b.data(), x.data(), x_true.data(), "Solver::solve(1 thread)");
  }
}

}  // namespace

// ---- Tracer ---------------------------------------------------------------

Tracer::Scope::Scope(Tracer& t, const char* name) {
  if (!t.enabled()) return;
  t_ = &t;
  if (t_thread_index < 0) t_thread_index = t.next_thread_.fetch_add(1);
  s_.name = name;
  s_.id = t.next_id_.fetch_add(1);
  s_.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  s_.thread = t_thread_index;
  t_open_spans.push_back(s_.id);
  s_.t0 = t.now();
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  s_.t1 = t_->now();
  t_open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(t_->mu_);
  t_->spans_.push_back(std::move(s_));
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                 i ? "," : "", s.name.c_str(), s.thread, s.t0 * 1e6,
                 (s.t1 - s.t0) * 1e6, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ---- Checker --------------------------------------------------------------

Checker::Checker(double tolerance, index_t grid, bool perturb)
    : perturb_pending_(perturb) {
  backward_bound_ = 500 * std::max(tolerance, std::numeric_limits<double>::epsilon());
  // ||x - x*|| / ||x*|| <= cond(A) * ||r|| / ||b||. The 7-point operators
  // on a g³ grid have cond ≈ 1 / sin²(π / (2(g+1))); a forward error of
  // one half means the answer carries no information at all.
  const double s = std::sin(std::numbers::pi / (2.0 * static_cast<double>(grid + 1)));
  forward_bound_ = std::min(0.5, backward_bound_ / (s * s));
}

void Checker::fail(const std::string& what) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mu_);
  if (messages_++ < 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

bool Checker::check_solve(const CscMatrix& a, const real_t* b, const real_t* x,
                          const real_t* x_true, const char* where) {
  const auto n = static_cast<std::size_t>(a.rows());
  std::vector<real_t> perturbed;
  if (perturb_pending_.exchange(false)) {
    perturbed.assign(x, x + n);
    for (real_t& v : perturbed) v *= 2;
    x = perturbed.data();
  }
  const double bwd = blr::sparse::backward_error(a, x, b);
  double fwd = 0;
  if (x_true != nullptr) {
    double num = 0, den = 0;
    for (std::size_t i = 0; i < n; ++i) {
      num += (x[i] - x_true[i]) * (x[i] - x_true[i]);
      den += x_true[i] * x_true[i];
    }
    fwd = std::sqrt(num / den);
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    worst_backward_ = std::max(worst_backward_, bwd);
  }
  char msg[256];
  if (!(bwd <= backward_bound_)) {
    std::snprintf(msg, sizeof msg, "%s: backward error %.3e > %.3e", where, bwd, backward_bound_);
    fail(msg);
    return false;
  }
  if (!(fwd <= forward_bound_)) {
    std::snprintf(msg, sizeof msg, "%s: forward error %.3e > %.3e", where, fwd, forward_bound_);
    fail(msg);
    return false;
  }
  return true;
}

double Checker::worst_backward() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return worst_backward_;
}

// ---- Run ------------------------------------------------------------------

Run::Run(const RunConfig& c)
    : cfg(c),
      a0(workload_matrix(c.w, c.tiny ? c.w.tiny_grid : c.w.grid)),
      checker(c.w.tolerance, c.tiny ? c.w.tiny_grid : c.w.grid, c.perturb) {
  opts.strategy = blr::Strategy::JustInTime;
  opts.kind = blr::lr::CompressionKind::Rrqr;
  opts.tolerance = c.w.tolerance;
  opts.threads = c.threads;
  tracer.set_enabled(c.trace);
}

// ---- Phases ---------------------------------------------------------------

void cold_phase(Run& run, double budget_s) {
  const int min_repeats = run.cfg.tiny ? 1 : 3;
  const blr::Timer clock;
  double last = 0;
  for (int r = 0; r < min_repeats || clock.elapsed() + last <= budget_s; ++r) {
    // Traced runs alternate traced and untraced repeats, so the difference
    // of their time to solution is the tracer's own cost.
    if (run.cfg.trace) run.tracer.set_enabled(r % 2 == 0);
    const bool one_thread = run.cfg.w.one_thread_each_repeat || r == 0;
    const blr::Timer rt;
    cold_repeat(run, r, one_thread);
    if (!one_thread || run.cfg.w.one_thread_each_repeat) last = rt.elapsed();
  }
  run.tracer.set_enabled(run.cfg.trace);
}

void serve_phase(Run& run, double budget_s) {
  const index_t n = run.a0.rows();
  const int clients = std::max(1, run.cfg.threads - 1);
  const int min_steps = run.cfg.tiny ? 2 : 3;
  const std::uint64_t min_solves = run.cfg.tiny ? 10 : 200;

  blr::Session session(run.opts);
  auto a0 = std::make_shared<const CscMatrix>(run.a0);
  double unused = 0;
  if (!timed_op(run, "Session::refactorize(cold)", [&] { session.refactorize(*a0); }, unused)) {
    return;
  }

  // Matrices by factor epoch, so each Session answer is checked against the
  // matrix of the epoch that actually served it.
  std::mutex mu;
  std::map<std::uint64_t, std::shared_ptr<const CscMatrix>> by_epoch{{session.epoch(), a0}};
  std::shared_ptr<const CscMatrix> current = a0;  // guarded by mu
  std::uint64_t current_epoch = session.epoch();  // guarded by mu

  struct ClientLog {
    std::vector<double> latency, wait, server, batch;
    std::uint64_t plan_reused = 0;
  };
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};

  const auto client = [&](int c) {
    std::vector<std::vector<real_t>> xs;
    for (int j = 0; j < 4; ++j) {
      xs.push_back(seeded_vector(n, run.cfg.seed, 1000000 + static_cast<std::uint64_t>(c * 16 + j)));
    }
    std::vector<real_t> b(xs[0].size()), x(xs[0].size());
    ClientLog& log = logs[static_cast<std::size_t>(c)];
    for (std::size_t j = 0; !stop.load(); ++j) {
      std::shared_ptr<const CscMatrix> mat;
      std::uint64_t built_epoch = 0;
      {
        const std::lock_guard<std::mutex> lock(mu);
        mat = current;
        built_epoch = current_epoch;
      }
      const std::vector<real_t>& x_true = xs[j % xs.size()];
      mat->spmv(x_true.data(), b.data());
      blr::SolveStats st;
      double latency = 0;
      if (!timed_op(run, "Session::solve", [&] { st = session.solve(b.data(), x.data()); },
                    latency)) {
        continue;
      }
      completed.fetch_add(1);
      log.latency.push_back(latency * 1e3);
      log.wait.push_back(st.wait_seconds * 1e3);
      log.server.push_back(st.solve_seconds * 1e3);
      log.batch.push_back(static_cast<double>(st.batch_size));
      log.plan_reused += st.plan_reused ? 1 : 0;
      // b was built from the matrix of `built_epoch`; the forward error
      // against x_true only means something when that epoch served it.
      std::shared_ptr<const CscMatrix> served;
      {
        const std::lock_guard<std::mutex> lock(mu);
        const auto it = by_epoch.find(st.factor_epoch);
        if (it != by_epoch.end()) served = it->second;
      }
      if (!served) {
        run.checker.fail("Session::solve: served by unknown epoch " + std::to_string(st.factor_epoch));
        continue;
      }
      run.checker.check_solve(*served, b.data(), x.data(),
                              st.factor_epoch == built_epoch ? x_true.data() : nullptr,
                              "Session::solve");
    }
  };

  double warm_attempts = 0, warm_hits = 0;
  double serve_wall = 0;
  {
    const blr::Timer clock;
    std::vector<std::jthread> pool;
    for (int c = 0; c < clients; ++c) pool.emplace_back(client, c);
    double last = 0;
    for (int step = 1;; ++step) {
      const double elapsed = clock.elapsed();
      const bool enough = step > min_steps && completed.load() >= min_solves;
      // The cap keeps a run on a slow host inside its 180 s limit; the
      // minimum counts take precedence over the phase's budget below it.
      if ((enough && elapsed + last > budget_s) || elapsed > 90) break;
      auto as = std::make_shared<const CscMatrix>(step_matrix(run, step));
      const std::uint64_t next = session.epoch() + 1;
      {
        const std::lock_guard<std::mutex> lock(mu);
        by_epoch[next] = as;
        while (by_epoch.size() > 8) by_epoch.erase(by_epoch.begin());
      }
      double sec = 0;
      if (!timed_op(run, "Session::refactorize", [&] { session.refactorize(*as); }, sec)) {
        const std::lock_guard<std::mutex> lock(mu);
        by_epoch.erase(next);
        continue;
      }
      {
        const std::lock_guard<std::mutex> lock(mu);
        current = as;
        current_epoch = session.epoch();
      }
      last = sec;
      // The first warm step fills the buffer pool; later steps are steady.
      if (step == 1) continue;
      run.samples.add("refactorize_s", sec);
      const blr::SolverStats& st = session.stats();
      warm_attempts += static_cast<double>(st.warm.attempts);
      warm_hits += static_cast<double>(st.warm.hits);
      run.samples.add("warm.grows", static_cast<double>(st.warm.grows));
      run.samples.add("warm.dense_skips", static_cast<double>(st.warm.dense_skips));
    }
    stop.store(true);
    pool.clear();  // joins the clients
    serve_wall = clock.elapsed();
  }

  const blr::SolverStats& st = session.stats();
  ClientLog all;
  for (const ClientLog& l : logs) {
    all.latency.insert(all.latency.end(), l.latency.begin(), l.latency.end());
    all.wait.insert(all.wait.end(), l.wait.begin(), l.wait.end());
    all.server.insert(all.server.end(), l.server.begin(), l.server.end());
    all.batch.insert(all.batch.end(), l.batch.begin(), l.batch.end());
    all.plan_reused += l.plan_reused;
  }
  Samples& m = run.samples;
  run.serve_solves = all.latency.size();
  m.add("solve_p50_ms", percentile(all.latency, 0.50));
  m.add("solve_p95_ms", percentile(all.latency, 0.95));
  m.add("solves_per_s", static_cast<double>(all.latency.size()) / serve_wall);
  m.add("session.wait_p50_ms", percentile(all.wait, 0.50));
  m.add("session.server_solve_p50_ms", percentile(all.server, 0.50));
  double batch_sum = 0, batch_max = 0;
  for (const double v : all.batch) {
    batch_sum += v;
    batch_max = std::max(batch_max, v);
  }
  m.add("session.batch_mean", all.batch.empty() ? 0 : batch_sum / static_cast<double>(all.batch.size()));
  m.add("session.batch_max", batch_max);
  m.add("warm.hit_ratio", warm_attempts > 0 ? warm_hits / warm_attempts : 0);
  const double buffers = static_cast<double>(st.buffer_hits + st.buffer_misses);
  m.add("warm.buffer_hit_ratio", buffers > 0 ? static_cast<double>(st.buffer_hits) / buffers : 0);
  m.add("solve.plan_reuses", static_cast<double>(st.solve_phase.plan_reuses));
}

void setup_breakdown(Run& run) {
  const CscMatrix& a = run.a0;
  const blr::SolverOptions& o = run.opts;
  Tracer::Scope root(run.tracer, "setup_breakdown");
  blr::Timer t;
  blr::sparse::Graph g;
  {
    Tracer::Scope span(run.tracer, "Graph::from_matrix");
    t.reset();
    g = blr::sparse::Graph::from_matrix(a);
    run.samples.add("sparse.graph_s", t.elapsed());
  }
  blr::ordering::Ordering ord;
  {
    Tracer::Scope span(run.tracer, "nested_dissection");
    t.reset();
    ord = blr::ordering::nested_dissection(g, o.nd);
    run.samples.add("ordering.nd_s", t.elapsed());
  }
  std::vector<index_t> ranges = ord.ranges;
  {
    Tracer::Scope span(run.tracer, "amalgamate");
    t.reset();
    if (o.amalgamate) ranges = blr::symbolic::amalgamate(a, ord, std::move(ranges), o.amalgamation);
    run.samples.add("symbolic.amalgamate_s", t.elapsed());
  }
  {
    Tracer::Scope span(run.tracer, "split_ranges");
    t.reset();
    ranges = blr::symbolic::split_ranges(ranges, o.split);
    run.samples.add("symbolic.split_s", t.elapsed());
  }
  blr::symbolic::SymbolicFactor sf;
  {
    Tracer::Scope span(run.tracer, "SymbolicFactor::build");
    t.reset();
    sf = blr::symbolic::SymbolicFactor::build(a, ord, ranges);
    run.samples.add("symbolic.build_s", t.elapsed());
  }
  run.samples.add("ordering.supernodes", static_cast<double>(ord.num_supernodes()));
  run.samples.add("symbolic.cblks", static_cast<double>(sf.num_cblks()));
  run.samples.add("symbolic.bloks", static_cast<double>(sf.num_bloks()));
  run.samples.add("symbolic.dense_flops",
                  dense_flops(sf, a.symmetry() == blr::sparse::Symmetry::Spd));
}

double gemm_peak_gflops() {
  using blr::la::Trans;
  const index_t n = 256;
  blr::la::DMatrix a(n, n), b(n, n), c(n, n);
  blr::Prng rng(256);
  blr::la::random_normal(a.view(), rng);
  blr::la::random_normal(b.view(), rng);
  const auto gemm = [&] {
    blr::la::gemm(Trans::No, Trans::No, 1.0, a.cview(), b.cview(), 0.0, c.view());
  };
  gemm();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    const blr::Timer t;
    for (int k = 0; k < 8; ++k) gemm();
    best = std::min(best, t.elapsed() / 8);
  }
  const double nn = static_cast<double>(n);
  return 2 * nn * nn * nn / best / 1e9;
}

}  // namespace perfbench
