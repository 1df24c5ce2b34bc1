#pragma once

// Shared pieces of the perfbench program: workload description, metric sink,
// in-memory span tracer and the answer checker.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "blr.hpp"

namespace perfbench {

using blr::index_t;
using blr::real_t;

/// One named benchmark workload. Every workload runs the same two phases
/// (a Session serving concurrent solves while the main thread
/// re-factorizes, then cold analyze → factorize → solve repeats); the
/// fields set the matrix, τ and how the run's time is split between them.
struct Workload {
  std::string name;
  bool convection = false;  ///< convection_diffusion_3d (LU) instead of laplacian_3d (LLᵗ)
  index_t grid = 0;         ///< grid points per axis
  index_t tiny_grid = 0;    ///< grid used by --tiny (self-test)
  double tolerance = 1e-8;  ///< τ
  /// Run the 1-thread baseline factorize in every cold repeat; otherwise
  /// once per run (the large workload cannot afford more).
  bool one_thread_each_repeat = true;
  /// Share of --seconds spent in the cold phase; the serving phase gets the
  /// rest, and each phase runs at least its minimum counts.
  double cold_share = 0.5;
};

struct RunConfig {
  Workload w;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;     ///< self-test sizes: tiny grid, minimal repeat counts
  bool perturb = false;  ///< self-test: corrupt the first checked solution
  int threads = 1;       ///< nproc
  std::string trace_out; ///< Chrome trace-event JSON written when tracing
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (q in (0, 1]).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Per-metric samples collected over a run; reduced to one value each.
class Samples {
public:
  void add(const std::string& name, double v) { s_[name].push_back(v); }
  [[nodiscard]] double med(const std::string& name) const {
    const auto it = s_.find(name);
    return it == s_.end() ? 0.0 : median(it->second);
  }
  [[nodiscard]] const std::vector<double>& all(const std::string& name) const {
    static const std::vector<double> empty;
    const auto it = s_.find(name);
    return it == s_.end() ? empty : it->second;
  }
  [[nodiscard]] std::size_t count(const std::string& name) const {
    return all(name).size();
  }

private:
  std::map<std::string, std::vector<double>> s_;
};

/// One reported metric; a run's metrics are emitted in order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// In-memory span recorder around calls into the library's public API.
/// Spans nest per thread (the innermost open span is the parent); the
/// whole set is written as Chrome trace-event JSON when the run ends.
/// Disabled, a scope reads no clock and records nothing.
class Tracer {
public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0: root
    int thread = 0;
    double t0 = 0;             ///< seconds since the tracer was created
    double t1 = 0;
  };

  class Scope {
  public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer* t_ = nullptr;  ///< null when the tracer was disabled at entry
    Span s_;
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void write_chrome_json(const std::string& path) const;

private:
  double now() const { return clock_.elapsed(); }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<int> next_thread_{0};
  blr::Timer clock_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Checks each delivered solution: backward error against C·max(τ, ε)
/// (C = 500, the constant the repository's accuracy tests use) and, when
/// the true solution is known, forward error against a bound scaled by an
/// estimate of the grid operator's condition number. Thread-safe; every
/// operation attempted (analyze, factorization, solve) is counted, and
/// every throw or failed check counts as failed.
class Checker {
public:
  Checker(double tolerance, index_t grid, bool perturb);

  void attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void fail(const std::string& what);
  /// Check one solution of A·x = b (the solve itself was counted as
  /// attempted by its caller); `x_true` may be null.
  bool check_solve(const blr::sparse::CscMatrix& a, const real_t* b,
                   const real_t* x, const real_t* x_true, const char* where);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }
  [[nodiscard]] double worst_backward() const;

private:
  double backward_bound_;
  double forward_bound_;
  std::atomic<bool> perturb_pending_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mu_;
  double worst_backward_ = 0;  ///< guarded by mu_
  int messages_ = 0;           ///< guarded by mu_
};

/// Everything one run measures: per-metric samples, the checker and the
/// tracer, shared by both phases.
struct Run {
  explicit Run(const RunConfig& c);

  RunConfig cfg;
  blr::SolverOptions opts;  ///< nproc threads, the workload's τ, JIT/RRQR
  blr::sparse::CscMatrix a0;
  Samples samples;
  Checker checker;
  Tracer tracer;
  std::uint64_t serve_solves = 0;
};

/// Cold analyze → factorize → solve repeats until the phase's share of the
/// run's time is spent (at least 3).
void cold_phase(Run& run, double budget_s);
/// Session serving: warm refactorize steps on the main thread while
/// nproc-1 closed-loop clients call Session::solve (at least 3 steps and
/// 200 solves, so p95 has 10 samples beyond it).
void serve_phase(Run& run, double budget_s);
/// Traced mode only: the analyze pipeline re-run call by call, mirroring
/// SymbolicPlan::build, so its sub-phases get their own spans and times.
void setup_breakdown(Run& run);
/// Traced mode only: la::gemm at n = 256 in this process (GF/s).
double gemm_peak_gflops();

}  // namespace perfbench
