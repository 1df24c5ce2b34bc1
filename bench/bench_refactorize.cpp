// Amortized re-factorization benchmark (DESIGN.md §15): the JOREK/MUMPS
// "factorization server" shape — one pattern, many numeric passes, many
// solves per pass. Measures
//
//  1. first-step cost (analyze + cold factorize) vs steady-state
//     refactorize() cost over a trajectory of value updates on a fixed
//     stencil, per strategy;
//  2. blocked solve throughput at nrhs in {1, 8, 32, 128} on the final
//     factors.
//
// Results land in bench_refactorize.json, which the ci.sh perfsmoke stage
// feeds into scripts/bench_trajectory.py next to bench_kernels.json.
// `--quick` shrinks the problem and repetitions. Every run enforces
// structural floors (plan reused, buffers recycled, warm hints replayed —
// the mechanisms behind "steady-state is cheaper" — and grouped updates:
// dense gemm calls bounded by the update groups, dense panel solves by the
// supernodes) and one in-run ratio gate: at every width, 4-thread solve
// throughput is at least 0.9x the 1-thread throughput, both timed
// alternately in this run (absolute wall-clock floors would flake on
// loaded CI machines). Exits nonzero on violation.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "blr.hpp"

namespace {

using namespace blr;

/// Scale every entry and shift the diagonal: a new numeric step on the same
/// pattern, SPD-preserving — the trajectory shape of an implicit
/// time-stepper re-assembling its Jacobian.
sparse::CscMatrix step_values(const sparse::CscMatrix& a, real_t scale,
                              real_t shift) {
  sparse::CscMatrix out = a;
  std::vector<real_t>& v = out.values();
  for (real_t& x : v) x *= scale;
  for (index_t j = 0; j < out.cols(); ++j) {
    for (index_t p = out.colptr()[static_cast<std::size_t>(j)];
         p < out.colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      if (out.rowind()[static_cast<std::size_t>(p)] == j) {
        v[static_cast<std::size_t>(p)] += shift;
      }
    }
  }
  return out;
}

struct TrajectoryRow {
  const char* strategy = "";
  double first_s = 0;       ///< analyze + cold factorize
  double analyze_s = 0;     ///< symbolic share of the first step
  double steady_s = 0;      ///< best refactorize() over the trajectory
  double speedup = 0;       ///< first_s / steady_s
  std::uint64_t warm_attempts = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_grows = 0;
  std::uint64_t dense_skips = 0;
  std::uint64_t buffer_hits = 0;
  std::uint64_t buffer_misses = 0;
};

struct SolveRow {
  index_t nrhs = 0;
  int threads = 1;        ///< solve_threads (1 = in-order drain)
  double seconds = 0;     ///< one blocked solve of nrhs columns
  double rhs_per_s = 0;
};

int run(bool quick) {
  const index_t g = quick ? 10 : 20;
  const int steps = quick ? 4 : 8;
  const sparse::CscMatrix a0 = sparse::laplacian_3d(g, g, g);
  const index_t n = a0.rows();

  SolverOptions base;
  base.kind = lr::CompressionKind::Rrqr;
  base.tolerance = 1e-8;
  base.split.split_threshold = 64;
  base.split.split_size = 32;
  base.compress_min_width = 16;
  base.compress_min_height = 8;

  int failures = 0;
  const auto require = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "bench_refactorize: FLOOR VIOLATED: %s\n", what);
      ++failures;
    }
  };

  std::vector<TrajectoryRow> rows;
  for (const Strategy strategy :
       {Strategy::JustInTime, Strategy::MinimalMemory}) {
    SolverOptions opts = base;
    opts.strategy = strategy;
    core::Solver solver(opts);

    TrajectoryRow row;
    row.strategy = core::strategy_name(strategy);

    Timer first;
    solver.factorize(a0);
    row.first_s = first.elapsed();
    row.analyze_s = solver.stats().time_analyze;
    const auto plan = solver.plan();

    // Structural floors of the grouped updates (DESIGN.md §9): at most one
    // dense gemm per (supernode, facing blok) group side and one dense
    // panel solve per panel side of each supernode. Gemm only under JIT:
    // its update targets stay dense until their own elimination, while
    // Minimal Memory's low-rank targets take per-pair product + extend-add.
    {
      const symbolic::SymbolicFactor& sf = plan->sf;
      const bool llt = solver.numeric().is_llt();
      std::uint64_t group_sides = 0, panel_sides = 0;
      for (const symbolic::Cblk& c : sf.cblks()) {
        for (const symbolic::Blok& f : c.bloks)
          group_sides += 1 + (!llt && c.bloks.back().fcblk > f.fcblk ? 1 : 0);
        panel_sides += llt ? 1 : 2;
      }
      std::uint64_t gemm_ge = 0, trsm_ge = 0;
      for (const core::DispatchCount& d : solver.stats().dispatch) {
        if (d.kernel == "gemm[ge,ge]") gemm_ge = d.calls;
        if (d.kernel == "trsm[ge]") trsm_ge = d.calls;
      }
      if (strategy == Strategy::JustInTime) {
        require(gemm_ge <= group_sides,
                "cold factorize issued more gemm[ge,ge] calls than update "
                "groups");
      }
      require(trsm_ge <= panel_sides,
              "cold factorize issued more trsm[ge] calls than panel sides");
    }

    row.steady_s = 1e300;
    for (int s = 1; s <= steps; ++s) {
      const sparse::CscMatrix as =
          step_values(a0, real_t(1) + real_t(0.05) * static_cast<real_t>(s),
                      real_t(0.1) * static_cast<real_t>(s));
      Timer t;
      solver.refactorize(as);
      const double sec = t.elapsed();
      if (s > 1) row.steady_s = std::min(row.steady_s, sec);
    }
    const core::SolverStats& st = solver.stats();
    row.speedup = row.first_s / row.steady_s;
    row.warm_attempts = st.warm.attempts;
    row.warm_hits = st.warm.hits;
    row.warm_grows = st.warm.grows;
    row.dense_skips = st.warm.dense_skips;
    row.buffer_hits = st.buffer_hits;
    row.buffer_misses = st.buffer_misses;

    // Structural floors: the three reuse mechanisms actually engaged.
    require(solver.plan().get() == plan.get(), "symbolic plan was rebuilt");
    require(st.refactorizations == static_cast<std::uint64_t>(steps),
            "refactorize() fell back to a cold pass");
    require(st.buffer_hits > 0, "no pooled buffer was reused");
    require(st.warm.attempts + st.warm.dense_skips > 0,
            "no compression consumed a replayed rank hint");
    rows.push_back(row);
  }

  // Solve throughput: one blocked multi-RHS solve per (width, solve-thread
  // count) on JustInTime factors (the solve path is strategy-independent
  // once the factors exist). The warmed pass after a refactorize also pins
  // the solve-plan replay floor.
  constexpr int kThreads[] = {1, 4};
  std::vector<std::unique_ptr<core::Solver>> solvers;
  for (const int threads : kThreads) {
    SolverOptions opts = base;
    opts.strategy = Strategy::JustInTime;
    opts.solve_threads = threads;
    solvers.push_back(std::make_unique<core::Solver>(opts));
    solvers.back()->factorize(a0);
    // One value step so the steady-state (plan-replaying) solve is measured.
    solvers.back()->refactorize(step_values(a0, real_t(1.05), real_t(0.1)));
  }
  std::vector<SolveRow> solves;
  Prng rng(1234);
  for (const index_t nrhs : {index_t{1}, index_t{8}, index_t{32},
                             index_t{128}}) {
    la::DMatrix b(n, nrhs), x(n, nrhs);
    la::random_normal(b.view(), rng);
    // Best of 5, the thread counts alternating so both see the same host.
    double best[2] = {1e300, 1e300};
    for (int r = 0; r < 5; ++r) {
      for (std::size_t i = 0; i < solvers.size(); ++i) {
        Timer t;
        solvers[i]->solve(b.cview(), x.view());
        best[i] = std::min(best[i], t.elapsed());
      }
    }
    for (std::size_t i = 0; i < solvers.size(); ++i) {
      SolveRow sr;
      sr.nrhs = nrhs;
      sr.threads = kThreads[i];
      sr.seconds = best[i];
      sr.rhs_per_s = static_cast<double>(nrhs) / best[i];
      solves.push_back(sr);
    }
    // In-run ratio gate: throughput ratio 4t / 1t = best[0] / best[1].
    char what[128];
    std::snprintf(what, sizeof what,
                  "4-thread solve throughput %.2fx the 1-thread one at "
                  "nrhs %lld (floor 0.9x)",
                  best[0] / best[1], static_cast<long long>(nrhs));
    require(best[0] >= 0.9 * best[1], what);
  }
  // Structural floors: the cached solve schedule served every pass, and the
  // 4-thread solver drained over its pool.
  for (const auto& solver : solvers) {
    const core::SolvePhaseStats& sp = solver->stats().solve_phase;
    require(sp.plan_builds == 1 && sp.plan_reuses >= 1,
            "solve plan was rebuilt instead of reused across refactorize");
  }
  require(solvers.back()->stats().solve_phase.parallel_solves > 0,
          "4-thread solve never drained over its pool");

  // fp32 widen-cache floor: MixedTiles factors promote their low-rank
  // factors to fp64 once per epoch and hit that cache on every solve.
  {
    SolverOptions opts = base;
    opts.strategy = Strategy::MinimalMemory;
    opts.precision = TilePrecision::MixedTiles;
    core::Solver solver(opts);
    solver.factorize(a0);
    Prng rng(99);
    la::DMatrix b(n, 4), x(n, 4);
    la::random_normal(b.view(), rng);
    solver.solve(b.cview(), x.view());
    solver.solve(b.cview(), x.view());
    const core::SolvePhaseStats& sp = solver.stats().solve_phase;
    require(solver.stats().num_fp32_blocks > 0,
            "MixedTiles produced no fp32 blocks to widen");
    require(sp.widen_bytes > 0 && sp.widen_hits > 0,
            "fp32 widen cache never engaged");
  }
  std::FILE* out = std::fopen("bench_refactorize.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_refactorize: cannot write report\n");
    return failures + 1;
  }
  std::fprintf(out, "{\n  \"n\": %lld,\n  \"steps\": %d,\n",
               static_cast<long long>(n), steps);
  std::fprintf(out, "  \"refactorize\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TrajectoryRow& r = rows[i];
    std::fprintf(out,
                 "    {\"strategy\": \"%s\", \"first_s\": %.6e, "
                 "\"analyze_s\": %.6e, \"steady_s\": %.6e, "
                 "\"speedup\": %.3f, \"warm_attempts\": %llu, "
                 "\"warm_hits\": %llu, \"warm_grows\": %llu, "
                 "\"dense_skips\": %llu, \"buffer_hits\": %llu, "
                 "\"buffer_misses\": %llu}%s\n",
                 r.strategy, r.first_s, r.analyze_s, r.steady_s, r.speedup,
                 static_cast<unsigned long long>(r.warm_attempts),
                 static_cast<unsigned long long>(r.warm_hits),
                 static_cast<unsigned long long>(r.warm_grows),
                 static_cast<unsigned long long>(r.dense_skips),
                 static_cast<unsigned long long>(r.buffer_hits),
                 static_cast<unsigned long long>(r.buffer_misses),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"solve_throughput\": [\n");
  for (std::size_t i = 0; i < solves.size(); ++i) {
    const SolveRow& sr = solves[i];
    std::fprintf(out,
                 "    {\"nrhs\": %lld, \"threads\": %d, \"seconds\": %.6e, "
                 "\"rhs_per_s\": %.1f}%s\n",
                 static_cast<long long>(sr.nrhs), sr.threads, sr.seconds,
                 sr.rhs_per_s, i + 1 < solves.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote bench_refactorize.json\n");

  for (const TrajectoryRow& r : rows) {
    std::printf("%-14s first %.3f ms  steady %.3f ms  speedup %.2fx  "
                "(warm %llu hits / %llu grows / %llu dense-skips, "
                "pool %llu hits)\n",
                r.strategy, r.first_s * 1e3, r.steady_s * 1e3, r.speedup,
                static_cast<unsigned long long>(r.warm_hits),
                static_cast<unsigned long long>(r.warm_grows),
                static_cast<unsigned long long>(r.dense_skips),
                static_cast<unsigned long long>(r.buffer_hits));
  }
  return failures;
}

} // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  return run(quick) > 0 ? 1 : 0;
}
