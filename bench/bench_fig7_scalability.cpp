// Figure 7: memory scalability on 3D Laplacians of increasing size for the
// Minimal-Memory/RRQR scenario — the factors' final size and the solver's
// total peak consumption, for the dense baseline and tau in
// {1e-4, 1e-8, 1e-12}. Shape to reproduce: the dense curve grows fastest;
// looser tolerances flatten both the factor size and the peak, which is
// what let the paper run 12M unknowns in 128 GB.
//
// Second section (beyond the paper's figure): thread scaling on the largest
// generator problem of the sweep — factorization wall time of the
// work-stealing pool per thread count against 1 thread, with the
// steal/idle counters the pool collects. Third section: the scheduling
// A/B, right-looking barrier vs left-looking fan-in, in time and peak.

#include <algorithm>
#include <cmath>

#include "bench_common.hpp"

using namespace bench;

namespace {

void thread_scaling(const sparse::CscMatrix& a, index_t n) {
  print_header("Figure 7b — thread scaling (JIT/RRQR), largest problem of the sweep");
  std::printf("problem: lap %lld^3, %lld dofs\n\n", static_cast<long long>(n),
              static_cast<long long>(a.rows()));
  std::printf("%8s | %12s | %8s | %24s\n", "threads", "factorize s",
              "speedup", "steals/empty/sleeps");

  std::vector<int> counts = {1, 2, 4, 8};
  const int hw = env_threads();
  if (std::find(counts.begin(), counts.end(), hw) == counts.end() && hw > 1) {
    counts.push_back(hw);
  }
  std::sort(counts.begin(), counts.end());

  double seq_s = 0;
  for (const int threads : counts) {
    SolverOptions o = paper_options(Strategy::JustInTime,
                                    lr::CompressionKind::Rrqr, 1e-8);
    o.threads = threads;
    Solver keep(o);
    const RunResult r = run_solver(a, o, &keep);
    const auto& st = keep.stats();
    if (threads == 1) seq_s = r.factorization_time;

    std::printf("%8d | %12.3f | %7.2fx | %10llu/%llu/%llu\n", threads,
                r.factorization_time, seq_s / r.factorization_time,
                static_cast<unsigned long long>(st.scheduler_steals),
                static_cast<unsigned long long>(st.scheduler_failed_steals),
                static_cast<unsigned long long>(st.scheduler_idle_sleeps));
    std::fflush(stdout);
  }
}

// Scheduling A/B: the right-looking barrier (the default, fastest) vs the
// left-looking fan-in (lower peak, bit-identical at every thread count) —
// the speed-versus-memory/determinism choice SolverOptions::scheduling
// offers. Each thread count times the two alternately (the side that runs
// first flips every round), best of 3, and
// reports the largest tracked peak of the three runs against the final
// factor size.
void scheduling_ab(const sparse::CscMatrix& a, index_t n, real_t tol,
                   std::FILE* json, bool* json_first) {
  print_header("Figure 7c — scheduling A/B (JIT/RRQR): barrier vs left-looking");
  std::printf("problem: lap %lld^3, %lld dofs, tau = %.0e, best of 3\n\n",
              static_cast<long long>(n), static_cast<long long>(a.rows()),
              static_cast<double>(tol));
  std::printf("%8s | %10s %10s | %10s %10s | %8s | %13s\n", "threads",
              "barrier s", "peak MiB", "left s", "peak MiB", "time",
              "left peak");
  std::printf("%8s | %21s | %21s | %8s | %13s\n", "", "", "", "left/bar",
              "/ factors");

  std::vector<int> counts = {1, 2, 4};
  const int hw = env_threads();
  if (std::find(counts.begin(), counts.end(), hw) == counts.end() && hw > 1) {
    counts.push_back(hw);
  }
  std::sort(counts.begin(), counts.end());

  for (const int threads : counts) {
    SolverOptions o = paper_options(Strategy::JustInTime,
                                    lr::CompressionKind::Rrqr, tol);
    o.threads = threads;
    RunResult best[2];
    std::size_t peak[2] = {0, 0};
    for (int rep = 0; rep < 3; ++rep) {
      for (int k = 0; k < 2; ++k) {
        const int left = (rep + k) % 2;  // alternate which side runs first
        o.scheduling = left == 1 ? core::Scheduling::LeftLooking
                                 : core::Scheduling::RightLooking;
        const RunResult r = run_solver(a, o);
        if (rep == 0 || r.factorization_time < best[left].factorization_time)
          best[left] = r;
        peak[left] = std::max(peak[left], r.total_peak_bytes);
      }
    }
    best[0].total_peak_bytes = peak[0];
    best[1].total_peak_bytes = peak[1];

    std::printf("%8d | %10.3f %10.1f | %10.3f %10.1f | %7.2fx | %12.2fx\n",
                threads, best[0].factorization_time, mib(peak[0]),
                best[1].factorization_time, mib(peak[1]),
                best[1].factorization_time / best[0].factorization_time,
                static_cast<double>(peak[1]) /
                    static_cast<double>(best[1].factor_bytes));
    std::fflush(stdout);

    if (json) {
      char label[32];
      std::snprintf(label, sizeof label, "barrier_t%d", threads);
      if (!*json_first) std::fprintf(json, ",\n");
      *json_first = false;
      json_run(json, label, a.rows(), best[0]);
      std::snprintf(label, sizeof label, "left_looking_t%d", threads);
      std::fprintf(json, ",\n");
      json_run(json, label, a.rows(), best[1]);
    }
  }
}

} // namespace

int main() {
  const index_t nmax = env_index("BLR_BENCH_N", 52);
  print_header("Figure 7 — memory scalability, 3D Laplacians (MinMem/RRQR)");

  // Machine-readable companion of the table: one JSON object per run,
  // including the per-kernel dispatch counters.
  const char* json_path = std::getenv("BLR_BENCH_JSON");
  std::FILE* json =
      std::fopen(json_path ? json_path : "fig7_memory.json", "w");
  if (json) std::fprintf(json, "{\n  \"figure\": \"fig7_memory\",\n  \"runs\": [\n");
  bool json_first = true;
  const auto emit = [&](const char* label, index_t dofs, const RunResult& r) {
    if (!json) return;
    if (!json_first) std::fprintf(json, ",\n");
    json_first = false;
    json_run(json, label, dofs, r);
  };

  std::printf("%-8s %10s | %21s | %21s | %21s | %21s\n", "size", "dofs",
              "dense fact/peak MB", "t=1e-4 fact/peak", "t=1e-8 fact/peak",
              "t=1e-12 fact/peak");

  index_t nlast = 12;
  for (index_t n = 12; n <= nmax; n += 8) {
    nlast = n;
    const auto a = sparse::laplacian_3d(n, n, n);
    std::printf("%3lld^3   %10lld |", static_cast<long long>(n),
                static_cast<long long>(a.rows()));

    const RunResult dense =
        run_solver(a, paper_options(Strategy::Dense, lr::CompressionKind::Rrqr, 1e-8));
    std::printf(" %9.1f/%9.1f |", mib(dense.factor_entries * sizeof(real_t)),
                mib(dense.total_peak_bytes));
    emit("dense", a.rows(), dense);

    for (const real_t tol : {1e-4, 1e-8, 1e-12}) {
      const RunResult r = run_solver(
          a, paper_options(Strategy::MinimalMemory, lr::CompressionKind::Rrqr, tol));
      std::printf(" %9.1f/%9.1f |", mib(r.factor_entries * sizeof(real_t)),
                  mib(r.total_peak_bytes));
      const std::string label =
          "minmem_tol" + std::to_string(static_cast<int>(-std::log10(tol)));
      emit(label.c_str(), a.rows(), r);
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  const auto a_last = sparse::laplacian_3d(nlast, nlast, nlast);
  thread_scaling(a_last, nlast);

  // The scheduling A/B rides in the same JSON file, as its own array. Its
  // problem defaults to the sweep's largest; BLR_BENCH_AB_N and
  // BLR_BENCH_AB_TOL (default 1e-8) pick another size and tolerance.
  if (json) std::fprintf(json, "\n  ],\n  \"scheduling_ab\": [\n");
  bool ab_first = true;
  const index_t nab = env_index("BLR_BENCH_AB_N", nlast);
  const char* tol_env = std::getenv("BLR_BENCH_AB_TOL");
  const real_t tol_ab =
      tol_env ? static_cast<real_t>(std::atof(tol_env)) : real_t(1e-8);
  scheduling_ab(nab == nlast ? a_last : sparse::laplacian_3d(nab, nab, nab),
                nab, tol_ab, json, &ab_first);

  if (json) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
  }
  return 0;
}
