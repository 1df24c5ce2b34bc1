// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --threads <nproc> [--trace-out <file>] [--tiny] [--perturb]
//
// Runs one workload against the public blr.hpp API and prints one JSON
// line on stdout: the workload, seed, operations attempted and failed, and
// every metric it measured with its unit. run.py builds this program,
// runs it, adds the externally measured peak RSS and keeps the metrics
// BENCHMARK.json declares for the mode. See README.md.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

// Why each workload exists is recorded in README.md.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"oneshot_lap40", false, 40, 10, 1e-8, true, 1.0},
      {"paperscale_lap56", false, 56, 12, 1e-4, false, 0.5},
      {"timestep_cd32", true, 32, 10, 1e-8, true, 0.6},
  };
  return w;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --threads <n> [--trace-out <file>] [--tiny] [--perturb]\n",
               why);
  std::exit(2);
}

void emit(const Run& run, const std::vector<Metric>& metrics) {
  const double attempted = static_cast<double>(run.checker.attempted());
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"attempted\": %llu, "
              "\"failed\": %llu, \"error_rate\": %.17g, \"metrics\": {",
              run.cfg.w.name.c_str(), static_cast<unsigned long long>(run.cfg.seed),
              run.cfg.trace ? 1 : 0, static_cast<unsigned long long>(run.checker.attempted()),
              static_cast<unsigned long long>(run.checker.failed()),
              attempted > 0 ? static_cast<double>(run.checker.failed()) / attempted : 1.0);
  const char* sep = "";
  for (const Metric& e : metrics) {
    if (std::isfinite(e.value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, e.name.c_str(), e.value,
                  e.unit.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}", sep, e.name.c_str(),
                  e.unit.c_str());
    }
    sep = ", ";
  }
  std::printf("}}\n");
}

int run_main(int argc, char** argv) {
  RunConfig cfg;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(value().c_str());
      have_seconds = true;
    } else if (arg == "--trace") {
      cfg.trace = value() == "1";
      have_trace = true;
    } else if (arg == "--threads") {
      cfg.threads = std::atoi(value().c_str());
    } else if (arg == "--trace-out") {
      cfg.trace_out = value();
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--perturb") {
      cfg.perturb = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage("--seed, --seconds and --trace are required");
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");
  if (cfg.threads < 1) cfg.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  bool found = false;
  for (const Workload& w : workloads()) {
    if (w.name == workload) {
      cfg.w = w;
      found = true;
    }
  }
  if (!found) usage(("unknown workload '" + workload + "'").c_str());

  Run run(cfg);
  const double cold_budget = cfg.seconds * cfg.w.cold_share;
  // Serving goes first: its untimed cold pass is the process's first
  // factorize, which runs 1.3-2x slower than later ones, so no cold-phase
  // sample pays for it.
  serve_phase(run, cfg.seconds - cold_budget);
  cold_phase(run, cold_budget);
  double gemm_peak = 0;
  if (cfg.trace) gemm_peak = gemm_peak_gflops();

  const Samples& s = run.samples;
  std::vector<Metric> metrics;
  const auto put = [&metrics](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  };
  // End-to-end metrics (rss_peak_mib is measured by run.py from outside).
  put("setup_s", s.med("setup_s"), "s");
  put("factorize_s", s.med("factorize_s"), "s");
  put("factorize_1t_s", s.med("factorize_1t_s"), "s");
  put("solve_s", s.med("solve_s"), "s");
  put("time_to_solution_s", s.med("time_to_solution_s"), "s");
  put("backward_error", run.checker.worst_backward(), "ratio");
  put("factors_mib", s.med("factors_mib"), "MiB");
  put("refactorize_s", s.med("refactorize_s"), "s");
  put("solve_p50_ms", s.med("solve_p50_ms"), "ms");
  put("solve_p95_ms", s.med("solve_p95_ms"), "ms");
  put("solves_per_s", s.med("solves_per_s"), "1/s");

  // Per-layer metrics: medians over the run's cold repeats (factorize and
  // solve layers), its analyze breakdowns, or its serving phase.
  if (cfg.trace) {
    const char* setup_parts[] = {"sparse.graph_s", "ordering.nd_s", "symbolic.amalgamate_s",
                                 "symbolic.split_s", "symbolic.build_s"};
    double attributed = 0;
    for (const char* p : setup_parts) {
      put(p, s.med(p), "s");
      attributed += s.med(p);
    }
    put("setup.unattributed_s", s.med("setup_s") - attributed, "s");
    for (const char* c : {"ordering.supernodes", "symbolic.cblks", "symbolic.bloks"}) {
      put(c, s.med(c), "count");
    }
    put("symbolic.dense_flops", s.med("symbolic.dense_flops"), "flop");
    put("linalg.gemm_peak_gflops", gemm_peak, "GF/s");
    put("trace.overhead_s", s.med("tts_traced") - s.med("tts_untraced"), "s");
  }
  for (const char* op : {"gemm_ge_ge", "trsm_ge", "potrf_ge", "getrf_ge"}) {
    const std::string p = std::string("linalg.") + op;
    put(p + ".calls", s.med(p + ".calls"), "count");
    put(p + ".cpu_s", s.med(p + ".cpu_s"), "s");
    put(p + ".bytes", s.med(p + ".bytes"), "B");
  }
  put("linalg.gemm_ge_ge.bytes_per_call", s.med("linalg.gemm_ge_ge.bytes_per_call"), "B");
  put("lowrank.compress.calls", s.med("lowrank.compress.calls"), "count");
  put("lowrank.compress.cpu_s", s.med("lowrank.compress.cpu_s"), "s");
  put("lowrank.compress.useful_ratio", s.med("lowrank.compress.useful_ratio"), "ratio");
  put("lowrank.lr2ge.cpu_s", s.med("lowrank.lr2ge.cpu_s"), "s");
  put("lowrank.gemm_lr.cpu_s", s.med("lowrank.gemm_lr.cpu_s"), "s");
  put("lowrank.avg_rank", s.med("lowrank.avg_rank"), "rank");
  put("lowrank.lowrank_mib", s.med("lowrank.lowrank_mib"), "MiB");
  put("core.kernel_cpu_s", s.med("core.kernel_cpu_s"), "s");
  put("core.kernel_busy_fraction", s.med("core.kernel_busy_fraction"), "ratio");
  for (const char* c : {"core.dispatch_calls", "core.scheduler.tasks", "core.scheduler.steals",
                        "core.scheduler.failed_steals", "core.scheduler.idle_sleeps"}) {
    put(c, s.med(c), "count");
  }
  put("solve.tasks", s.med("solve.tasks"), "count");
  put("solve.trsm_cpu_s", s.med("solve.trsm_cpu_s"), "s");
  put("solve.gemm_cpu_s", s.med("solve.gemm_cpu_s"), "s");
  for (const char* c : {"solve.parallel", "solve.split", "solve.sequential", "solve.plan_reuses"}) {
    put(c, s.med(c), "count");
  }
  put("session.wait_p50_ms", s.med("session.wait_p50_ms"), "ms");
  put("session.server_solve_p50_ms", s.med("session.server_solve_p50_ms"), "ms");
  put("session.batch_mean", s.med("session.batch_mean"), "count");
  put("session.batch_max", s.med("session.batch_max"), "count");
  put("warm.hit_ratio", s.med("warm.hit_ratio"), "ratio");
  put("warm.grows", s.med("warm.grows"), "count");
  put("warm.dense_skips", s.med("warm.dense_skips"), "count");
  put("warm.buffer_hit_ratio", s.med("warm.buffer_hit_ratio"), "ratio");
  put("common.tracked_peak_mib", s.med("common.tracked_peak_mib"), "MiB");
  put("common.factors_peak_mib", s.med("common.factors_peak_mib"), "MiB");

  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu cold repeats, %zu one-thread factorizes, %zu warm "
               "steps, %llu session solves, %llu/%llu operations failed\n",
               cfg.w.name.c_str(), static_cast<unsigned long long>(cfg.seed),
               s.count("factorize_s"), s.count("factorize_1t_s"), s.count("refactorize_s"),
               static_cast<unsigned long long>(run.serve_solves),
               static_cast<unsigned long long>(run.checker.failed()),
               static_cast<unsigned long long>(run.checker.attempted()));
  if (cfg.trace && !cfg.trace_out.empty()) run.tracer.write_chrome_json(cfg.trace_out);
  emit(run, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
