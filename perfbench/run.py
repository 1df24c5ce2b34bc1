#!/usr/bin/env python3
"""Repository benchmark: build the perfbench program, run one workload, print the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The perfbench program and the solver library are built
from source into .bench_build/perfbench (CMake, Release). The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; with --trace 0 the metrics are BENCHMARK.json's end_to_end list,
with --trace 1 its per_layer list. The traced run also writes its spans as
Chrome trace-event JSON to .bench_build/perfbench/trace-<workload>-<seed>.json.
The peak RSS of the perfbench process (rss_peak_mib) is measured here, from
outside it. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "perfbench"
SETUP_PARTS = ["sparse.graph_s", "ordering.nd_s", "symbolic.amalgamate_s",
               "symbolic.split_s", "symbolic.build_s", "setup.unattributed_s"]


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(deadline):
    """Configure (once) and build the program; True when this call configured a fresh tree."""
    if not (ROOT / "src" / "blr.hpp").is_file():
        raise BenchError(f"solver sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    fresh = not (BUILD / "CMakeCache.txt").is_file()
    steps = []
    if fresh:
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(min(4, nproc()))])
    for cmd in steps:
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchError("no time left to build")
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=left, check=False)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"build timed out: {' '.join(cmd)}") from e
        if res.returncode != 0:
            raise BenchError(f"build failed ({res.returncode}): {' '.join(cmd)}")
    if not EXE.is_file():
        raise BenchError(f"program not built: {EXE}")
    return fresh


def run_program(args, deadline):
    """Run the program to completion; returns (its JSON line, its peak RSS in MiB).

    The program is reaped with wait4 so its own max RSS is read, not that of
    the compiler processes the build left behind in RUSAGE_CHILDREN."""
    out_path = BUILD / f"perfbench-{os.getpid()}.out"
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([str(EXE)] + args, stdout=out, stderr=sys.stderr)
        status = rusage = None
        try:
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid != 0:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, rusage = os.wait4(proc.pid, 0)
                    raise BenchError("perfbench exceeded its time limit and was killed")
                time.sleep(0.02)
        finally:
            proc.returncode = 0 if status is None else os.waitstatus_to_exitcode(status)
    text = out_path.read_text()
    out_path.unlink()
    if proc.returncode != 0:
        raise BenchError(f"perfbench exited with {proc.returncode}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("perfbench printed no result")
    return json.loads(lines[-1]), rusage.ru_maxrss / 1024.0


def load_spec():
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC}: {e}") from e


def select(spec, key, raw, rss_mib):
    """The metrics BENCHMARK.json declares under `key`, checked for name,
    unit and a finite value."""
    have = dict(raw["metrics"])
    have["rss_peak_mib"] = {"value": rss_mib, "unit": "MiB"}
    out = {}
    for m in spec[key]:
        got = have.get(m["name"])
        if got is None:
            raise BenchError(f"perfbench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        v = got["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise BenchError(f"{m['name']}: not a finite number ({v})")
        out[m["name"]] = {"value": v, "unit": got["unit"]}
    return out


def run_workload(spec, workload, seed, seconds, trace, deadline, extra=()):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--threads", str(nproc())]
    if trace:
        args += ["--trace-out", str(BUILD / f"trace-{workload}-{seed}.json")]
    raw, rss = run_program(args + list(extra), deadline)
    key = "per_layer" if trace else "end_to_end"
    return raw, select(spec, key, raw, rss)


def self_test():
    """Tiny-grid checks of the benchmark itself: every declared metric is
    emitted with its unit (end-to-end ones nonzero), the analyze sub-phases
    plus their unattributed remainder sum to setup_s, the traced spans cover
    the analyze pipeline, and a deliberately perturbed solution is caught
    and counted."""
    spec = load_spec()
    build(time.monotonic() + 850)
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for w in workloads:
        for trace in (0, 1):
            raw, metrics = run_workload(spec, w, 7, 1, trace, time.monotonic() + 120, ["--tiny"])
            if raw["failed"] != 0:
                problems.append(f"{w}: {raw['failed']} operations failed")
            if trace == 0:
                zero = [k for k, v in metrics.items() if v["value"] == 0]
                if zero:
                    problems.append(f"{w}: end-to-end metrics read 0: {zero}")
                continue
            setup = raw["metrics"]["setup_s"]["value"]
            parts = sum(metrics[p]["value"] for p in SETUP_PARTS)
            if abs(parts - setup) > 1e-9 * max(1.0, setup):
                problems.append(f"{w}: setup parts sum to {parts}, setup_s is {setup}")
            spans = json.loads((BUILD / f"trace-{w}-7.json").read_text())["traceEvents"]
            names = {s["name"] for s in spans}
            for need in ["Solver::analyze", "Graph::from_matrix", "nested_dissection",
                         "amalgamate", "split_ranges", "SymbolicFactor::build",
                         "Solver::factorize", "Solver::solve", "Session::refactorize",
                         "Session::solve"]:
                if need not in names:
                    problems.append(f"{w}: no '{need}' span in the trace")
    raw, _ = run_workload(spec, workloads[0], 7, 1, 0, time.monotonic() + 120,
                          ["--tiny", "--perturb"])
    if raw["failed"] < 1 or not raw["error_rate"] > 0:
        problems.append("a perturbed solution was not counted as failed")
    for p in problems:
        log(f"self-test: {p}")
    print(json.dumps({"self_test": "failed" if problems else "passed",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    try:
        if a.self_test:
            return self_test()
        if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
            ap.error("--workload, --seed, --seconds and --trace are required")
        start = time.monotonic()
        spec = load_spec()
        if a.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {a.workload}")
        fresh = build(start + 840)
        # A run exits within 180 s, or 900 s when it had to build first.
        deadline = start + (880 if fresh else 175)
        raw, metrics = run_workload(spec, a.workload, a.seed, a.seconds, a.trace, deadline)
    except BenchError as e:
        log(f"error: {e}")
        return 1
    log(f"{a.workload} seed {a.seed}: error_rate {raw['error_rate']:.3g} "
        f"({raw['failed']}/{raw['attempted']})")
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
