#!/usr/bin/env bash
# CI matrix: a Debug build plus one build per sanitizer (reusing the
# BLR_SANITIZE cache option), each with its own ctest selection, plus
# clang-tidy on the numeric-engine headers.
#
#   scripts/ci.sh              # run every stage
#   scripts/ci.sh debug        # one stage: docs | debug | asan | ubsan | tsan |
#                              #   perfsmoke | backends | tidy
#
# Build trees go to build-ci-<stage>. The Debug stage exports
# compile_commands.json and links it at the repo root for tooling.
set -euo pipefail
cd "$(dirname "$0")/.."

GENERATOR=()
command -v ninja >/dev/null 2>&1 && GENERATOR=(-G Ninja)
JOBS="$(nproc)"

# stage name -> BLR_SANITIZE value and ctest selection. Sanitized builds run
# label subsets: ASan/UBSan take the whole suite (including the `resource`
# label, whose soft-failure paths are exactly where leaks would hide); TSan
# (the slowest) takes the concurrency-sensitive suites — the engine + fault +
# resource + session + solve + analyze labels (the engine, fault and resource
# labels run both factorization drivers on pools, the left-looking fan-in's
# pinned-hash grid at 2/4/8 threads included; sessions coalesce solves across
# threads and race refactorize against them; the solve label drains the
# parallel solve DAG and races direct solves on the engine lock; the analyze
# label runs nested dissection on pools, whose tasks write disjoint slices of
# shared arrays), the scheduler label (the work-stealing pool's own tests)
# and the determinism/trace tests written for it.
configure_and_build() { # <dir> <sanitize> [extra cmake args...]
  local dir="$1" sanitize="$2"
  shift 2
  cmake -B "$dir" -S . "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Debug \
        -DBLR_SANITIZE="$sanitize" "$@"
  cmake --build "$dir" -j "$JOBS"
}

run_debug() {
  configure_and_build build-ci-debug "" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  ln -sf build-ci-debug/compile_commands.json compile_commands.json
  ctest --test-dir build-ci-debug --output-on-failure -j "$JOBS"
}

run_asan() {
  configure_and_build build-ci-asan address
  ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS"
  # Focused re-run of the solve label: the widen cache and the permutation
  # scratch pool are exactly the lazily-built, cross-solve-reused allocations
  # where leaks and use-after-invalidation would hide.
  ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS" -L solve
}

run_ubsan() {
  configure_and_build build-ci-ubsan undefined
  ctest --test-dir build-ci-ubsan --output-on-failure -j "$JOBS"
}

run_tsan() {
  configure_and_build build-ci-tsan thread
  ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
        -L 'engine|fault|resource|session|solve|analyze|scheduler'
  ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
        -R 'ParallelDeterminism|Trace'
}

# Documentation lint, two checks that keep the README options table and
# the header in step:
#  - every SolverOptions field carries a doc comment — either a /// block
#    on the preceding line(s) or a trailing ///<;
#  - every `| `field` |` row of README's options table (the one headed
#    `| option | default | meaning |`) names an existing SolverOptions
#    field (dotted rows such as `recovery.enabled` by their first part), so
#    a deleted knob cannot stay documented.
# Fails listing the offending fields or rows.
run_docs() {
  awk '
    /^struct SolverOptions/ { in_struct = 1; next }
    !in_struct              { next }
    /^};/                   { exit bad }
    {
      line = $0
      sub(/^[ \t]+/, "", line)
    }
    line ~ /^\/\/\// { prev_doc = 1; next }   # /// doc line: blesses the next field
    line ~ /^\/\//   { prev_doc = 0; next }   # plain // comment does not
    line == ""       { next }
    line ~ /;[ \t]*(\/\/.*)?$/ {              # a member declaration
      if (line ~ /\/\/\/</ || prev_doc) { prev_doc = 0; next }
      printf "ci[docs]: undocumented SolverOptions field: %s\n", line
      bad = 1
      next
    }
    { prev_doc = 0 }
    END { exit bad }
  ' src/core/options.hpp
  echo "ci[docs]: every SolverOptions field is documented"

  local fields
  fields="$(awk '
    /^struct SolverOptions/ { in_struct = 1; next }
    !in_struct              { next }
    /^};/                   { exit }
    {
      line = $0
      sub(/\/\/.*/, "", line)                 # drop comments
      if (line !~ /;[ \t]*$/) next            # member declarations only
      sub(/[ \t]*(=.*)?;[ \t]*$/, "", line)   # drop initializer and ;
      n = split(line, words, /[ \t]+/)
      print words[n]
    }
  ' src/core/options.hpp)"
  awk -v fields="$fields" '
    BEGIN { n = split(fields, f, "\n"); for (i = 1; i <= n; ++i) known[f[i]] = 1 }
    /^\| option \| default \| meaning \|/ { in_table = 1; next }
    in_table && !/^\|/                    { in_table = 0 }
    in_table && match($0, /^\| `[^`]+` \|/) {
      name = substr($0, 4, RLENGTH - 6)
      sub(/\..*/, "", name)
      if (!(name in known)) {
        printf "ci[docs]: README options row names no SolverOptions field: %s\n", name
        bad = 1
      }
    }
    END { exit bad }
  ' README.md
  echo "ci[docs]: every README options row names a SolverOptions field"
}

# Performance smoke: Release builds of bench_kernels and bench_refactorize
# run in --quick mode. Each bench enforces its own floor — packed gemm must
# not be >10% slower than the old loop nests at n=k=256, the nproc-thread
# JIT factorize of convection-diffusion 16³ must be at least as fast as the
# 1-thread one (best of 5, timed alternately in the same run), the
# re-factorization trajectory must actually reuse the plan/buffers/rank
# hints, and the 4-thread solve must keep ≥ 0.9x the 1-thread solve
# throughput at every nrhs, both timed in the same run — and exits nonzero
# otherwise. The JSON reports are copied over the
# committed BENCH_*.json so the last green perfsmoke numbers travel with the
# tree, and both are summarized into one entry of the rolling
# BENCH_trajectory.json so drift across commits stays visible.
run_perfsmoke() {
  cmake -B build-ci-perfsmoke -S . "${GENERATOR[@]}" \
        -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci-perfsmoke -j "$JOBS" \
        --target bench_kernels --target bench_refactorize
  (cd build-ci-perfsmoke && ./bench/bench_kernels --quick)
  (cd build-ci-perfsmoke && ./bench/bench_refactorize --quick)
  cp build-ci-perfsmoke/bench_kernels.json BENCH_kernels.json
  cp build-ci-perfsmoke/bench_refactorize.json BENCH_refactorize.json
  python3 scripts/bench_trajectory.py BENCH_kernels.json BENCH_refactorize.json
  echo "ci[perfsmoke]: packed gemm, factorize thread scaling, refactorize reuse and solve scaling within bounds"
}

# Backend A/B: the full tier-1 suite twice against ONE Debug build — once
# forced onto the Reference loop nests, once onto the Native packed engine —
# via the BLR_BACKEND environment override, proving the runtime-dispatch
# contract (same binary, no recompilation; DESIGN.md §14). Reuses the debug
# build tree when it exists. On non-x86 hosts Native still runs (the
# portable packed tier is always compiled in), so no skip is needed; the
# SIMD tiers just aren't built there.
run_backends() {
  configure_and_build build-ci-debug ""
  BLR_BACKEND=reference ctest --test-dir build-ci-debug \
        --output-on-failure -j "$JOBS"
  BLR_BACKEND=native ctest --test-dir build-ci-debug \
        --output-on-failure -j "$JOBS"
  echo "ci[backends]: full suite green under BLR_BACKEND=reference and =native"
}

# clang-tidy over the headers introduced by the tile-centric engine. Fails
# on any warning; skipped (not failed) when clang-tidy is not installed.
run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "ci: clang-tidy not found, skipping the tidy stage"
    return 0
  fi
  clang-tidy --warnings-as-errors='*' \
      src/lowrank/tile.hpp src/core/kernels_dispatch.hpp \
      src/core/update_policy.hpp \
      -- -std=c++20 -x c++ -Isrc
}

STAGES=(docs debug asan ubsan tsan perfsmoke backends tidy)
if [[ $# -gt 0 ]]; then STAGES=("$@"); fi
for stage in "${STAGES[@]}"; do
  echo "==== ci stage: $stage ===="
  "run_$stage"
done
echo "==== ci: all stages passed ===="
