#!/usr/bin/env bash
# One-shot local mirror of CI: configure + build + ctest + cimlint for a
# preset, plus clang-tidy over src/ and tools/ when it is installed; the
# relwithdebinfo leg adds the full-mode bench gates and the perfbench
# digest gate. Reproduces a red CI run in one command.
#
# Usage:
#   scripts/check.sh                 # relwithdebinfo (the tier-1 gate)
#   scripts/check.sh asan-ubsan      # sanitizer matrix leg
#   scripts/check.sh x86-64-v3       # byte pins, goldens and replays built
#                                    # for an FMA target (SKIPPED on a host
#                                    # without x86-64-v3)
#   scripts/check.sh all             # every CI leg in sequence
#   scripts/check.sh --lint-only     # cimlint scan + docs links, nothing else
#   scripts/check.sh --bench-gates   # full-mode bench gates + perfbench digest
#                                    # gate on an existing relwithdebinfo
#                                    # build (what CI's optimized leg runs)
set -euo pipefail

cd "$(dirname "$0")/.."

# The cimlint gate: any finding fails, and so does a stale allow comment.
# Builds only the linter, so it runs in seconds and fronts the expensive
# build legs.
run_lint() {
  local preset="${1:-relwithdebinfo}"
  local build_dir="build/$preset"
  if [[ ! -x "$build_dir/tools/cimlint/cimlint" ]]; then
    if [[ -d "$build_dir" ]]; then
      cmake --build --preset "$preset" --target cimlint -j "$(nproc)"
    else
      # No preset tree yet: lint-only configure, which skips find_package
      # for gtest — the gate runs on a machine with only cmake.
      build_dir="build/lint"
      cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
            -DCIM_LINT_ONLY=ON >/dev/null
      cmake --build "$build_dir" --target cimlint -j "$(nproc)"
    fi
  fi
  echo "==> [$preset] cimlint"
  "$build_dir/tools/cimlint/cimlint" --root . src bench examples tests tools
  echo "==> [$preset] docs link check"
  scripts/check_docs_links.sh
}

run_preset() {
  local preset="$1"
  echo "==> [$preset] configure"
  cmake --preset "$preset"
  # Lint before the full build: a layering or determinism finding should
  # fail the run before minutes of compiling.
  run_lint "$preset"
  echo "==> [$preset] build"
  cmake --build --preset "$preset" -j "$(nproc)"
  if [[ "$preset" == "werror" ]]; then
    # werror is a build-only gate: it proves the tree stays
    # -Werror -Wconversion clean.
    return 0
  fi
  # One ctest run per leg: the relwithdebinfo and asan-ubsan presets have
  # no filter, so every labelled suite and replay gate runs here once; the
  # tsan preset's filter selects the concurrency, serve, fabric, dse and
  # footprint labels.
  echo "==> [$preset] ctest"
  ctest --preset "$preset"
  if [[ "$preset" == "relwithdebinfo" ]]; then
    run_perf_gate "$preset"
    run_digest_gate
  fi
}

# Perf gate: the four gated benches in full mode. Each re-runs its
# correctness, availability or DSE gates at full size; the kernel and
# fabric benches also print PASS, FAIL or SKIPPED (<reason>) per
# wall-clock ratio gate. Any failing gate exits nonzero. Host-time numbers
# themselves are recorded by perfbench.
run_perf_gate() {
  local preset="$1" bench
  for bench in bench_mvm_kernel bench_serve_latency bench_fabric_cosim \
               bench_dse_sweep; do
    echo "==> [$preset] $bench (full mode)"
    "./build/$preset/bench/$bench"
  done
}

# Repo benchmark digest gate, as CI runs it: every perfbench workload's
# fixed work must hash to its perfbench/expected_digests.json entry for
# both pinned seeds (and replay at another thread count), which is what
# proves a kernel optimisation bit-exact. Exit 3 (SKIPPED: fewer usable
# CPUs than the workload's fixed thread count) prints its reason and
# passes; any other nonzero exit fails: 1 (correctness or digest check
# failed), 2 (build/usage error), 4 (metrics do not match BENCHMARK.json).
# The result lines are kept in perfbench-<workload>-seed<n>.out.
run_digest_gate() {
  local seed w rc out
  for seed in 1 2; do
    for w in infer-noisy fabric-pipeline serve-openloop stream-dataflow; do
      echo "==> perfbench digest gate: $w seed $seed"
      rc=0
      out="perfbench-$w-seed$seed.out"
      python3 perfbench/run.py --workload "$w" --seed "$seed" \
        --seconds 1 --trace 0 > "$out" || rc=$?
      cat "$out"
      case "$rc" in
        0) ;;
        3) echo "perfbench $w seed $seed skipped: $(grep -m1 SKIPPED "$out")" ;;
        *) echo "perfbench $w seed $seed failed with exit code $rc"; return 1 ;;
      esac
    done
  done
}

# The FP-contraction leg: the x86-64-v3 preset builds for a target with
# FMA (and AVX2), where a compiler allowed to contract would fuse a*b+c, and
# its test preset runs the bytepin, golden and replay labels; then the
# perfbench digest gate runs on a perfbench tree configured with the same
# -march (CMake reads CXXFLAGS when it first configures that tree). Every
# value they pin must come out byte-equal to the default x86-64 build. A
# host that cannot run x86-64-v3 code prints SKIPPED with the missing
# feature.
run_isa_leg() {
  local feature
  for feature in avx2 fma bmi2 movbe; do
    if ! grep -qw "$feature" /proc/cpuinfo 2>/dev/null; then
      echo "==> [x86-64-v3] SKIPPED (host CPU lacks $feature)"
      return 0
    fi
  done
  run_preset x86-64-v3
  (
    export CXXFLAGS=-march=x86-64-v3
    export CARGO_TARGET_DIR=build/x86-64-v3/perfbench-tree
    run_digest_gate
  )
}

run_clang_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy not installed; skipping (CI runs it on changed files)"
    return 0
  fi
  echo "==> clang-tidy (src/ and tools/)"
  local build_dir="build/relwithdebinfo"
  [[ -f "$build_dir/compile_commands.json" ]] || cmake --preset relwithdebinfo
  find src tools -name '*.cc' -print0 |
    xargs -0 -P "$(nproc)" -n 4 clang-tidy -p "$build_dir" --quiet
}

target="${1:-relwithdebinfo}"
case "$target" in
  --lint-only)
    run_lint relwithdebinfo
    echo "==> lint gate passed"
    exit 0
    ;;
  --bench-gates)
    run_perf_gate relwithdebinfo
    run_digest_gate
    echo "==> bench gates passed"
    exit 0
    ;;
  all)
    run_preset relwithdebinfo
    run_preset asan-ubsan
    run_preset tsan
    run_preset werror
    run_isa_leg
    run_clang_tidy
    ;;
  x86-64-v3)
    run_isa_leg
    ;;
  *)
    run_preset "$target"
    run_clang_tidy
    ;;
esac

echo "==> all checks passed"
