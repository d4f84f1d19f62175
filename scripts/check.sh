#!/usr/bin/env bash
# One-shot local mirror of CI: configure + build + ctest + cimlint for a
# preset, plus clang-tidy over src/ when it is installed. Reproduces a red
# CI run in one command.
#
# Usage:
#   scripts/check.sh                 # relwithdebinfo (the tier-1 gate)
#   scripts/check.sh asan-ubsan      # sanitizer matrix leg
#   scripts/check.sh all             # every CI leg in sequence
#   scripts/check.sh --lint-only     # cimlint diff-baseline gate, nothing else
set -euo pipefail

cd "$(dirname "$0")/.."

# The cimlint diff-baseline gate: new findings fail, individually justified
# ones (tools/cimlint/baseline.json) pass, stale entries fail. Builds only
# the linter, so it runs in seconds and fronts the expensive build legs.
run_lint() {
  local preset="${1:-relwithdebinfo}"
  local build_dir="build/$preset"
  if [[ ! -x "$build_dir/tools/cimlint/cimlint" ]]; then
    if [[ -d "$build_dir" ]]; then
      cmake --build --preset "$preset" --target cimlint -j "$(nproc)"
    else
      # No preset tree yet: lint-only configure, which skips find_package
      # for gtest/benchmark — the gate runs on a machine with only cmake.
      build_dir="build/lint"
      cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
            -DCIM_LINT_ONLY=ON >/dev/null
      cmake --build "$build_dir" --target cimlint -j "$(nproc)"
    fi
  fi
  echo "==> [$preset] cimlint (diff-baseline)"
  "$build_dir/tools/cimlint/cimlint" --root . --diff-baseline \
      src bench examples tests tools
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
  # no filter, so every labelled suite runs here once; the tsan preset's
  # filter selects the concurrency, serve, fabric and dse labels.
  echo "==> [$preset] ctest"
  ctest --preset "$preset"
  if [[ "$preset" == "relwithdebinfo" ]]; then
    run_replay_gates "$preset"
    run_perf_gate "$preset"
  fi
}

# Perf gate: the full bench artifact build (scripts/bench_json.sh), which
# enforces the kernel speedup gates and the serving availability/recovery
# gates and writes the merged BENCH_PR10.json — the artifact CI uploads and
# EXPERIMENTS.md documents. (The perf-labelled suites already ran in the
# preset's ctest.)
run_perf_gate() {
  local preset="$1"
  echo "==> [$preset] bench artifact (speedup + availability gates, BENCH_PR10.json)"
  scripts/bench_json.sh
}

# Replay gates: each bench below derives every figure it writes from
# virtual time and fixed seeds, so two runs must produce byte-identical
# output. A diff means the layer picked up hidden wall-clock, scheduling or
# iteration-order dependence:
#   fault   bench_ablation_faults stdout: scenario-seeded injection, ABFT
#           detection and retry/remap/degrade recovery end to end
#   serve   bench_serve_latency smoke JSON: batching, backoff, WFQ, SLA loop
#   fabric  bench_fabric_cosim smoke JSON (virtual-time numbers and gate
#           verdicts only): epoch barrier, flat NoC path, partitioner
#   dse     bench_dse_sweep smoke JSON: every design point derives its own
#           RNG streams from the spec and the root seed
# Table rows: <name> <bench binary> <mode>, where mode is "stdout" (the
# bench prints its figures) or "json" (--smoke --json <file>).
REPLAY_GATES=(
  "fault bench_ablation_faults stdout"
  "serve bench_serve_latency json"
  "fabric bench_fabric_cosim json"
  "dse bench_dse_sweep json"
)

run_replay_gate() {
  local preset="$1" name="$2" bench="./build/$1/bench/$3" mode="$4"
  if [[ ! -x "$bench" ]]; then
    echo "==> [$preset] $name determinism gate: bench not built; skipping"
    return 0
  fi
  echo "==> [$preset] $name determinism gate (two identical replays)"
  local run1 run2
  run1="$(mktemp)" && run2="$(mktemp)"
  if [[ "$mode" == "stdout" ]]; then
    "$bench" > "$run1"
    "$bench" > "$run2"
  else
    "$bench" --smoke --json "$run1" > /dev/null
    "$bench" --smoke --json "$run2" > /dev/null
  fi
  if ! diff -u "$run1" "$run2"; then
    echo "FAIL: $name replay ($3) diverged between identical runs"
    rm -f "$run1" "$run2"
    return 1
  fi
  rm -f "$run1" "$run2"
}

run_replay_gates() {
  local preset="$1" row
  for row in "${REPLAY_GATES[@]}"; do
    # Unquoted on purpose: the row word-splits into its fields.
    run_replay_gate "$preset" $row
  done
}

run_clang_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy not installed; skipping (CI runs it on changed files)"
    return 0
  fi
  echo "==> clang-tidy (src/)"
  local build_dir="build/relwithdebinfo"
  [[ -f "$build_dir/compile_commands.json" ]] || cmake --preset relwithdebinfo
  find src -name '*.cc' -print0 |
    xargs -0 -P "$(nproc)" -n 4 clang-tidy -p "$build_dir" --quiet
}

target="${1:-relwithdebinfo}"
case "$target" in
  --lint-only)
    run_lint relwithdebinfo
    echo "==> lint gate passed"
    exit 0
    ;;
  all)
    run_preset relwithdebinfo
    run_preset asan-ubsan
    run_preset tsan
    run_preset werror
    run_clang_tidy
    ;;
  *)
    run_preset "$target"
    run_clang_tidy
    ;;
esac

echo "==> all checks passed"
