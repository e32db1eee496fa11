#!/usr/bin/env bash
# Profiles the sweep hot path: a cold eager BuildFull of the 64-state chain
# (BM_StrategyComparison/states:64/onthefly:0 — every iteration rebuilds the
# graph from scratch, so the profile is dominated by guard bytecode evaluation,
# projection keying and interning rather than cache replay).
#
# Builds the Profile preset (-O2 -g -fno-omit-frame-pointer; see
# CMakePresets.json) and drives bench_e2_scaling under the best profiler
# the machine has:
#   1. perf record / perf report  — per-symbol flat profile with stacks;
#   2. perf stat                  — counters only (perf present but
#                                   perf_event_paranoid blocks sampling);
#   3. gprof                      — a -pg instrumented rebuild of the same
#                                   preset flags;
#   4. time                      — last resort, wall clock only.
#
# Usage: tools/profile_sweep.sh [benchmark-filter]
#        (default filter: 'BM_StrategyComparison/states:64/onthefly:0')
set -euo pipefail

cd "$(dirname "$0")/.."
FILTER="${1:-BM_StrategyComparison/states:64/onthefly:0}"
BENCH_ARGS=(--benchmark_filter="${FILTER}" --benchmark_min_time=1)

build_preset() {
  cmake --preset profile >/dev/null
  cmake --build --preset profile -j --target bench_e2_scaling >/dev/null
}

echo "== Building the Profile preset (-O2 -g -fno-omit-frame-pointer) =="
build_preset
BIN=build-profile/bench_e2_scaling

if command -v perf >/dev/null 2>&1; then
  if perf record -o /tmp/profile_sweep.perf.data -g --call-graph fp \
      -- "${BIN}" "${BENCH_ARGS[@]}" 2>/dev/null; then
    echo
    echo "== perf report (top symbols of the cold chain-64 build) =="
    perf report -i /tmp/profile_sweep.perf.data --stdio --no-children \
      2>/dev/null | head -40
    exit 0
  fi
  echo "perf record unavailable (perf_event_paranoid?); falling back to perf stat"
  if perf stat -- "${BIN}" "${BENCH_ARGS[@]}"; then
    exit 0
  fi
fi

if command -v gprof >/dev/null 2>&1; then
  echo "perf unavailable; rebuilding with -pg for gprof"
  cmake --preset profile -DCMAKE_CXX_FLAGS_PROFILE="-O2 -g -fno-omit-frame-pointer -pg" \
    -DCMAKE_EXE_LINKER_FLAGS=-pg >/dev/null
  cmake --build --preset profile -j --target bench_e2_scaling >/dev/null
  (cd build-profile && ./bench_e2_scaling "${BENCH_ARGS[@]}")
  echo
  echo "== gprof flat profile (top symbols of the cold chain-64 build) =="
  gprof -b -p build-profile/bench_e2_scaling build-profile/gmon.out | head -40
  # Leave the preset as documented for the next run.
  cmake --preset profile -DCMAKE_CXX_FLAGS_PROFILE="-O2 -g -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS= >/dev/null
  exit 0
fi

echo "No profiler found (perf, gprof); timing only:"
time "${BIN}" "${BENCH_ARGS[@]}"
