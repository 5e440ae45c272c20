#!/usr/bin/env bash
# Reproduce the full evaluation: build, run all tests, run every bench.
#
#   scripts/reproduce_all.sh [SCALE]
#
# SCALE (default: each binary's own default) multiplies repetition counts /
# fit points; 1.0 is the paper's full configuration.  It is passed as
# --scale to the figure, ablation, scale and service benches; the
# google-benchmark micro suites take no --scale.  Outputs land in
# test_output.txt and bench_output.txt at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

scale_args=()
if [[ $# -ge 1 ]]; then
  scale_args=(--scale "$1")
fi

cmake -B build
cmake --build build -j "$(nproc)"
ctest --test-dir build -j "$(nproc)" 2>&1 | tee test_output.txt
for b in build/bench/*; do
  [[ -f "$b" && -x "$b" ]] || continue
  case "$(basename "$b")" in
    bench_fig* | bench_ablation_* | bench_scale | bench_service) "$b" "${scale_args[@]}" ;;
    *) "$b" ;;
  esac
done 2>&1 | tee bench_output.txt
