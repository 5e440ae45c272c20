#!/usr/bin/env bash
# Strict pre-merge check: configure Release with warnings-as-errors, build
# everything, run the full test suite, and smoke-run the observability
# showcase end to end (trace written, schema-validated, metrics emitted).
#
#   scripts/check.sh [BUILD_DIR]     (default: build-check)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-check}"

cmake -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release -DHCS_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -j "$(nproc)" --output-on-failure

# Repo-wide static analysis gate (also runs as the `lint`-labelled ctest;
# invoked directly here for a focused log line and exit status).
"$BUILD_DIR/tools/hcs_lint" --root . src bench examples tests tools

# End-to-end observability smoke: trace_app must produce a valid Chrome
# trace and a metrics CSV.
TRACE_JSON="$BUILD_DIR/check_trace.json"
METRICS_CSV="$BUILD_DIR/check_metrics.csv"
"$BUILD_DIR/examples/trace_app" --nodes 2 --cores 2 --iterations 4 \
  --trace-out "$TRACE_JSON" --metrics-out "$METRICS_CSV" > /dev/null
"$BUILD_DIR/tests/validate_trace" "$TRACE_JSON"
head -1 "$METRICS_CSV" | grep -q '^name,kind,unit,' \
  || { echo "check.sh: unexpected metrics CSV header" >&2; exit 1; }

echo "check.sh: OK (-Werror build, $(grep -c '^' "$METRICS_CSV") metric rows)"
