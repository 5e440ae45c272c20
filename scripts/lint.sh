#!/usr/bin/env bash
# Run hcs-lint over the tree (src bench examples tests tools).  Builds the
# tool if the build dir doesn't have it yet.
#
#   scripts/lint.sh [BUILD_DIR] [extra hcs_lint args...]   (default: build)
#
# A full run takes a fraction of a second, and the interprocedural rules need
# the whole project, so there is no partial mode.
#
# Exit codes follow the tool: 0 clean, 1 findings, 2 usage/I-O error.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
shift || true

if [[ ! -x "$BUILD_DIR/tools/hcs_lint" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target hcs_lint_tool >/dev/null
fi

exec "$BUILD_DIR/tools/hcs_lint" --root . "$@" src bench examples tests tools
