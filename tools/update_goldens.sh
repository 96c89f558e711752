#!/usr/bin/env bash
# Regenerate the golden-file regression artifacts in tests/golden/
# (byte-exact compile+sim results for the four paper workloads).
#
# Run this only after an *intentional* model change, then review the
# resulting diff like any other code change:
#   tools/update_goldens.sh && git diff tests/golden
#
# Usage: tools/update_goldens.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-"${repo_root}/build"}"

cmake -S "${repo_root}" -B "${build_dir}"
cmake --build "${build_dir}" -j "$(nproc)" --target tapacs-golden

"${build_dir}/tools/tapacs-golden" --write "${repo_root}/tests/golden"
"${build_dir}/tools/tapacs-golden" --check "${repo_root}/tests/golden"
