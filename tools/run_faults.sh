#!/usr/bin/env bash
# Build and run the fault-injection & recovery suites: the scripted
# fault scenarios (test_faults), the randomized transport/monotonicity
# properties (test_properties) and the golden-file diff — everything
# carrying the 'faults' ctest label — then replay the FPGA-death
# scenario with the floorplanner's worker pool at 1 and 4 threads and
# require bit-identical fault reports (the determinism acceptance
# gate).
#
# Usage: tools/run_faults.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-"${repo_root}/build"}"

cmake -S "${repo_root}" -B "${build_dir}"
cmake --build "${build_dir}" -j "$(nproc)"

ctest --test-dir "${build_dir}" -L faults --output-on-failure

# Cross-thread-count determinism smoke: the same scenario must render
# the same report bytes whatever TAPACS_THREADS says. A filter that
# matches no test exits 0, so require the scenario to have run.
scenario="FaultSim.ReportDeterministicAcrossWorkerThreadCounts"
run_scenario() {
    local out
    if ! out="$(TAPACS_THREADS="$1" "${build_dir}/tests/test_faults" \
                    --gtest_filter="${scenario}" --gtest_brief=1)"; then
        printf '%s\n' "${out}"
        exit 1
    fi
    printf '%s\n' "${out}"
    if ! grep -q '^\[  PASSED  \] 1 test\.' <<<"${out}"; then
        echo "error: ${scenario} did not run (TAPACS_THREADS=$1)" >&2
        exit 1
    fi
}
run_scenario 1
run_scenario 4
echo "fault suites passed (serial and 4-thread runs)"
