#!/usr/bin/env bash
# Build and run the crash-tolerance suites: everything carrying the
# 'fleet' ctest label (wire/journal/cache-CRC units plus the
# multi-process chaos scenarios and the 200-case seeded kill/replay
# property), then drive the tapacs-serve binary end-to-end through a
# seeded chaos matrix — worker kills, supervisor restart with journal
# replay, and offline cache/journal corruption — asserting the fleet's
# contract from the outside: every request resolves exactly once with
# a typed outcome, a corrupted cache degrades to misses, never a
# crash, a stale leaked temp is swept when the cache opens, and a
# clean multi-request run shares journal fsyncs (group commit).
#
# Usage: tools/run_chaos.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-"${repo_root}/build"}"

cmake -S "${repo_root}" -B "${build_dir}"
cmake --build "${build_dir}" -j "$(nproc)"

ctest --test-dir "${build_dir}" -L fleet --output-on-failure

serve="${build_dir}/tools/tapacs-serve"
cache_tool="${build_dir}/tools/tapacs-cache"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

manifest="${work}/manifest.txt"
cat > "${manifest}" <<'EOF'
request chaos-a workload=stencil fpgas=2 mode=tapacs
request chaos-b workload=pagerank fpgas=2 mode=tapacs
request chaos-c workload=knn fpgas=2 mode=tapacs
request chaos-d workload=stencil fpgas=3 mode=tapacs topology=ring
EOF

# Seeded chaos matrix: each seed arms a different kill/hang/stall
# plan. --strict means "exit 1 unless every request's typed outcome
# is a success" — the exactly-once resolution gate.
for seed in 1 7 42; do
    echo "== chaos seed ${seed} =="
    "${serve}" "${manifest}" --workers 3 \
        --cache-dir "${work}/cache" --journal "${work}/journal.bin" \
        --chaos-seed "${seed}" --strict
done

# The journal must be fully compacted after clean runs: nothing to
# replay means a restart admits nothing.
"${serve}" --journal "${work}/journal.bin" --workers 2 --strict

# Group commit: a clean run whose submissions overlap execution (a
# two-deep queue with backpressure) must share journal fsyncs. One
# fsync per record would be two per request, plus the compaction's.
"${serve}" "${manifest}" --workers 4 --repeat 8 --max-queue 2 \
    --block-on-full --cache-dir "${work}/cache" \
    --journal "${work}/group.bin" --strict > "${work}/group.out"
admitted="$(awk '$1 == "tapacs.serve.admitted" { print $2 }' \
    "${work}/group.out")"
fsyncs="$(awk '$1 == "tapacs.fleet.journal_fsyncs" { print $2 }' \
    "${work}/group.out")"
echo "group commit: ${fsyncs:-no} journal fsyncs for ${admitted:-no}" \
    "admitted requests"
if [[ -z "${admitted}" || -z "${fsyncs}" ]] ||
    (( fsyncs >= 2 * admitted )); then
    echo "journal fsyncs not shared: want fewer than 2 per request" >&2
    exit 1
fi

# Offline corruption: flip a bit in one cache entry, then prove the
# scrubber removes exactly that entry and a subsequent serve run
# treats it as a miss (still --strict clean).
# First glob match, without a pipe: under pipefail `ls | head` can die
# of SIGPIPE on a large cache.
for victim in "${work}/cache"/*.tce; do break; done
"${cache_tool}" --flip "${victim}" 12345
"${cache_tool}" --scrub "${work}/cache"
"${serve}" "${manifest}" --workers 2 \
    --cache-dir "${work}/cache" --strict

# Stale-temp sweep: temps are staged in <cache>/.tmp/, and opening
# the cache removes those older than an hour (a crash between the
# temp write and the rename leaks them). A 2-hour-old leak must be
# gone after one in-process serve run over that cache.
stale="${work}/cache/.tmp/leaked.0.0"
touch -d '2 hours ago' "${stale}"
"${serve}" "${manifest}" --in-process --workers 2 \
    --cache-dir "${work}/cache" --strict
if [[ -e "${stale}" ]]; then
    echo "opening the cache did not sweep the stale temp ${stale}" >&2
    exit 1
fi

# A post-run scrub of a healthy cache must be a no-op.
"${cache_tool}" --scrub "${work}/cache" --strict

# Torn journal: append a valid record header (magic, a 100-byte
# length, a CRC) whose body stops after 7 bytes, as a crash mid-append
# leaves it. A restart must truncate the torn tail with a typed
# diagnostic, not count it as corruption, and still exit clean.
"${serve}" "${manifest}" --workers 2 --journal "${work}/torn.bin" \
    --strict
printf 'TJR2\144\000\000\000\000\000\000\000\000\000\000\000partial' \
    >> "${work}/torn.bin"
"${serve}" --journal "${work}/torn.bin" --workers 2 --strict \
    2> "${work}/torn.err"
cat "${work}/torn.err" >&2
if ! grep -q "torn tail truncated" "${work}/torn.err"; then
    echo "restart did not report the torn journal tail" >&2
    exit 1
fi

echo "chaos suites passed"
