#!/usr/bin/env bash
# Reachability lint: every out-of-line function a src/ library defines
# is reached by a tool, bench, example or perfbench binary, or is a
# test oracle or test seam named in tools/reachability_allowlist.txt.
#
#   tools/check_reachability.sh <build-dir>
#
# Configures the repo into <build-dir> (and the perfbench package into
# <build-dir>/perfbench) at -O0 with one section per function, builds
# every executable target of tools/, bench/ and examples/ plus
# perfbench and its tapacs-serve, and links them with --gc-sections,
# so each binary keeps exactly the functions its entry point reaches.
# -O0 matters: an inlined body or a constprop/isra clone would
# otherwise hide a call that is really there.
#
# A function counts when `nm` lists it as a strong text symbol (T) in
# the tapacs namespace of a src/ archive; inline members, templates
# and file-local helpers are out of scope. The check fails when such
# a function is in no binary and not allowlisted, and when an
# allowlist entry is stale: reached by a binary, or no longer defined.
set -euo pipefail
export LC_ALL=C # one collation for sort and comm

if [ $# -ne 1 ]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$1"
allowlist="$root/tools/reachability_allowlist.txt"
jobs="$(nproc)"

flags=(
    -G "Unix Makefiles"
    -DCMAKE_BUILD_TYPE=Debug
    -DCMAKE_CXX_FLAGS_DEBUG=-O0
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

cmake -S "$root" -B "$build" "${flags[@]}" > /dev/null
cmake -S "$root/perfbench" -B "$build/perfbench" "${flags[@]}" > /dev/null

# The executable targets of one source directory, as its Makefile's
# help lists them (object-file and utility targets dropped).
targets_of() {
    cmake --build "$build/$1" --target help |
        sed -n 's/^\.\.\. \([^ ]*\).*$/\1/p' |
        grep -v -E '\.(o|i|s)$' |
        grep -v -x -E 'all|clean|depend|edit_cache|rebuild_cache|test'
}

bins=()
for dir in tools bench examples; do
    mapfile -t names < <(targets_of "$dir")
    if [ ${#names[@]} -eq 0 ]; then
        echo "reachability: no targets found in $dir/" >&2
        exit 2
    fi
    cmake --build "$build" -j"$jobs" --target "${names[@]}"
    for name in "${names[@]}"; do
        bins+=("$build/$dir/$name")
    done
done
cmake --build "$build/perfbench" -j"$jobs" --target perfbench tapacs-serve
bins+=("$build/perfbench/perfbench" "$build/perfbench/tapacs-serve")

mapfile -t libs < <(find "$build/src" -name 'libtapacs_*.a' | sort)
if [ ${#libs[@]} -eq 0 ]; then
    echo "reachability: no src/ archives under $build/src" >&2
    exit 2
fi

work="$build/reachability"
mkdir -p "$work"

# Demangled strong tapacs:: text symbols of the given files.
symbols() {
    nm -C --defined-only "$@" |
        sed -n 's/^[0-9a-f]* T \(tapacs::.*\)$/\1/p' | sort -u
}
symbols "${libs[@]}" > "$work/defined"
symbols "${bins[@]}" > "$work/reached"
# Entries are demangled signatures; '#' starts a comment.
sed -e 's/#.*$//' -e 's/[[:space:]]*$//' -e '/^$/d' "$allowlist" |
    sort -u > "$work/allowed"

comm -23 "$work/defined" "$work/reached" > "$work/unreached"
comm -23 "$work/unreached" "$work/allowed" > "$work/dead"
comm -12 "$work/allowed" "$work/reached" > "$work/stale_reached"
comm -23 "$work/allowed" "$work/defined" > "$work/stale_undefined"

echo "reachability: $(wc -l < "$work/defined") functions in" \
     "${#libs[@]} archives, ${#bins[@]} binaries:" \
     "$(comm -12 "$work/defined" "$work/reached" | wc -l) reached," \
     "$(wc -l < "$work/allowed") allowlisted"

fail=0
if [ -s "$work/dead" ]; then
    echo "reached by no tool, bench, example or perfbench binary" \
         "(delete it, or allowlist it with the test that uses it):"
    sed 's/^/  /' "$work/dead"
    fail=1
fi
if [ -s "$work/stale_reached" ]; then
    echo "stale allowlist entries, now reached by a binary:"
    sed 's/^/  /' "$work/stale_reached"
    fail=1
fi
if [ -s "$work/stale_undefined" ]; then
    echo "stale allowlist entries, no longer defined in src/:"
    sed 's/^/  /' "$work/stale_undefined"
    fail=1
fi
exit $fail
