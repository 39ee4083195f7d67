#!/usr/bin/env sh
# Determinism lint: greps every C++ tree (src, tools, examples, bench) for
# nondeterminism hazards that have bitten simulation repos before:
#
#   random-device        unseeded randomness — std::random_device, rand(),
#                        srand(). Everything must draw from the seeded
#                        common/rng.hpp Rng.
#   wall-clock           system/steady/high-resolution clocks or
#                        gettimeofday in code that computes results. The
#                        bench stopwatch and the span profiler legitimately
#                        read the clock; each such file is allowlisted, one
#                        line per file.
#   unordered-iteration  a range-for directly over an unordered container:
#                        iteration order is implementation-defined, so any
#                        result assembled that way is nondeterministic.
#
# Findings are (kind, file) pairs. A finding is fatal unless the pair
# appears in tools/determinism_allowlist.txt ("<kind> <path>" per line,
# '#' comments). Run from anywhere; exits 1 on unallowlisted hazards.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
allowlist="$root/tools/determinism_allowlist.txt"
scope="src tools examples bench"

fail=0
report() { # kind file line text
    if grep -Eq "^$1[[:space:]]+$2\$" "$allowlist"; then
        return
    fi
    echo "determinism: $2:$3: $1 hazard: $4" >&2
    fail=1
}

scan() { # kind pattern
    kind=$1
    pattern=$2
    # shellcheck disable=SC2086 -- scope is a word list on purpose
    (cd "$root" && grep -rnE "$pattern" $scope \
        --include='*.cpp' --include='*.hpp' || true) |
    while IFS=: read -r file line text; do
        report "$kind" "$file" "$line" "$text"
    done
}

# The while loop above runs in a subshell under plain sh, so hazards are
# counted by re-running the scan and comparing against the allowlist here.
run() {
    scan random-device 'std::random_device|[^a-zA-Z_:]s?rand\(|::rand\('
    scan wall-clock 'system_clock|steady_clock|high_resolution_clock|gettimeofday|[^a-zA-Z_]time\(NULL|[^a-zA-Z_]time\(nullptr'
    scan unordered-iteration 'for[[:space:]]*\(.*:.*unordered'
}

out=$(run 2>&1) || true
if [ -n "$out" ]; then
    echo "$out" >&2
    echo "determinism: unallowlisted hazards found (see" \
         "tools/determinism_allowlist.txt)" >&2
    exit 1
fi
echo "determinism: clean ($(echo "$scope" | wc -w | tr -d ' ') trees scanned)"
