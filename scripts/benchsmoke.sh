#!/usr/bin/env bash
# CI benchmark smoke: one iteration of a hot-path benchmark, comparing
# allocs/op against the committed budgets (scripts/bench_baseline.txt).
# Throughput is machine-dependent and is NOT gated here; the allocation
# count is deterministic and must never regress.
#
# Usage: benchsmoke.sh [bench-regex] [package-dir]
#   benchsmoke.sh                              # sequential hot path
#   benchsmoke.sh BenchmarkParHotPath_PktsPerSec   # parallel hot path
#   benchsmoke.sh BenchmarkLiveWire_PktsPerSec ./internal/live   # live mux
#   benchsmoke.sh BenchmarkEventQLanes ./internal/eventq         # event queue
#
# Budget lines in bench_baseline.txt use the full benchmark path
# (Benchmark.../subbench); only lines matching the chosen bench run.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${1:-BenchmarkHotPath_PktsPerSec}"
PKG="${2:-.}"

raw="$(go test -run '^$' -bench "^${BENCH}\$" -benchtime 1x -count 1 "$PKG")"
echo "$raw"

fail=0
checked=0
while read -r name budget; do
    [ -z "$name" ] && continue
    case "$name" in \#*) continue ;; esac
    case "$name" in "$BENCH"/*) ;; *) continue ;; esac
    checked=$((checked + 1))
    got=$(echo "$raw" | awk -v name="$name" '
        $1 ~ "^" name "(-[0-9]+)?$" {
            for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") { printf "%d", $i; exit }
        }')
    if [ -z "$got" ]; then
        echo "benchsmoke: subbenchmark $name missing from output" >&2
        fail=1
    elif [ "$got" -gt "$budget" ]; then
        echo "benchsmoke: $name regressed to $got allocs/op (budget $budget)" >&2
        fail=1
    else
        echo "benchsmoke: $name ok ($got allocs/op, budget $budget)"
    fi
done < scripts/bench_baseline.txt
if [ "$checked" -eq 0 ]; then
    echo "benchsmoke: no budget entries for $BENCH in scripts/bench_baseline.txt" >&2
    fail=1
fi
exit $fail
