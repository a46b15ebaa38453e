#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload sim-fabric --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the build writes (binary, Go
# build cache, temporary files) stays under .bench_build/. The spread of
# each metric over several seeds, the steadiness the bounds in
# BENCHMARK.json are set against:
#
#   for s in 1 2 3 4 5; do bash perfbench/run.sh --workload fleet-year \
#       --seed $s --seconds 20 --trace 0; done | .bench_build/perfbench spread
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
