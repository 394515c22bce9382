#!/bin/sh
# run.sh — build the benchmark from the source tree it sits in, then run
# it with the given arguments. Run from the repository root:
#
#   sh perfbench/run.sh --workload suite-warm --seed 1 --seconds 30 --trace 0
#
# The Go build cache and the binary live under .bench_build/ in the
# current directory, so the benchmark reads and writes nothing outside
# the tree. Build output goes to stderr; stdout carries only the report.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
    echo "run.sh: run from the repository root (go.mod and perfbench/go.mod must both exist)" >&2
    exit 2
fi
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$root/.bench_build/perfbench" .) >&2
exec "$root/.bench_build/perfbench" "$@"
