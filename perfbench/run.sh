#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload smallfile --seed 1 --seconds 12 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the
# traced run's span files all stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out-dir "$out" "$@"
