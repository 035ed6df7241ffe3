#!/usr/bin/env bash
# Builds and runs the end-to-end serving benchmark from the repository
# root (the directory holding e2ebench/). Everything the build and the run
# write stays under .bench_build/ there. Arguments pass through:
#
#   bash e2ebench/run.sh --workload warm-mix --seed 1 --seconds 16 --trace 0
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/e2ebench" && go build -buildvcs=false -o "$build/e2ebench-bin" .)
exec "$build/e2ebench-bin" "$@"
