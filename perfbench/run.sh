#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it from the
# repository root:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build
# cache and temporary files, the binary, the cache stores the serve
# workloads create and remove, and the span files of traced runs.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -workdir "$build" "$@"
