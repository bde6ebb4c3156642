#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash _perfbench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#
# Build cache, binary, scratch WALs and span dumps stay under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
