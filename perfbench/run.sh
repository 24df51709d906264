#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload library_sweep --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write (Go caches, the binary, span
# files) stays under .bench_build/ at the repository root.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
