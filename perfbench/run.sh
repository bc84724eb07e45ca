#!/usr/bin/env bash
# Builds the benchmark program and the real cmd/nocserved binary from the
# source tree it is run in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload noc-sweep --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Everything it writes (binaries, the Go
# build cache, scratch cache directories, trace files) goes under
# .bench_build/ in that root, so a run never touches the user's
# ~/.cache/heteronoc or Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=

go build -C "$root/perfbench" -o "$out/perfbench" . >&2
go build -o "$out/nocserved" ./cmd/nocserved >&2

exec "$out/perfbench" -root "$root" -nocserved "$out/nocserved" "$@"
