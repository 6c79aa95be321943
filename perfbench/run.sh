#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload of it.
#
#   bash perfbench/run.sh --workload live --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (binary, Go build cache and settings, durable stores, span dumps)
# goes under .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # go env and telemetry files
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
