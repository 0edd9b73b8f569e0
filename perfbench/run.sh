#!/usr/bin/env bash
# Builds the faultroute benchmark from the source tree it sits in and runs
# it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload estimate-sparse --seed 1 --seconds 8 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, binary, traces) goes under .bench_build/ there; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
