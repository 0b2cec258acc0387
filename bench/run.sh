#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload:
#
#   bash bench/run.sh --workload resident-social --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product, cache and input file
# stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
# The go command keeps its env file and telemetry counters under the user
# config directory; keep those in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C bench build -o "$out/bitcolor-bench" .
exec "$out/bitcolor-bench" -dir "$out/work" "$@"
