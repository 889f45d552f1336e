#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload pipeline-small --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the go
# command's configuration and telemetry, the binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
