#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it from the
# checkout root, passing every argument through (see bench/README.md).
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh -workload sort-direct -seed 3 -seconds 12 -trace 0
#
# Everything the build and the run write stays under .bench_build: the Go
# build cache and temporary files, the binary, backing files and traces.
# Without the library sources next to bench/ the build fails and the script
# exits non-zero before printing any result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod

(cd bench && go build -o "$out/empart-bench" .)
exec "$out/empart-bench" -dir "$out" "$@"
