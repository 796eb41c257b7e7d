#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. The Go build cache, the binary,
# the scratch directories and the results all live under .bench_build in
# the checkout; nothing is fetched from the network.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/tmp"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/tmp" GOMODCACHE="${build}/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=readonly
go -C "${root}/perfbench" build -o "${build}/perfbench" . >&2
exec "${build}/perfbench" "$@"
