#!/usr/bin/env bash
# Build the benchmark from source and run it with the given arguments.
#
# Run from the repository root:
#
#	bash bench/run.sh --workload sms-tier --seed 1 --seconds 12 --trace 0
#	bash bench/run.sh -all -sets 2 -seed 1
#	bash bench/run.sh compare base.json head.json
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary, scratch stores
# and result files. Nothing is read from or written to the user's home.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" "$@"
