#!/usr/bin/env bash
# The benchmark's entry point under the contract in BENCHMARK.json:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# It builds ./benchmark from source into .bench_build/ (go build is a no-op
# when nothing changed) and runs it from the repository root. Everything the
# Go toolchain writes — build cache, temporary files, telemetry — is kept
# under .bench_build/ too, so a run reads and writes nothing outside its
# checkout and works with an unwritable or absent $HOME.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark/run.sh: $root is not the hoyan module root (go.mod and internal/ are needed to build)" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -o "$build/hoyan-benchmark" ./benchmark
exec "$build/hoyan-benchmark" "$@"
