#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the Go
# toolchain writes (build cache, temporary files, the binary) under
# .bench_build in the checkout. Arguments are passed through:
#   bash benchmark/run.sh --workload single --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: not a checkout of the repository" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -buildvcs=false -o "$out/ringbft-benchmark" ./benchmark
exec "$out/ringbft-benchmark" "$@"
