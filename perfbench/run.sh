#!/usr/bin/env bash
# Builds the fairrank benchmark from the sources of this checkout and runs
# it with the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload loop-2d --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and the
# benchmark's working directories.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# Never fetch a toolchain or a module: the benchmark builds from this tree only.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
