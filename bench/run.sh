#!/usr/bin/env bash
# Builds failbench and runs it, from the root of a failscope checkout:
#
#   bash bench/run.sh --workload replay-mem --seed 1 --seconds 25 --trace 0
#
# Every file the Go toolchain and the benchmark write stays under
# .bench_build/ in the checkout: build cache, temporary files, binaries and
# the daemons' data directories.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$out/failbench" ./failbench
exec "$out/failbench" "$@"
