#!/usr/bin/env bash
# Builds the offload benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash offloadbench/run.sh --workload invoke-small --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build
# in the checkout root; the benchmark's own scratch files go to
# .bench_work and are removed when it exits.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd offloadbench && go build -o "$build/offloadbench" .)
exec "$build/offloadbench" "$@"
