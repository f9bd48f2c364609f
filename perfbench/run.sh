#!/usr/bin/env bash
# Builds the perfbench binary from the checkout it is run in and executes it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload train-dense-fp32 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the toolchain's own state and every output stay under
# .bench_build/ in the current directory; nothing is fetched (GOPROXY=off,
# GOTOOLCHAIN=local).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
	go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" -out "$out/perfbench-runs" "$@"
