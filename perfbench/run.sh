#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload prove-large --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory: the binary, the Go build cache, Go's own config and
# temporary files, and the job journal of jobs-small. The build needs the
# repository's module one level up and nothing from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the repository root (no go.mod in $root)" >&2
	exit 2
fi
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
