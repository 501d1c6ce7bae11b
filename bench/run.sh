#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash bench/run.sh --workload sweep_exact --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache, temporary files, the
# binary) goes under .bench_build/ in the current directory, so a run reads
# and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
