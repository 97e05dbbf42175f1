#!/usr/bin/env bash
# Builds the benchmark and the cmd/obsd daemon from this checkout into
# .bench_build/ and runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload prepared-point --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Every file the build and the
# run write (Go build cache, binaries, spans) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/obsd" ./cmd/obsd)
cd "$root"
exec "$out/perfbench" --obsd "$out/obsd" --out "$out/traces" "$@"
