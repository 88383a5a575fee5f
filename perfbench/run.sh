#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the arguments given, e.g.
#
#   bash perfbench/run.sh --workload facility-10k --seed 1 --seconds 28 --trace 0
#
# Run it from the root of the checkout. Everything the build writes (its
# cache, temporary files, the go command's own configuration and
# telemetry) stays in .bench_build under the checkout; the first build
# compiles the standard library there too, later ones reuse the cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
