#!/usr/bin/env bash
# Builds the stress-engine benchmark from the checkout it sits in and runs
# it with the given arguments, from the checkout root. The Go build cache,
# the binary and the run's scratch files stay under .bench_build there.
#
#   bash stressbench/run.sh --workload chip_map --seed 1 --seconds 45 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$build/stressbench" .)
cd "$root"
exec "$build/stressbench" "$@"
