#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh --workload suite-twopass --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# fleet's capture store) stays under .bench_build/ at the checkout root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
