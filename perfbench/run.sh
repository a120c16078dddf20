#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it:
#
#   bash perfbench/run.sh --workload cold-large --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, generated trees and
# result stores) stays under .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
