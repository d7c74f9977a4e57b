#!/usr/bin/env bash
# Builds the serving benchmark from the sources of the checkout it is run
# in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload dram --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache,
# cold-tier backing files and span dumps all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOENV=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" -root "$root" -commit "$commit" "$@"
