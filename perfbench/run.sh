#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload wire-logged --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build and every file a run
# writes stay under .bench_build/ in that directory (Go build cache
# included). Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
