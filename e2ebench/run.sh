#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, e.g.
#   bash e2ebench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build cache, temporary files and
# run outputs all stay under .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
bin="$out/e2ebench.$$"
go -C "$here" build -o "$bin" .
mv -f "$bin" "$out/e2ebench"
exec "$out/e2ebench" -workdir "$out" "$@"
