#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, passing its
# arguments through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload replay-tomcat-llbp --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, session
# journal, trace files) stays in .bench_build/ under the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
