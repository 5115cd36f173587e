#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from source and runs it.
#
# Run from the repository root:
#
#   bash _benchmark/run.sh --workload session-start --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, binary, state directories,
# trace files) stays under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C _benchmark build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
