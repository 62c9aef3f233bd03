#!/usr/bin/env bash
# Builds the perfbench command from this checkout and runs it with the given
# arguments (see main.go for the flags). Run from the repository root:
#
#	bash perfbench/run.sh --workload suite --seed 11 --seconds 30 --trace 0
#
# Every build artifact, the Go build cache and the Go tool's own state go
# under .bench_build/ so that nothing outside the checkout is read or written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
